"""CLI tests."""

import socket

import pytest

from repro.cli import _graph_from_spec, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.experiment == "E1"
        assert args.scale == "quick"

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "all", "--scale", "smoke", "--seed", "7"]
        )
        assert args.scale == "smoke"
        assert args.seed == 7


class TestGraphSpecs:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("cycle-12", 12),
            ("path-5", 5),
            ("star-6", 6),
            ("complete-7", 7),
            ("hypercube-4", 16),
            ("torus-3x4", 12),
            ("margulis-4", 16),
            ("rreg-3-16", 16),
        ],
    )
    def test_specs(self, spec, n):
        assert _graph_from_spec(spec).n == n

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            _graph_from_spec("klein-bottle-9")


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_smoke(self, capsys):
        assert main(["run", "E4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_graph_info(self, capsys):
        assert main(["graph-info", "petersen"]) == 0 if False else True
        # petersen isn't a spec; use cycle instead
        assert main(["graph-info", "cycle-9"]) == 0
        out = capsys.readouterr().out
        assert "diameter=4" in out
        assert "lambda=" in out


class TestCoverCommand:
    def test_cover_named_graph(self, capsys):
        assert main(["cover", "complete-16", "--runs", "10"]) == 0
        out = capsys.readouterr().out
        assert "mean cover time" in out
        assert "Theorem 1.1 bound" in out

    def test_cover_auto_lazy_on_bipartite(self, capsys):
        assert main(["cover", "cycle-8", "--runs", "5"]) == 0
        out = capsys.readouterr().out
        assert "enabling the lazy variant" in out

    def test_cover_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "net.edges"
        path.write_text("0 1\n1 2\n2 0\n")
        assert main(["cover", str(path), "--runs", "5"]) == 0
        assert "mean cover time" in capsys.readouterr().out


class TestDynamicsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["dynamics"])
        assert args.family == "expander"
        assert args.kind == "rewiring"
        assert args.rate == 0.1
        assert args.process == "cobra"

    def test_cobra_rewiring_runs(self, capsys):
        assert (
            main(
                ["dynamics", "--family", "cycle", "--n", "21", "--rate", "0.3",
                 "--runs", "5", "--seed", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dynamic COBRA" in out
        assert "mean cover time" in out

    def test_bips_churn_runs(self, capsys):
        assert (
            main(
                ["dynamics", "--family", "complete", "--n", "12", "--kind",
                 "churn", "--rate", "0.2", "--process", "bips", "--runs", "4",
                 "--seed", "2"]
            )
            == 0
        )
        assert "mean infection time" in capsys.readouterr().out

    def test_output_deterministic(self, capsys):
        argv = ["dynamics", "--family", "expander", "--n", "32", "--rate",
                "0.1", "--runs", "5", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_bad_rate_rejected(self):
        with pytest.raises(SystemExit):
            main(["dynamics", "--rate", "1.5", "--runs", "2"])


def _dead_endpoint() -> str:
    """A localhost port with nothing listening on it."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{sock.getsockname()[1]}"


def _statistics(out: str) -> list[str]:
    """The mean and 95th-percentile lines of a sampling command's output."""
    return [
        line
        for line in out.splitlines()
        if line.strip().startswith(("mean ", "95th percentile"))
    ]


class TestResilienceFlags:
    """--fallback local against a dead broker equals the local run."""

    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        from repro import resilience

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        resilience.reset_breakers()
        yield
        resilience.configure(retry=None, fallback=None)
        resilience.reset_breakers()

    def test_cover_falls_back_to_local(self, capsys):
        argv = ["cover", "rreg-4-64", "--runs", "40", "--seed", "3"]
        assert main(argv + ["--workers", "1"]) == 0
        local = _statistics(capsys.readouterr().out)
        assert main(
            argv + ["--endpoint", _dead_endpoint(), "--fallback", "local",
                    "--retry-attempts", "1"]
        ) == 0
        fallen_back = _statistics(capsys.readouterr().out)
        assert len(local) == 2
        assert fallen_back == local

    def test_dynamics_falls_back_to_local(self, capsys):
        argv = ["dynamics", "--n", "24", "--runs", "12", "--seed", "5"]
        assert main(argv + ["--workers", "1"]) == 0
        local = _statistics(capsys.readouterr().out)
        assert main(
            argv + ["--endpoint", _dead_endpoint(), "--fallback", "local",
                    "--retry-attempts", "1"]
        ) == 0
        fallen_back = _statistics(capsys.readouterr().out)
        assert len(local) == 2
        assert fallen_back == local


class TestReportCommand:
    def test_report_writes_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["report", "--scale", "smoke", "--output", "OUT.md"]
        ) == 0
        text = (tmp_path / "OUT.md").read_text()
        assert "# EXPERIMENTS" in text
        assert "## E1" in text and "## E16" in text


class TestRunAll:
    def test_run_all_smoke(self, capsys):
        # The full-suite CLI path: all 16 experiments at smoke scale.
        assert main(["run", "all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 17):
            assert f"E{i} finished" in out
        assert "FAIL" not in out
