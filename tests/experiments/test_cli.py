"""CLI tests."""

import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _graph_from_spec, build_parser, main

ROOT = Path(__file__).resolve().parents[2]

_TEL = {"telemetry": None}
_FLEET = {"fallback": None, "workers": None, "endpoint": None}
_SAMPLING = {"lazy": False, "seed": 0}
_EVOLVING = {
    "family": "expander", "n": 64, "rate": 0.1, "process": "cobra",
    "runs": 20, "branching": 2.0, "completion": "all-vertices",
}

# The parsed namespace of every subcommand from its minimal argv (the
# handler a command binds is left out): the CLI surface, pinned.
MINIMAL_NAMESPACES = [
    (["list"], {"command": "list"}),
    (["run", "E1"], {
        "command": "run", **_TEL, "experiment": "E1", "scale": "quick",
        "seed": 20170724, "workers": 1,
    }),
    (["graph-info", "cycle-9"], {"command": "graph-info", "spec": "cycle-9"}),
    (["report"], {
        "command": "report", "scale": "full", "seed": 20170724,
        "output": "EXPERIMENTS.md",
    }),
    (["cover", "cycle-9"], {
        "command": "cover", **_TEL, **_FLEET, **_SAMPLING, "spec": "cycle-9",
        "runs": 100, "start": 0, "branching": 2.0,
    }),
    (["trajectory", "cycle-9"], {
        "command": "trajectory", **_TEL, **_FLEET, **_SAMPLING,
        "spec": "cycle-9", "process": "bips", "runs": 60,
    }),
    (["dynamics"], {
        "command": "dynamics", **_TEL, **_FLEET, **_SAMPLING, **_EVOLVING,
        "kind": "rewiring", "independent": False,
    }),
    (["adversary"], {
        "command": "adversary", **_TEL, **_FLEET, **_SAMPLING, **_EVOLVING,
        "kind": "greedy-cut", "budget": 8, "batched": False,
    }),
    (["status", "127.0.0.1:7603"], {
        "command": "status", "endpoint": "127.0.0.1:7603", "timeout": 5.0,
        "watch": None,
    }),
    (["top", "127.0.0.1:9633"], {
        "command": "top", "endpoints": ["127.0.0.1:9633"], "interval": 2.0,
        "once": False, "timeout": 2.0, "fail_on_dead": False,
    }),
    (["trace", "summarize", "t.jsonl"], {
        "command": "trace", "trace_command": "summarize", "path": ["t.jsonl"],
    }),
    (["broker"], {
        "command": "broker", **_TEL, "host": "127.0.0.1", "port": 7603,
        "lease_timeout": 30.0, "max_attempts": 5, "metrics_port": None,
    }),
    (["worker", "127.0.0.1:7603"], {
        "command": "worker", **_TEL, "endpoint": "127.0.0.1:7603",
        "max_tasks": None, "poll": 0.5, "metrics_port": None, "faults": None,
    }),
    (["chaos"], {"command": "chaos", **_TEL, "seed": 0, "smoke": False}),
]


def _documented_commands() -> list[list[str]]:
    """The argv of every ``repro`` line in README's bash blocks and in CI.

    ``VAR=value`` prefixes, a trailing ``&``, comments and anything after
    a ``|`` are stripped first.
    """
    readme = (ROOT / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
        for line in block.splitlines()
    ]
    lines += (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    commands = []
    for line in lines:
        words = line.split("#")[0].split("|")[0].strip().removesuffix("&").split()
        while words and re.match(r"[A-Za-z_]\w*=", words[0]):
            words.pop(0)
        if words[:1] == ["repro"]:
            commands.append(words[1:])
        elif words[:3] == ["python", "-m", "repro"]:
            commands.append(words[3:])
    return commands


DOCUMENTED_COMMANDS = _documented_commands()


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


class TestSurface:
    @pytest.mark.parametrize(
        "argv,expected",
        MINIMAL_NAMESPACES,
        ids=[" ".join(argv) for argv, _ in MINIMAL_NAMESPACES],
    )
    def test_minimal_namespace(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        parsed.pop("handler", None)
        assert parsed == expected

    @pytest.mark.parametrize(
        "argv", DOCUMENTED_COMMANDS, ids=lambda argv: " ".join(argv)
    )
    def test_documented_command_parses(self, argv):
        build_parser().parse_args(argv)


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

    def test_workers_pick_only_the_tier(self, capsys):
        # 300 runs make two shards, so --workers 2 really forks.
        argv = ["dynamics", "--n", "24", "--runs", "300", "--rate", "0.1",
                "--seed", "7"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "  execution : one shared realisation, replayed by every run\n" in serial

    def test_independent_rejects_fleet(self):
        # The per-run loop cannot shard, so a fleet flag is an error, as
        # it is for adversary without --batched.
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--n", "24", "--runs", "4", "--independent",
                  "--workers", "2"])
        assert "--independent" in str(exc.value.code)


class TestAdversaryCommand:
    def test_per_run_loop(self, capsys):
        argv = ["adversary", "--n", "32", "--runs", "4", "--budget", "8",
                "--seed", "7"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("adversarial COBRA on ")
        assert lines[1:5] == [
            "  adversary : greedy-cut (budget 8/round)",
            "  oblivious : 6 double-edge swaps/round (rate 0.1)",
            "  execution : per-run loop (adversary fights each run's own "
            "frontier)",
            "  runs=4 b=2 lazy=False seed=7 completion=all-vertices",
        ]
        assert lines[5].startswith("  mean cover time    : ")

    def test_batched_sharded(self, capsys):
        argv = ["adversary", "--n", "32", "--runs", "40", "--budget", "4",
                "--batched", "--workers", "1", "--seed", "7"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert (
            "  execution : one shared adversarial sequence, replayed by each "
            "shard's runs\n" in out
        )
        assert "95th percentile" in out

    def test_unbatched_rejects_fleet(self):
        with pytest.raises(SystemExit) as exc:
            main(["adversary", "--n", "32", "--runs", "4", "--workers", "1"])
        assert "--batched" in str(exc.value.code)


class TestInputErrors:
    """Malformed input ends in one line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph-info", "cycle-abc"],
            ["graph-info", "hypercube"],
            ["graph-info", "rreg-3"],
            ["trajectory", "cycle-x"],
            ["cover", "rreg-3-9"],
            ["run", "E99"],
            ["run", "E4", "--workers", "0"],
            ["cover", "cycle-9", "--runs", "0"],
            ["trajectory", "cycle-9", "--runs", "0"],
            ["dynamics", "--runs", "0"],
            ["adversary", "--runs", "0"],
            ["cover", "cycle-9", "--start", "99"],
            ["cover", "cycle-9", "--branching", "0"],
            ["cover", "cycle-9", "--branching", "2.5"],
            ["cover", "cycle-9", "--branching", "nan"],
            ["dynamics", "--branching", "0"],
            ["adversary", "--branching", "0"],
        ],
        ids=" ".join,
    )
    def test_rejected_without_traceback(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code not in (0, None)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if isinstance(exc.value.code, str):
            assert "\n" not in exc.value.code


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


class TestRedrawLoop:
    """status and top share one redraw loop; a dead endpoint exercises it."""

    def test_top_once_renders_unreachable_panel(self, capsys):
        dead = _dead_endpoint()
        assert main(["top", dead, "--once"]) == 0
        assert capsys.readouterr().out.startswith(f"{dead}: unreachable (")

    def test_top_fail_on_dead_names_endpoint(self, capsys):
        dead = _dead_endpoint()
        assert main(["top", dead, "--once", "--fail-on-dead"]) == 1
        assert dead in capsys.readouterr().err

    def test_status_shows_only_what_the_broker_reports(
        self, capsys, tmp_path, monkeypatch
    ):
        # This process's result cache is not the broker's: with an entry
        # in REPRO_CACHE_DIR, the broker's panel still has no cache line.
        from repro.distributed import Broker, ResultCache

        ResultCache(tmp_path, max_bytes=None).put("ab" * 32, {"v": 2})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with Broker(lease_timeout=15.0) as broker:
            assert main(["status", broker.address]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"broker {broker.address}")
        assert "cache" not in out

    def test_status_dead_broker_one_line(self, capsys):
        dead = _dead_endpoint()
        assert main(["status", dead]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert dead in captured.err

    def test_redraw_clears_screen_and_stops_on_ctrl_c(self, capsys, monkeypatch):
        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.time.sleep", interrupt)
        assert main(["top", _dead_endpoint(), "--interval", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\x1b[2J\x1b[H")
        assert out.count("unreachable") == 1

    def test_closed_pipe_ends_cleanly(self):
        # ``repro top ... | head -n 1``: the reader goes away mid-redraw.
        env = dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "top", _dead_endpoint(),
             "--interval", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert b"unreachable" in proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestResilienceFlags:
    """--fallback local against a dead broker equals the local run.

    Each fallback waits through the default retry schedule first.
    """

    @pytest.fixture(autouse=True)
    def _isolated(self, tmp_path, monkeypatch):
        from repro import resilience

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        yield
        resilience.configure(fallback=None)

    def test_cover_falls_back_to_local(self, capsys):
        argv = ["cover", "rreg-4-64", "--runs", "40", "--seed", "3"]
        assert main(argv + ["--workers", "1"]) == 0
        local = _statistics(capsys.readouterr().out)
        assert main(
            argv + ["--endpoint", _dead_endpoint(), "--fallback", "local"]
        ) == 0
        fallen_back = _statistics(capsys.readouterr().out)
        assert len(local) == 2
        assert fallen_back == local

    def test_dynamics_falls_back_to_local(self, capsys):
        argv = ["dynamics", "--n", "24", "--runs", "12", "--seed", "5"]
        assert main(argv + ["--workers", "1"]) == 0
        local = _statistics(capsys.readouterr().out)
        assert main(
            argv + ["--endpoint", _dead_endpoint(), "--fallback", "local"]
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
        # The full-suite CLI path: all 17 experiments at smoke scale.
        assert main(["run", "all", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 18):
            assert f"E{i} finished" in out
        assert "FAIL" not in out
