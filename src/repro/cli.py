"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands::

    repro list                    # show registered experiments
    repro run E1 [--scale quick] [--seed N]   # run one experiment
    repro run all [--scale smoke]             # run the whole suite
    repro graph-info hypercube-7              # structural + spectral summary
    repro cover hypercube-7 --runs 100        # COBRA cover time vs Theorem 1.1
    repro trajectory cycle-9 [--process cobra]   # BIPS / COBRA trajectory chart
    repro dynamics --family cycle --rate 0.3  # cover on an evolving graph
    repro adversary --kind greedy-cut --budget 8   # worst-case dynamic cover
    repro broker --port 7603                  # shard-queue broker
    repro worker 127.0.0.1:7603               # worker attached to a broker
    repro status 127.0.0.1:7603 [--watch 2]   # broker queue counters + metrics
    repro top 127.0.0.1:9633 [...] [--once]   # live dashboard over /statusz
    repro trace summarize trace.jsonl [...]   # stitched span tree + histograms

Experiment output is the table(s) plus the pass/fail shape checks each
experiment registers (``repro list``; :mod:`repro.experiments.registry`).
The sampling commands ``cover`` / ``trajectory`` / ``dynamics`` /
``adversary`` share one fleet: ``--workers N`` shards their runs over
local processes and ``--endpoint host:port`` over a broker's worker
fleet (``dynamics`` and ``adversary`` shard only their shared-realisation
runs; results bit-identical to local execution; shard results are
content-address cached under ``REPRO_CACHE_DIR``).  Every execution
command accepts ``--telemetry PATH`` (or ``REPRO_TELEMETRY``) to
stream a structured JSONL trace without perturbing any result.  No
flag selects the per-round kernel: the engine uses numba's
bit-identical kernels by itself where numba is installed and the graph
is large (see :mod:`repro.kernels`).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .experiments.config import SCALES, ExperimentConfig

__all__ = ["main", "build_parser"]


def _ranged(kind, low, high=None):
    """An argparse ``type=`` that parses ``kind`` and keeps it in range."""

    def parse(text: str):
        value = kind(text)
        if high is None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low:g}")
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low:g}, {high:g}]")
        return value

    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _branching(text: str) -> float:
    """An argparse ``type=`` for ``--branching``: a factor make_policy accepts."""
    from .core.branching import make_policy

    try:
        value = float(text)
        make_policy(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction suite for 'Improved Cover Time Bounds for "
        "the Coalescing-Branching Random Walk on Graphs' (SPAA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each shared flag is declared once, on a parent parser.  A child
    # shares its parent's action objects, so a parent carries only the
    # defaults every one of its children wants (hence one sampling
    # parent per default run count).
    #
    # Every execution command: where to stream the JSONL telemetry
    # trace (overrides REPRO_TELEMETRY; see repro.telemetry).
    tel = argparse.ArgumentParser(add_help=False)
    tel.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append a structured JSONL telemetry trace to PATH "
        "(overrides REPRO_TELEMETRY; inspect with 'repro trace summarize'; "
        "results are bit-identical with tracing on or off)",
    )

    # The sampling commands' execution fleet: local worker processes or
    # a broker (--endpoint), plus the degradation mode, installed
    # process-wide via repro.resilience.configure() so every sharded run
    # beneath the command sees it.
    fleet = argparse.ArgumentParser(add_help=False, parents=[tel])
    fleet.add_argument(
        "--workers",
        type=int,
        default=None,
        help="shard the runs over this many worker processes (shared-memory "
        "CSR graph, per-shard spawned seeds; results identical at any "
        "worker count, default: the same shards in this process; dynamics "
        "and adversary shard only runs on a shared realisation)",
    )
    fleet.add_argument(
        "--endpoint",
        default=None,
        metavar="HOST:PORT",
        help="run the shards on a 'repro broker' worker fleet instead of "
        "local processes (results bit-identical; overrides --workers)",
    )
    fleet.add_argument(
        "--fallback",
        default=None,
        choices=("local", "none"),
        help="what to do when the broker is unreachable: 'local' completes "
        "the job with in-process sharded execution (bit-identical "
        "results), 'none' propagates the error (default)",
    )

    # The sampling commands' --runs (default ``runs``), --lazy and --seed.
    def sampling(runs: int) -> argparse.ArgumentParser:
        sampler = argparse.ArgumentParser(add_help=False, parents=[fleet])
        sampler.add_argument("--runs", type=_ranged(int, 1), default=runs)
        sampler.add_argument(
            "--lazy", action="store_true", help="use the lazy variant (bipartite fix)"
        )
        sampler.add_argument("--seed", type=int, default=0)
        return sampler

    branching = argparse.ArgumentParser(add_help=False)
    branching.add_argument("--branching", type=_branching, default=2.0)

    # dynamics and adversary: a base graph evolving under the spread.
    evolving = argparse.ArgumentParser(
        add_help=False, parents=[sampling(20), branching]
    )
    evolving.add_argument(
        "--family",
        choices=("expander", "cycle", "complete", "torus"),
        default="expander",
        help="base-graph family (expander = random 4-regular)",
    )
    evolving.add_argument("--n", type=int, default=64, help="base-graph size")
    evolving.add_argument(
        "--process", choices=("cobra", "bips"), default="cobra",
        help="cobra: cover times; bips: infection times",
    )
    evolving.add_argument(
        "--completion",
        choices=("all-vertices", "all-active"),
        default="all-vertices",
        help="completion criterion: all n vertices, or only the vertices "
        "present in the current snapshot (churn-aware; recommended with "
        "isolating-churn, which removes vertices mid-run)",
    )

    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz and /statusz on this HTTP port "
        "(0 = ephemeral; also REPRO_METRICS_PORT)",
    )

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        """A subcommand whose parsed namespace carries its handler."""
        command_p = sub.add_parser(name, **kwargs)
        command_p.set_defaults(handler=handler)
        return command_p

    command("list", _cmd_list, help="list registered experiments")

    run_p = command(
        "run", _cmd_run, help="run one experiment (or 'all')", parents=[tel]
    )
    run_p.add_argument("experiment", help="experiment id (E1..E17) or 'all'")
    run_p.add_argument("--scale", choices=SCALES, default="quick")
    run_p.add_argument("--seed", type=int, default=ExperimentConfig().seed)
    run_p.add_argument("--workers", type=_ranged(int, 1), default=1)

    info_p = command("graph-info", _cmd_graph_info, help="summarise a named graph")
    info_p.add_argument(
        "spec",
        help="family-parameter spec, e.g. hypercube-7, cycle-64, "
        "complete-32, torus-15x15, rreg-3-128",
    )

    report_p = command(
        "report", _cmd_report, help="run the suite and write the EXPERIMENTS.md record"
    )
    report_p.add_argument("--scale", choices=SCALES, default="full")
    report_p.add_argument("--seed", type=int, default=ExperimentConfig().seed)
    report_p.add_argument("--output", default="EXPERIMENTS.md")

    cover_p = command(
        "cover",
        _cmd_cover,
        help="measure COBRA cover time on a named graph or edge list",
        parents=[sampling(100), branching],
    )
    cover_p.add_argument(
        "spec", help="graph spec (as graph-info) or a path to an edge-list file"
    )
    cover_p.add_argument("--start", type=int, default=0)

    traj_p = command(
        "trajectory",
        _cmd_trajectory,
        help="render a BIPS infection / COBRA coverage trajectory chart",
        parents=[sampling(60)],
    )
    traj_p.add_argument("spec", help="graph spec (as graph-info)")
    traj_p.add_argument(
        "--process", choices=("bips", "cobra"), default="bips",
        help="bips: |A_t| growth; cobra: cumulative coverage",
    )

    dyn_p = command(
        "dynamics",
        _cmd_dynamics,
        help="measure COBRA cover / BIPS infection on a time-evolving graph",
        parents=[evolving],
    )
    dyn_p.add_argument(
        "--kind",
        choices=("rewiring", "edge-markovian", "churn", "frozen"),
        default="rewiring",
        help="evolution model applied to the base graph",
    )
    dyn_p.add_argument(
        "--rate",
        type=_ranged(float, 0, 1),
        default=0.1,
        help="evolution rate per round: fraction of edges swapped "
        "(rewiring), edge death probability (edge-markovian), or vertex "
        "leave probability (churn); 0 freezes the graph",
    )
    dyn_p.add_argument(
        "--independent",
        action="store_true",
        help="draw an independent topology realisation per run (annealed; "
        "one run at a time in this process, so --workers/--endpoint are "
        "rejected) instead of the default, where every run replays one "
        "shared realisation (quenched) and --workers/--endpoint pick "
        "only where the runs execute",
    )

    adv_p = command(
        "adversary",
        _cmd_adversary,
        help="measure worst-case cover/infection against an adaptive "
        "adversary rewiring against the observed frontier",
        parents=[evolving],
    )
    adv_p.add_argument(
        "--kind",
        choices=("greedy-cut", "isolating-churn", "moving-source", "adaptive-rri"),
        default="greedy-cut",
        help="adversary policy (see repro.adversary; moving-source targets "
        "the bips source)",
    )
    adv_p.add_argument(
        "--budget",
        type=_ranged(int, 0),
        default=8,
        help="edges the adversary may rewire (or vertices it may churn) "
        "per round; 0 replays the oblivious baseline bit-for-bit",
    )
    adv_p.add_argument(
        "--rate",
        type=_ranged(float, 0, 1),
        default=0.1,
        help="oblivious double-edge-swap rate underneath the adversary "
        "(fraction of edges attempted per round; 0 = adversary only)",
    )
    adv_p.add_argument(
        "--batched",
        action="store_true",
        help="replay one shared adversarial sequence, the adversary "
        "fighting the joint frontier of each shard's runs (enables "
        "--workers/--endpoint, which pick only where the runs execute) "
        "instead of the default per-run loop, where the adversary fights "
        "each run's own frontier — the worst-case statistic E17 reports",
    )

    status_p = command(
        "status",
        _cmd_status,
        help="query a broker's shard-queue counters and latency metrics",
    )
    status_p.add_argument("endpoint", help="broker endpoint, host:port")
    status_p.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="seconds to wait for the broker before giving up",
    )
    status_p.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="poll the broker every SECONDS, clearing and redrawing the "
        "status panel until interrupted",
    )

    top_p = command(
        "top",
        _cmd_top,
        help="live terminal dashboard over one or more /statusz endpoints "
        "(brokers/workers started with --metrics-port)",
    )
    top_p.add_argument(
        "endpoints",
        nargs="+",
        metavar="ENDPOINT",
        help="metrics endpoint, host:port (the --metrics-port address, "
        "not the broker's task port)",
    )
    top_p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between polls (default 2)",
    )
    top_p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (scripting/CI use)",
    )
    top_p.add_argument(
        "--timeout",
        type=float,
        default=2.0,
        help="per-endpoint HTTP timeout in seconds",
    )
    top_p.add_argument(
        "--fail-on-dead",
        action="store_true",
        help="exit nonzero when an endpoint is unreachable instead of "
        "rendering its last frame as a stale panel",
    )

    trace_p = command(
        "trace", _cmd_trace, help="inspect a JSONL telemetry trace"
    )
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    trace_sum_p = trace_sub.add_parser(
        "summarize",
        help="render a trace's span tree, per-hop breakdown, counters "
        "and hot-round histograms; several per-host files merge into "
        "one stitched tree (exits non-zero on a missing, empty or "
        "malformed trace)",
    )
    trace_sum_p.add_argument(
        "path",
        nargs="+",
        help="JSONL trace file(s) written by --telemetry; multiple "
        "files (client, broker, workers) are merged before summarizing",
    )

    broker_p = command(
        "broker",
        _cmd_broker,
        help="serve the distributed shard queue (lease/heartbeat/requeue)",
        parents=[tel, metrics],
    )
    broker_p.add_argument("--host", default="127.0.0.1")
    broker_p.add_argument("--port", type=int, default=7603)
    broker_p.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help="seconds before an un-heartbeated shard lease is requeued",
    )
    broker_p.add_argument(
        "--max-attempts",
        type=int,
        default=5,
        help="leases a shard may consume before its job is failed",
    )

    worker_p = command(
        "worker",
        _cmd_worker,
        help="serve shards from a broker until it goes away",
        parents=[tel, metrics],
    )
    worker_p.add_argument("endpoint", help="broker endpoint, host:port")
    worker_p.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after this many shards (default: run until the broker "
        "closes the connection)",
    )
    worker_p.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="seconds between lease attempts while the queue is empty",
    )
    return parser


def _graph_from_spec(spec: str):
    from .graphs import (
        complete_graph,
        cycle_graph,
        hypercube_graph,
        margulis_expander,
        path_graph,
        random_regular_graph,
        star_graph,
        torus_graph,
    )

    family, *params = spec.split("-")
    sized = {
        "hypercube": hypercube_graph,
        "cycle": cycle_graph,
        "path": path_graph,
        "star": star_graph,
        "complete": complete_graph,
        "margulis": margulis_expander,
    }
    try:
        if family in sized:
            return sized[family](int(params[0]))
        if family == "torus":
            return torus_graph([int(d) for d in params[0].split("x")])
        if family == "rreg":
            return random_regular_graph(int(params[1]), int(params[0]), rng=1)
    except IndexError:
        raise SystemExit(f"graph spec {spec!r} is missing a parameter")
    except ValueError as exc:
        raise SystemExit(f"bad graph spec {spec!r}: {exc}")
    raise SystemExit(f"unknown graph spec {spec!r}")


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS

    print(f"{'id':5} {'paper anchor':55} title")
    print("-" * 110)
    for key in sorted(EXPERIMENTS, key=lambda k: int(k[1:])):
        spec = EXPERIMENTS[key]
        print(f"{spec.experiment_id:5} {spec.paper_anchor:55} {spec.title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS, get_experiment, run_experiment

    config = ExperimentConfig(seed=args.seed, scale=args.scale, n_workers=args.workers)
    if args.experiment.lower() == "all":
        ids = sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    else:
        try:
            get_experiment(args.experiment)
        except KeyError as exc:
            raise SystemExit(exc.args[0])
        ids = [args.experiment]
    failures = 0
    for experiment_id in ids:
        started = time.perf_counter()
        result = run_experiment(experiment_id, config)
        elapsed = time.perf_counter() - started
        print(result.render())
        print(f"\n[{experiment_id} finished in {elapsed:.1f}s]\n")
        if not result.all_passed:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing checks", file=sys.stderr)
        return 1
    return 0


def _cmd_graph_info(args: argparse.Namespace) -> int:
    from .graphs import spectral_profile, summarize

    g = _graph_from_spec(args.spec)
    summary = summarize(g)
    print(f"{g!r}")
    print(
        f"  n={summary.n} m={summary.m} dmax={summary.dmax} dmin={summary.dmin} "
        f"regular={summary.regular} bipartite={summary.bipartite} "
        f"diameter={summary.diameter}"
    )
    profile = spectral_profile(g)
    print(
        f"  lambda={profile.second_eigenvalue:.4f} gap={profile.gap:.4f} "
        f"lazy_gap={profile.lazy_gap:.4f} phi<={profile.conductance_upper:.4f}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import generate_report

    config = ExperimentConfig(seed=args.seed, scale=args.scale)
    text = generate_report(config)
    Path(args.output).write_text(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from .core import cover_time_samples
    from .graphs import is_bipartite, read_edge_list
    from .stats import mean_ci, whp_quantile
    from .theory import bound_spaa17_general

    if Path(args.spec).exists():
        g = read_edge_list(args.spec)
    else:
        g = _graph_from_spec(args.spec)
    if not 0 <= args.start < g.n:
        raise SystemExit(f"--start must be a vertex of {g.name} (0..{g.n - 1})")
    lazy = args.lazy
    if not lazy and is_bipartite(g):
        print(f"{g.name} is bipartite: enabling the lazy variant automatically")
        lazy = True
    rng = np.random.default_rng(args.seed)
    samples = cover_time_samples(
        g,
        args.start,
        args.runs,
        branching=args.branching,
        lazy=lazy,
        rng=rng,
        workers=args.workers,
        endpoint=args.endpoint,
    )
    mean = mean_ci(samples)
    whp = whp_quantile(samples, rng=rng)
    print(f"{g!r}  start={args.start} b={args.branching:g} lazy={lazy}")
    print(f"  mean cover time : {mean}")
    print(f"  95th percentile : {whp}")
    print(
        f"  Theorem 1.1 bound (constant 1): "
        f"{bound_spaa17_general(g.n, g.m, g.dmax):.1f}"
    )
    _print_cache_stats(args.endpoint)
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    from .analysis.ascii_plots import render_ensemble
    from .core import bips_size_ensemble, cobra_coverage_ensemble
    from .graphs import is_bipartite

    g = _graph_from_spec(args.spec)
    ensemble = bips_size_ensemble if args.process == "bips" else cobra_coverage_ensemble
    print(
        render_ensemble(
            ensemble(
                g,
                runs=args.runs,
                lazy=args.lazy or is_bipartite(g),
                seed=args.seed,
                workers=args.workers,
                endpoint=args.endpoint,
            )
        )
    )
    _print_cache_stats(args.endpoint)
    return 0


def _dynamics_base_graph(args: argparse.Namespace):
    from .graphs import (
        complete_graph,
        cycle_graph,
        random_regular_graph,
        torus_graph,
    )

    n = args.n
    if args.family == "expander":
        return random_regular_graph(n, 4, rng=args.seed + 1000)
    if args.family == "cycle":
        return cycle_graph(n if n % 2 else n + 1)  # odd: non-bipartite
    if args.family == "complete":
        return complete_graph(n)
    side = max(3, round(n**0.5))
    return torus_graph([side, side])


def _sample_and_report(args, title, topology, *, shared, fleet_rule, modes, hint):
    """Sample dynamic cover/infection times and print them: dynamics/adversary.

    ``topology(base)`` returns the command's sequence factory and
    header lines.  ``shared`` hands the samplers one realisation that
    every run replays (quenched; ``--workers``/``--endpoint`` pick only
    the tier), else the factory itself (annealed: one realisation per
    run, in this process; a fleet flag exits with ``fleet_rule``).
    ``modes`` are the execution lines of the two estimators; ``hint``
    follows a run that hit the round cap.
    """
    import numpy as np

    from .dynamics import dynamic_cover_time_samples, dynamic_infection_time_samples
    from .stats import mean_ci, whp_quantile

    if not shared and (args.workers is not None or args.endpoint is not None):
        raise SystemExit(fleet_rule)
    annealed_mode, shared_mode = modes
    cover = args.process == "cobra"
    sample = dynamic_cover_time_samples if cover else dynamic_infection_time_samples
    try:
        base = _dynamics_base_graph(args)
    except ValueError as exc:
        raise SystemExit(f"cannot build a {args.family} base graph: {exc}")
    factory, header = topology(base)
    if shared:
        # Independent topology and process streams: one seed for both
        # would hand round 1's topology stream to shard 0's runs.
        topology_seed, seed = np.random.SeedSequence(args.seed).spawn(2)
        sequence = factory(topology_seed)
        fleet = {"workers": args.workers, "endpoint": args.endpoint}
    else:
        sequence, seed, fleet = factory, args.seed, {}
    try:
        samples = sample(
            sequence,
            args.runs,
            branching=args.branching,
            lazy=args.lazy,
            seed=seed,
            completion=args.completion,
            **fleet,
        )
    except RuntimeError as exc:
        raise SystemExit(f"{exc}\nhint: {hint}")
    stat_rng = np.random.default_rng(args.seed)
    measured = "cover time" if cover else "infection time"
    print(
        "\n  ".join(
            [
                f"{title} {args.process.upper()} on {base!r}",
                *header,
                f"execution : {shared_mode if shared else annealed_mode}",
                f"runs={args.runs} b={args.branching:g} lazy={args.lazy} "
                f"seed={args.seed} completion={args.completion}",
                f"mean {measured:14}: {mean_ci(samples)}",
                f"95th percentile    : {whp_quantile(samples, rng=stat_rng)}",
            ]
        )
    )
    _print_cache_stats(args.endpoint)
    return 0


def _dynamics_sequence_factory(args: argparse.Namespace, base):
    from .dynamics import (
        ChurnSequence,
        EdgeMarkovianSequence,
        FrozenSequence,
        RewiringSequence,
    )

    rate = args.rate
    if args.kind == "frozen" or rate == 0.0:
        return "frozen", lambda topology_seed: FrozenSequence(base)
    if args.kind == "rewiring":
        swaps = max(1, round(rate * base.m))
        return (
            f"rewiring ({swaps} swaps/round)",
            lambda topology_seed: RewiringSequence(base, swaps, seed=topology_seed),
        )
    if args.kind == "edge-markovian":
        # Birth rate chosen so the stationary density equals the base's.
        density = base.m / (base.n * (base.n - 1) / 2)
        birth = min(1.0, rate * density / max(1e-12, 1.0 - density))
        return (
            f"edge-markovian (birth={birth:.4f}, death={rate:g})",
            lambda topology_seed: EdgeMarkovianSequence(
                base, birth, rate, seed=topology_seed
            ),
        )
    return (
        f"churn (leave={rate:g}, rejoin=0.5)",
        lambda topology_seed: ChurnSequence(base, rate, 0.5, seed=topology_seed),
    )


def _cmd_dynamics(args: argparse.Namespace) -> int:
    def topology(base):
        label, factory = _dynamics_sequence_factory(args, base)
        return factory, [f"dynamics  : {label}"]

    return _sample_and_report(
        args,
        "dynamic",
        topology,
        shared=not args.independent,
        fleet_rule="--workers/--endpoint cannot be combined with --independent",
        modes=(
            "independent realisation per run (per-run loop)",
            "one shared realisation, replayed by every run",
        ),
        hint="under heavy churn, full coverage/infection of all n vertices "
        "may be unreachable — lower --rate or pass --completion all-active "
        "(count only currently-present vertices)",
    )


def _cmd_adversary(args: argparse.Namespace) -> int:
    from .adversary import AdversarialSequence, make_adversary

    def topology(base):
        swaps = max(1, round(args.rate * base.m)) if args.rate > 0 else 0
        if base.m < 2:
            raise SystemExit("adversarial rewiring needs at least two edges")

        def factory(topology_seed):
            return AdversarialSequence(
                base,
                make_adversary(args.kind, args.budget),
                topology_seed,
                swaps_per_round=swaps,
            )

        return factory, [
            f"adversary : {args.kind} (budget {args.budget}/round)",
            f"oblivious : {swaps} double-edge swaps/round (rate {args.rate:g})",
        ]

    return _sample_and_report(
        args,
        "adversarial",
        topology,
        shared=args.batched,
        fleet_rule="--workers/--endpoint require --batched",
        modes=(
            "per-run loop (adversary fights each run's own frontier)",
            "one shared adversarial sequence, replayed by each shard's runs",
        ),
        hint="a harsh adversary can push runs past the round cap — lower "
        "--budget, or pass --completion all-active for churn-style "
        "adversaries",
    )


def _status_frame(endpoint: str, counts: dict) -> dict:
    """Adapt a TCP ``status`` reply into the shared panel-frame shape.

    Only what the broker's reply carries: the caller's own cache and
    counters say nothing about the broker.
    """
    core = ("jobs", "pending", "leased", "done", "failed")
    queue = {key: counts.get(key, 0) for key in core}
    for key in sorted(set(counts) - set(core) - {"metrics"}):
        queue[key] = counts[key]
    return {
        "role": "broker",
        "address": endpoint,
        "queue": queue,
        "metrics": counts.get("metrics") or {},
    }


def _redraw(poll, interval: float | None) -> int:
    """Print ``poll()``'s frame once, or redraw it every ``interval`` s.

    ``poll`` returns ``(frame, error)``.  A frame goes to stdout, after
    an ANSI clear + home when redrawing, so the panel redraws instead of
    scrolling; an error goes to stderr and ends the loop with exit 1.
    Ctrl-C and a closed pipe (``--watch 2 | head``, or ``repro trace
    summarize FILE | head``, which prints its one frame here) end it
    with exit 0.
    """
    try:
        while True:
            frame, error = poll()
            if frame is not None:
                if interval is not None:
                    print("\x1b[2J\x1b[H", end="")
                # Flushed here, so a reader that closed the pipe is
                # caught below rather than at the exit-time flush.
                print(frame, flush=True)
            if error is not None:
                print(error, file=sys.stderr)
                return 1
            if interval is None:
                return 0
            time.sleep(max(0.05, interval))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # The pager/head downstream closed the pipe: a clean exit, not
        # an error.  Point stdout at devnull so the interpreter's
        # exit-time flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .distributed import DistributedError, broker_status
    from .telemetry import render_status_panel

    def poll():
        try:
            counts = broker_status(args.endpoint, timeout=args.timeout)
        except DistributedError as exc:
            return None, f"cannot query broker at {args.endpoint}: {exc}"
        return render_status_panel(_status_frame(args.endpoint, counts)), None

    return _redraw(poll, args.watch)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard: poll /statusz endpoints, render stacked panels.

    A dead endpoint degrades to its last reachable frame marked STALE
    (or a one-line unreachable notice if it never answered); only
    ``--fail-on-dead`` turns that into a nonzero exit.
    """
    from .telemetry import fetch_statusz, render_status_panel

    last: dict[str, tuple[dict, float]] = {}

    def poll():
        now = time.monotonic()
        dead: list[str] = []
        panels: list[str] = []
        for endpoint in args.endpoints:
            try:
                payload = fetch_statusz(endpoint, timeout=args.timeout)
                last[endpoint] = (payload, now)
            except (OSError, ValueError) as exc:
                dead.append(endpoint)
                if endpoint not in last:
                    panels.append(f"{endpoint}: unreachable ({exc})")
                    continue
            payload, seen = last[endpoint]
            stale = now - seen if endpoint in dead else None
            panels.append(
                render_status_panel(payload, title=endpoint, stale_s=stale)
            )
        error = None
        if dead and args.fail_on_dead:
            error = f"unreachable endpoint(s): {', '.join(dead)}"
        return "\n\n".join(panels), error

    return _redraw(poll, None if args.once else args.interval)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry import load_traces, render_trace

    try:
        records = load_traces(args.path)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # load_jsonl's line-numbered parse error, or an empty file.
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 1
    return _redraw(lambda: (render_trace(records), None), None)


def _print_cache_stats(endpoint: str | None) -> None:
    """One line of client-side cache traffic after a broker job."""
    if endpoint is None:
        return
    from .telemetry import get_telemetry

    counters = get_telemetry().counters()
    hits = int(counters.get("client.cache.hits", 0))
    misses = int(counters.get("client.cache.misses", 0))
    if hits or misses:
        print(f"  result cache    : {hits} hit(s), {misses} miss(es)")


def _cmd_broker(args: argparse.Namespace) -> int:
    from .distributed import Broker
    from .telemetry import metrics_port_from_env

    broker = Broker(
        args.host,
        args.port,
        lease_timeout=args.lease_timeout,
        max_attempts=args.max_attempts,
    )
    metrics_port = metrics_port_from_env(args.metrics_port)
    live: list = []

    def _ready(b) -> None:
        print(
            f"repro broker listening on {b.address} "
            f"(lease timeout {b.ledger.lease_timeout:g}s, "
            f"max attempts {b.ledger.max_attempts})"
        )
        if metrics_port is not None:
            # Started from the ready callback so the ephemeral-port
            # case can report the bound port next to the task port.
            server = b.serve_metrics(metrics_port, host=args.host)
            live.append(server)
            print(f"repro broker metrics on http://{server.address}/metrics")

    try:
        broker.run_forever(ready=_ready)
    except KeyboardInterrupt:
        pass
    finally:
        for item in live:
            item.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .distributed import DistributedError
    from .distributed.worker import run_worker

    print(f"repro worker attaching to {args.endpoint}")
    try:
        completed = run_worker(
            args.endpoint,
            max_tasks=args.max_tasks,
            poll_interval=args.poll,
            metrics_port=args.metrics_port,
        )
    except KeyboardInterrupt:
        return 0
    except (OSError, DistributedError) as exc:
        print(f"worker cannot serve {args.endpoint}: {exc}", file=sys.stderr)
        return 1
    print(f"worker exiting after {completed} shard(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from .telemetry import configure_from_env, get_telemetry

    args = build_parser().parse_args(argv)
    # --telemetry (or REPRO_TELEMETRY) turns tracing on for the whole
    # command; flushed on every exit path so partial runs still leave
    # a readable JSONL trace.
    configure_from_env(getattr(args, "telemetry", None))
    # --fallback installs the process-wide fallback mode (see
    # repro.resilience.configure) for the broker-reaching commands; the
    # package is imported only when the flag is given.
    fallback = getattr(args, "fallback", None)
    if fallback is not None:
        from .resilience import configure

        configure(fallback=fallback)
    try:
        return args.handler(args)
    finally:
        get_telemetry().flush()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
