"""Resilience overhead: the no-op fault/retry path must be free.

Times COBRA cover sampling five ways:

* **bare** — ``run_sharded(workers=1)``, resilience hooks present but
  no plan installed (the production default);
* **inert-plan** — identical run with a :class:`FaultPlan` installed
  whose rules target only distributed injection sites, none of which a
  local run reaches: measures the cost of the hook checks themselves;
* **live-on** — identical run with the live observability plane up: a
  :class:`MetricsServer` serving ``/metrics`` in the background, the
  ``--metrics-port`` deployment mode;
* **cached** — cold run with a result cache (one cache write per
  shard);
* **cache-resume** — the same invocation again, fully served from the
  content-addressed cache.

The pytest gates assert (a) bit-identity across every mode, (b) the
<5% overhead contracts: with no faults firing, the inert plan and the
live exporter each cost less than :data:`OVERHEAD_MAX` over the bare
run, and (c) that a resumed run is served entirely from the cache.
The overheads are the median per-pair ratio over :data:`PAIRS`
alternating bare/treated pairs (see :func:`paired_overhead`); a
companion test injects a 10% busy-wait to show the gate trips on a
real cost.

Run with::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full cell, minutes
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # ~20 s
    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -v
"""

from __future__ import annotations

import argparse
import contextlib
import os
import statistics
import sys
import tempfile
import time

import numpy as np

from repro.core.branching import make_policy
from repro.distributed import ResultCache
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.resilience import (
    FaultPlan,
    FaultRule,
    active_fault_plan,
    fault_injection,
)
from repro.telemetry import MetricsServer

N = 4096
RUNS = 256
DEGREE = 8
SEED = 20170724
MAX_SHARD = 64
#: (n, R, max_shard) of the overhead gates and of ``--smoke``: about
#: 40 ms a run, short enough that host-speed drift within one call is
#: small next to the 5% the gates resolve.
SMOKE = (1024, 128, 32)
#: Bare/treated pairs per overhead reading.
PAIRS = 121
#: The inert plan and the live exporter may each cost at most this
#: fraction of the bare run's wall-clock.
OVERHEAD_MAX = 0.05

#: A plan that can never fire locally: every rule is pinned to
#: distributed-tier sites, so a local run pays only the hook checks.
INERT_PLAN = FaultPlan(
    seed=1,
    drop=FaultRule(rate=1.0, sites=("worker.send",)),
    corrupt=FaultRule(rate=1.0, sites=("client.send",)),
    refuse_connections=FaultRule(rate=1.0, sites=("client.connect",)),
)


def build_cell(n: int = N, runs: int = RUNS):
    """The benchmark cell: an expander, a COBRA engine, one-hot starts."""
    graph = random_regular_graph(n, DEGREE, rng=1)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((runs, n), dtype=bool)
    state[:, 0] = True
    return graph, engine, state


def cell_run(n: int, runs: int, max_shard: int):
    """One ``run_sharded(workers=1)`` call on the cell, as a callable."""
    _, engine, state = build_cell(n, runs)
    return lambda **kwargs: engine.run_sharded(
        state, SEED, workers=1, max_shard=max_shard, **kwargs
    )


#: The context each timed mode runs in, entered and left off the clock:
#: the overheads are what a run pays while a plan is installed or the
#: exporter serves, not the one-off cost of installing or starting it.
MODES = {
    "bare": contextlib.nullcontext,
    "inert-plan": lambda: fault_injection(INERT_PLAN),
    "live-on": lambda: MetricsServer(port=0),
}


def timed(run, mode: str = "bare"):
    """Wall seconds and result of one call of *run* in *mode*'s context."""
    with MODES[mode]():
        t0 = time.perf_counter()
        result = run()
        return time.perf_counter() - t0, result


def paired_overhead(run, mode: str, pairs: int = PAIRS) -> float:
    """Median over *pairs* of *mode*'s seconds over bare seconds, minus one.

    Every pair times one bare and one *mode* call of *run* back to back
    and swaps which goes first, so the host's speed drift lands on both
    sides alike instead of on whichever mode a block of repeats
    happened to cover.
    """
    ratios = []
    for pair in range(pairs):
        order = ("bare", mode) if pair % 2 == 0 else (mode, "bare")
        seconds = {side: timed(run, side)[0] for side in order}
        ratios.append(seconds[mode] / seconds["bare"])
    return statistics.median(ratios) - 1.0


def measure(
    n: int = N, runs: int = RUNS, max_shard: int = MAX_SHARD
) -> tuple[list[dict], dict]:
    """Run every mode once; returns (rows, results-by-mode)."""
    run = cell_run(n, runs, max_shard)
    rows: list[dict] = []
    results: dict[str, np.ndarray] = {}

    def row(mode: str, seconds: float, result) -> None:
        rows.append(
            {
                "mode": mode,
                "seconds": round(seconds, 4),
            }
        )
        results[mode] = result.finish_times

    # Untimed warm-up so first-run effects (imports, allocator, kernel
    # selection) don't land in whichever mode happens to run first.
    run()
    for mode in MODES:
        row(mode, *timed(run, mode))
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(f"{tmp}/cache", max_bytes=None)
        for mode in ("cached", "cache-resume"):
            row(mode, *timed(lambda: run(cache=cache)))
    return rows, results


def check_identity(results: dict) -> None:
    """Every mode must reproduce the bare reference exactly."""
    for mode, times in results.items():
        if not np.array_equal(times, results["bare"]):
            raise AssertionError(
                f"{mode} samples differ from the bare reference — the "
                "no-op resilience contract is broken"
            )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_resilience_modes_bit_identical():
    """Gate: inert plan / live-on / cached / resume all equal the bare run."""
    _rows, results = measure(n=512, runs=96, max_shard=16)
    check_identity(results)


def test_inert_plan_overhead_under_five_percent():
    """Gate: with no faults firing, resilience and the exporter cost <5%."""
    run = cell_run(*SMOKE)
    inert_overhead = paired_overhead(run, "inert-plan")
    live_overhead = paired_overhead(run, "live-on")
    assert inert_overhead < OVERHEAD_MAX and live_overhead < OVERHEAD_MAX, (
        f"inert-plan overhead {inert_overhead:+.2%}, live exporter overhead "
        f"{live_overhead:+.2%} (gate < {OVERHEAD_MAX:.0%} each)"
    )


def test_overhead_gate_trips_on_injected_cost():
    """The overhead gate fails on a real cost: a busy-wait of 10% of a run."""
    run = cell_run(*SMOKE)
    extra = 0.10 * statistics.median(timed(run)[0] for _ in range(5))

    def slowed():
        result = run()
        if active_fault_plan() is not None:  # paid on the inert-plan side only
            end = time.perf_counter() + extra
            while time.perf_counter() < end:
                pass
        return result

    overhead = paired_overhead(slowed, "inert-plan")
    assert overhead >= OVERHEAD_MAX, f"10% injected, gate read {overhead:+.2%}"


def test_cache_resume_serves_every_shard():
    """Gate: the resumed run never recomputes (cache hits == shards).

    The cold run starts from an empty cache, so all of its lookups miss
    and every hit belongs to the resume.
    """
    from repro.telemetry import get_telemetry

    tel = get_telemetry()
    before = tel.counters().get("client.cache.hits", 0)
    _rows, results = measure(n=512, runs=96, max_shard=16)
    check_identity(results)
    assert tel.counters().get("client.cache.hits", 0) == before + 6  # 96/16


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure, check identity, and print the table and the overheads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cell (n=1024, R=128, max_shard=32) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n, runs, max_shard = SMOKE if args.smoke else (args.n, args.runs, MAX_SHARD)

    rows, results = measure(n, runs, max_shard)
    check_identity(results)
    run = cell_run(n, runs, max_shard)
    inert_overhead = paired_overhead(run, "inert-plan")
    live_overhead = paired_overhead(run, "live-on")
    print(
        f"COBRA b=2 on rreg-{DEGREE}-{n}, R={runs}, serial shards "
        f"({len(os.sched_getaffinity(0))} CPUs); median of {PAIRS} pairs: "
        f"inert-plan overhead {inert_overhead:+.1%}, live exporter overhead "
        f"{live_overhead:+.1%} (gate < {OVERHEAD_MAX:.0%} each)"
    )
    header = f"{'mode':22} {'seconds':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['mode']:22} {row['seconds']:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
