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

Every invocation appends ``(n, R, mode, seconds)`` rows to
``BENCH_resilience.json`` via :mod:`benchmarks.record`.  The pytest
gates assert (a) bit-identity across every mode and (b) the <5%%
overhead contracts: with no faults firing, the median inert-plan run
stays within 5%% of the median bare run, and so does the median
live-on run (exporter on vs off).

Run with::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full cell
    PYTHONPATH=src python benchmarks/bench_resilience.py --smoke   # seconds
    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -v
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time

import numpy as np
from record import machine_context, record_bench

from repro.core.branching import make_policy
from repro.distributed import ResultCache
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.resilience import FaultPlan, FaultRule, fault_injection
from repro.telemetry import MetricsServer
from repro.telemetry.compare import LIVE_OVERHEAD_MAX, RESILIENCE_OVERHEAD_MAX

N = 4096
RUNS = 256
DEGREE = 8
SEED = 20170724
MAX_SHARD = 64
REPEATS = 3

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


def _timed(fn, repeats: int = REPEATS) -> tuple[float, object]:
    """Median wall-clock of *repeats* calls, plus the last result."""
    samples = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), result


def measure(
    n: int = N,
    runs: int = RUNS,
    max_shard: int = MAX_SHARD,
    repeats: int = REPEATS,
) -> tuple[list[dict], dict]:
    """Measure all four modes; returns (rows, results-by-mode)."""
    _, engine, state = build_cell(n, runs)
    rows: list[dict] = []
    results: dict[str, np.ndarray] = {}
    # Untimed warmup so first-run effects (imports, allocator, kernel
    # selection) don't land in whichever mode happens to run first.
    engine.run_sharded(state, SEED, workers=1, max_shard=max_shard)

    def row(mode: str, seconds: float) -> None:
        rows.append(
            {
                "n": n,
                "R": runs,
                "mode": mode,
                "seconds": round(seconds, 4),
            }
        )

    bare_s, bare = _timed(
        lambda: engine.run_sharded(state, SEED, workers=1, max_shard=max_shard),
        repeats,
    )
    row("bare", bare_s)
    results["bare"] = bare.finish_times

    def inert():
        with fault_injection(INERT_PLAN):
            return engine.run_sharded(
                state, SEED, workers=1, max_shard=max_shard
            )

    inert_s, inert_result = _timed(inert, repeats)
    row("inert-plan", inert_s)
    results["inert-plan"] = inert_result.finish_times

    # Steady-state live-plane cost: the server runs across the timed
    # region (the deployment shape — it lives for the process, not per
    # job), so its one-off start/stop cost is not measured.
    with MetricsServer(port=0):
        live_s, live_result = _timed(
            lambda: engine.run_sharded(
                state, SEED, workers=1, max_shard=max_shard
            ),
            repeats,
        )
    row("live-on", live_s)
    results["live-on"] = live_result.finish_times

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(f"{tmp}/cache", max_bytes=None)
        t0 = time.perf_counter()
        cold = engine.run_sharded(
            state, SEED, workers=1, max_shard=max_shard, cache=cache
        )
        row("cached", time.perf_counter() - t0)
        results["cached"] = cold.finish_times

        t0 = time.perf_counter()
        warm = engine.run_sharded(
            state, SEED, workers=1, max_shard=max_shard, cache=cache
        )
        row("cache-resume", time.perf_counter() - t0)
        results["cache-resume"] = warm.finish_times
    return rows, results


def check_identity(results: dict) -> None:
    """Every mode must reproduce the bare reference exactly."""
    for mode, times in results.items():
        if not np.array_equal(times, results["bare"]):
            raise AssertionError(
                f"{mode} samples differ from the bare reference — the "
                "no-op resilience contract is broken"
            )


def overhead_fraction(rows: list[dict], mode: str = "inert-plan") -> float:
    """(*mode* - bare) / bare, from the recorded rows."""
    by_mode = {r["mode"]: r["seconds"] for r in rows}
    bare = by_mode["bare"]
    return (by_mode[mode] - bare) / bare if bare > 0 else 0.0


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_resilience_modes_bit_identical():
    """Gate: inert plan / cached / resume all equal the bare run."""
    rows, results = measure(n=512, runs=96, max_shard=16, repeats=1)
    check_identity(results)
    record_bench(
        "resilience", rows, meta={"cell": "smoke", "gate": "bit-identity"}
    )


def test_inert_plan_overhead_under_five_percent():
    """Gate: with no faults firing, resilience costs <5% wall-clock.

    Recorded to a throwaway trajectory, then asserted through the
    comparator's ``evaluate_gates`` — the same code path
    ``repro bench compare`` runs on every committed entry.
    """
    from repro.telemetry import evaluate_gates, load_bench

    rows, _results = measure(n=1024, runs=128, max_shard=32, repeats=5)
    overhead = overhead_fraction(rows)
    live_overhead = overhead_fraction(rows, "live-on")
    with tempfile.TemporaryDirectory() as tmp:
        path = record_bench(
            "resilience",
            rows,
            meta={
                "cell": "gate",
                "overhead_fraction": round(overhead, 4),
                "live_overhead_fraction": round(live_overhead, 4),
            },
            root=tmp,
        )
        gates = evaluate_gates(load_bench(path))
    assert gates, "resilience gate did not evaluate on the recorded entry"
    failed = [g for g in gates if g.regressed]
    assert not failed, f"resilience gate failed: {failed}; rows: {rows}"


def test_cache_resume_serves_every_shard():
    """Gate: the resumed run never recomputes (cache hits == shards).

    The cold run starts from an empty cache, so all of its lookups miss
    and every hit belongs to the resume.
    """
    from repro.telemetry import get_telemetry

    tel = get_telemetry()
    before = tel.counters().get("client.cache.hits", 0)
    _rows, results = measure(n=512, runs=96, max_shard=16, repeats=1)
    check_identity(results)
    assert tel.counters().get("client.cache.hits", 0) == before + 6  # 96/16


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure, print the table, and append to BENCH_resilience.json."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cell (n=1024, R=128, max_shard=32) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n, runs, max_shard = (
        (1024, 128, 32) if args.smoke else (args.n, args.runs, MAX_SHARD)
    )

    rows, results = measure(n, runs, max_shard=max_shard)
    check_identity(results)
    overhead = overhead_fraction(rows)
    live_overhead = overhead_fraction(rows, "live-on")
    ctx = machine_context()
    print(
        f"COBRA b=2 on rreg-{DEGREE}-{n}, R={runs}, serial shards "
        f"({ctx['cpus']} CPUs); inert-plan overhead {overhead:+.1%} "
        f"(gate < {RESILIENCE_OVERHEAD_MAX:.0%}), live exporter overhead "
        f"{live_overhead:+.1%} (gate < {LIVE_OVERHEAD_MAX:.0%})"
    )
    header = f"{'mode':22} {'seconds':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['mode']:22} {row['seconds']:>9.4f}")
    record_bench(
        "resilience",
        rows,
        meta={
            "cell": "smoke" if args.smoke else "full",
            "overhead_fraction": round(overhead, 4),
            "live_overhead_fraction": round(live_overhead, 4),
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
