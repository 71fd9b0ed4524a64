"""Distributed-engine throughput: broker/worker fan-out vs local sharding.

Times COBRA cover sampling on a random regular graph three ways:

* **local** — ``run_sharded(workers=1)``, the serial shard-by-shard
  reference every distributed result must equal bit-for-bit;
* **tcp** — ``run_distributed`` through a localhost broker with
  ``--workers`` worker processes attached, cold result cache (the full
  wire + queue + compute path);
* **tcp+cache** — the identical invocation again, now fully served
  from the content-addressed result cache (measures the cache
  fast-path; no shard executes, and with every shard cached the
  client never even dials the broker).

The pytest gates assert the bit-identity contract and that the warm
cache beats the cold path — robust on any machine, unlike wall-clock
speedups on 1-CPU containers.

Run with::

    PYTHONPATH=src python benchmarks/bench_distributed.py            # full cell
    PYTHONPATH=src python benchmarks/bench_distributed.py --smoke    # seconds
    PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py -v
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import os
import sys
import tempfile
import time

import numpy as np

from repro.core.branching import make_policy
from repro.distributed import Broker, ResultCache
from repro.distributed.worker import run_worker
from repro.engine import CobraRule, SpreadEngine
from repro.graphs import random_regular_graph

N = 4096
RUNS = 512
DEGREE = 8
SEED = 20170724
WORKERS = 2
MAX_SHARD = 64


def build_cell(n: int = N, runs: int = RUNS):
    """The benchmark cell: an expander, a COBRA engine, one-hot starts."""
    graph = random_regular_graph(n, DEGREE, rng=1)
    engine = SpreadEngine(CobraRule(make_policy(2)), graph)
    state = np.zeros((runs, n), dtype=bool)
    state[:, 0] = True
    return graph, engine, state


def _spawn_workers(address: str, count: int) -> list:
    ctx = mp.get_context("fork")
    procs = [
        ctx.Process(
            target=run_worker,
            args=(address,),
            kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        for _ in range(count)
    ]
    for proc in procs:
        proc.start()
    return procs


def measure(
    n: int = N,
    runs: int = RUNS,
    workers: int = WORKERS,
    max_shard: int = MAX_SHARD,
) -> tuple[list[dict], dict]:
    """Measure local vs tcp vs tcp+cache; returns (rows, results).

    ``results`` maps transport name to the sampled finish times, so
    the caller (and the pytest gate) can assert bit-identity across
    every transport.
    """
    _, engine, state = build_cell(n, runs)
    rows: list[dict] = []
    results: dict[str, np.ndarray] = {}

    t0 = time.perf_counter()
    local = engine.run_sharded(state, SEED, workers=1, max_shard=max_shard)
    local_seconds = time.perf_counter() - t0
    rows.append(
        {
            "workers": 1,
            "transport": "local",
            "seconds": round(local_seconds, 4),
        }
    )
    results["local"] = local.finish_times

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        with Broker(lease_timeout=60.0) as broker:
            procs = _spawn_workers(broker.address, workers)
            try:
                t0 = time.perf_counter()
                cold = engine.run_distributed(
                    state,
                    SEED,
                    endpoint=broker.address,
                    max_shard=max_shard,
                    cache=cache,
                )
                cold_seconds = time.perf_counter() - t0

                t0 = time.perf_counter()
                warm = engine.run_distributed(
                    state,
                    SEED,
                    endpoint=broker.address,
                    max_shard=max_shard,
                    cache=cache,
                )
                warm_seconds = time.perf_counter() - t0
            finally:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    proc.join(timeout=5)
    rows.append(
        {
            "workers": workers,
            "transport": "tcp",
            "seconds": round(cold_seconds, 4),
        }
    )
    rows.append(
        {
            "workers": workers,
            "transport": "tcp+cache",
            "seconds": round(warm_seconds, 4),
        }
    )
    results["tcp"] = cold.finish_times
    results["tcp+cache"] = warm.finish_times
    return rows, results


def check_identity(results: dict) -> None:
    """Every transport must reproduce the local reference exactly."""
    for transport, times in results.items():
        if not np.array_equal(times, results["local"]):
            raise AssertionError(
                f"{transport} samples differ from the local reference — "
                "distributed determinism contract broken"
            )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_distributed_bit_identity_smoke():
    """Gate: broker + 2 workers reproduce run_sharded(workers=1) exactly."""
    _rows, results = measure(n=512, runs=96, workers=2, max_shard=16)
    check_identity(results)


def test_warm_cache_beats_cold_path():
    """Gate: the content-addressed cache short-circuits recomputation."""
    rows, results = measure(n=512, runs=96, workers=2, max_shard=16)
    check_identity(results)
    by_transport = {r["transport"]: r["seconds"] for r in rows}
    assert by_transport["tcp+cache"] <= by_transport["tcp"], rows


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure, check bit-identity, and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--workers", type=int, default=WORKERS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cell (n=1024, R=128, max_shard=32) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n, runs, max_shard = (
        (1024, 128, 32) if args.smoke else (args.n, args.runs, MAX_SHARD)
    )

    rows, results = measure(n, runs, args.workers, max_shard=max_shard)
    check_identity(results)
    print(
        f"COBRA b=2 on rreg-{DEGREE}-{n}, R={runs}, broker+{args.workers} "
        f"workers over localhost ({len(os.sched_getaffinity(0))} CPUs)"
    )
    header = f"{'transport':12} {'workers':>8} {'seconds':>9}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['transport']:12} {row['workers']:>8} {row['seconds']:>9.4f}")
    print("\nbit-identity: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
