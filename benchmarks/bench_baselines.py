"""Baseline sampling throughput: scalar loops vs batched runs.

Three implementation rungs are compared for push, pull and flooding,
on a random 8-regular expander and a 2-D torus at ``n = 4096``:

* **scalar** — the textbook one-run-at-a-time implementation with a
  Python-level loop over acting vertices, one ``Generator`` call per
  neighbour selection.  This is the "scalar Python loop" rung the
  engine layer replaces; it is timed on a handful of runs and reported
  as per-run throughput.
* **per-run vectorised** — one run at a time, each round one
  vectorised ``sample_neighbors`` call.  This is an *idealised* form
  of the pre-engine samplers (stripped of their per-run connectivity
  revalidation and dispatch overhead) and is reported for
  transparency, not gated: at ``n = 4096`` its rounds are already
  array-sized, so it can match or beat the batched rung on
  push/pull — both are bound by the same neighbour-sampling work.
  Against the *actual* replaced samplers, batching measured 2–4×
  faster at experiment scale (``n ≤ 1024``, the E9 regime) and parity
  at ``n = 4096``.
* **batched** — all 256 runs advance together: push and pull inside
  one ``(R, n)`` boolean program via :mod:`repro.engine`, flooding as
  one multi-source BFS packed 64 runs per word
  (:func:`repro.graphs.properties.eccentricities`, behind
  :func:`repro.baselines.flooding_broadcast_times`).

The acceptance gate asserts the batched rung beats the scalar rung
by ≥ 10× per-run on every protocol/graph cell.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_baselines.py -v
    PYTHONPATH=src python benchmarks/bench_baselines.py   # table output
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines import (
    flooding_broadcast_times,
    pull_broadcast_samples,
    push_broadcast_samples,
)
from repro.graphs import random_regular_graph, torus_graph
from repro.graphs.properties import eccentricity

N = 4096
BATCH_RUNS = 256
SCALAR_RUNS = 4
SPEEDUP_FLOOR = 10.0


def _graphs():
    return {
        "expander": random_regular_graph(N, 8, rng=1),
        "torus": torus_graph([64, 64]),
    }


# ----------------------------------------------------------------------
# Scalar rung: textbook per-vertex Python loops
# ----------------------------------------------------------------------
def scalar_push_time(graph, start, rng):
    """One push broadcast, one Generator call per sender per round."""
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    t = 0
    while not informed.all():
        t += 1
        for v in np.nonzero(informed)[0]:
            informed[indices[indptr[v] + int(rng.integers(degrees[v]))]] = True
    return t


def scalar_pull_time(graph, start, rng):
    """One pull broadcast, one Generator call per asker per round."""
    indptr, indices, degrees = graph.indptr, graph.indices, graph.degrees
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    t = 0
    while not informed.all():
        t += 1
        before = informed.copy()
        for v in np.nonzero(~before)[0]:
            if before[indices[indptr[v] + int(rng.integers(degrees[v]))]]:
                informed[v] = True
    return t


def scalar_flooding_time(graph, start):
    """One flooding broadcast as a Python frontier loop."""
    indptr, indices = graph.indptr, graph.indices
    informed = np.zeros(graph.n, dtype=bool)
    informed[start] = True
    frontier = [start]
    t = 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in indices[indptr[v] : indptr[v + 1]]:
                if not informed[w]:
                    informed[w] = True
                    nxt.append(int(w))
        frontier = nxt
        if frontier:
            t += 1
    return t


# ----------------------------------------------------------------------
# Per-run vectorised rung (the pre-engine implementations)
# ----------------------------------------------------------------------
def perrun_push_samples(graph, runs, rng):
    """Pre-engine push sampler: vectorised rounds, one run at a time."""
    out = np.empty(runs, dtype=np.int64)
    for i in range(runs):
        informed = np.zeros(graph.n, dtype=bool)
        informed[0] = True
        t = 0
        while not informed.all():
            t += 1
            senders = np.nonzero(informed)[0]
            informed[graph.sample_neighbors(senders, rng)] = True
        out[i] = t
    return out


def perrun_pull_samples(graph, runs, rng):
    """Pre-engine pull sampler: vectorised rounds, one run at a time."""
    out = np.empty(runs, dtype=np.int64)
    for i in range(runs):
        informed = np.zeros(graph.n, dtype=bool)
        informed[0] = True
        t = 0
        while not informed.all():
            t += 1
            askers = np.nonzero(~informed)[0]
            informed[askers] |= informed[graph.sample_neighbors(askers, rng)]
        out[i] = t
    return out


def perrun_flooding_times(graph, starts):
    """Pre-engine flooding: one vectorised BFS per start."""
    return np.array([eccentricity(graph, int(s)) for s in starts])


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _per_run_seconds(fn, runs):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / runs


def measure_cell(graph, protocol):
    """Return per-run seconds for each rung of one protocol/graph cell."""
    rng = np.random.default_rng(7)
    if protocol == "push":
        scalar = _per_run_seconds(
            lambda: [scalar_push_time(graph, 0, rng) for _ in range(SCALAR_RUNS)],
            SCALAR_RUNS,
        )
        perrun = _per_run_seconds(
            lambda: perrun_push_samples(graph, 16, rng), 16
        )
        batched = _per_run_seconds(
            lambda: push_broadcast_samples(graph, runs=BATCH_RUNS, rng=3),
            BATCH_RUNS,
        )
    elif protocol == "pull":
        scalar = _per_run_seconds(
            lambda: [scalar_pull_time(graph, 0, rng) for _ in range(SCALAR_RUNS)],
            SCALAR_RUNS,
        )
        perrun = _per_run_seconds(
            lambda: perrun_pull_samples(graph, 16, rng), 16
        )
        batched = _per_run_seconds(
            lambda: pull_broadcast_samples(graph, runs=BATCH_RUNS, rng=3),
            BATCH_RUNS,
        )
    else:
        starts = np.arange(BATCH_RUNS, dtype=np.int64) % graph.n
        scalar = _per_run_seconds(
            lambda: [scalar_flooding_time(graph, int(s)) for s in starts[:SCALAR_RUNS]],
            SCALAR_RUNS,
        )
        perrun = _per_run_seconds(
            lambda: perrun_flooding_times(graph, starts[:16]), 16
        )
        batched = _per_run_seconds(
            lambda: flooding_broadcast_times(graph, starts), BATCH_RUNS
        )
    return scalar, perrun, batched


@pytest.mark.parametrize("family", ["expander", "torus"])
@pytest.mark.parametrize("protocol", ["push", "pull", "flooding"])
def test_batched_speedup(family, protocol):
    """Acceptance gate: batched ≥ 10× over the scalar loop, per run."""
    graph = _graphs()[family]
    scalar, perrun, batched = measure_cell(graph, protocol)
    speedup = scalar / batched
    print(
        f"{family}/{protocol}: scalar {scalar * 1e3:.2f} ms/run, "
        f"per-run-vec {perrun * 1e3:.2f} ms/run, "
        f"batched {batched * 1e3:.3f} ms/run -> {speedup:.1f}x vs scalar"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"{family}/{protocol}: batched runs only {speedup:.1f}x faster "
        f"than the scalar loop (floor {SPEEDUP_FLOOR}x)"
    )


def main():
    """Print the full comparison table (script entry point)."""
    print(f"n={N}, batched runs={BATCH_RUNS} (per-run milliseconds)")
    header = f"{'cell':22} {'scalar':>10} {'per-run vec':>12} {'batched':>10} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for family, graph in _graphs().items():
        for protocol in ("push", "pull", "flooding"):
            scalar, perrun, batched = measure_cell(graph, protocol)
            print(
                f"{family + '/' + protocol:22} {scalar * 1e3:10.2f} "
                f"{perrun * 1e3:12.2f} {batched * 1e3:10.3f} "
                f"{scalar / batched:8.1f}x"
            )


if __name__ == "__main__":
    main()
