"""Kernel throughput: per-round seconds, numpy vs the numba kernels.

Times one engine round (wall seconds / rounds executed) for each rule
that has a faster twin in :mod:`repro.kernels`, at n ∈ {10^4, 10^5}:
**COBRA** and batch **BIPS**, the numpy rules vs the fused ``numba``
CSR kernels (bit-identical, so the comparison is pure wall-clock),
switched the way ``tests/kernels/test_numba_parity.py`` switches them.

The pytest gate asserts the ≥ 10× per-round win of the numba kernel
over numpy for COBRA at n = 10^5 — on machines that actually have
numba (it auto-skips without it, mirroring the sharding gate's CPU
guard); without numba the numba rows are skipped with a note, never
shown as fake rows.

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full grid
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # seconds
    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -v
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np
import pytest

from repro.core.branching import make_policy
from repro.engine import BipsRule, CobraRule, SpreadEngine
from repro.graphs import random_regular_graph
from repro.kernels import dispatch, numba_backend

SIZES = (10_000, 100_000)
RUNS = 32
DEGREE = 8
SEED = 20170724
MAX_ROUNDS = 12
#: The numba cobra stepper must beat numpy by this factor...
SPEEDUP_FLOOR = 10.0
#: ...at problem sizes at least this large (JIT warm-up dominates below).
GATE_N = 100_000

#: rule key -> (numpy rule factory, faster kernel compared against it)
CELLS = {
    "cobra": (lambda: CobraRule(make_policy(2)), "numba"),
    "bips": (lambda: BipsRule(make_policy(2), 0), "numba"),
}


def build_cell(rule_key: str, n: int, runs: int = RUNS):
    """An expander, the rule's engine, and one-hot starts."""
    graph = random_regular_graph(n, DEGREE, rng=1)
    engine = SpreadEngine(CELLS[rule_key][0](), graph)
    state = np.zeros((runs, n), dtype=bool)
    state[:, 0] = True
    return engine, state


def time_kernel(
    engine, state, *, numba: bool = False, max_rounds: int = MAX_ROUNDS
) -> tuple[float, int]:
    """Seconds per executed round (fresh rng per call), with the numba
    kernels switched on or off for the call.

    The round cap keeps the cell in the growth phase where the kernels
    do real work; every kernel runs the identical cap, so the ratio is
    a fair per-round comparison even when none reaches completion.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numba_backend, "AVAILABLE", numba)
        patch.setattr(dispatch, "AUTO_NUMBA_MIN_N", 0)
        t0 = time.perf_counter()
        res = engine.run(state, np.random.default_rng(SEED), max_rounds=max_rounds)
        seconds = time.perf_counter() - t0
    rounds = max(1, int(res.rounds_run))
    return seconds / rounds, rounds


def measure(
    sizes=SIZES, runs: int = RUNS, max_rounds: int = MAX_ROUNDS
) -> tuple[list[dict], list[str]]:
    """Time every rule × size × available kernel; one row per cell.

    Returns ``(rows, skipped)`` where ``skipped`` names the kernels that
    were unavailable (so callers can print the caveat instead of
    silently shrinking the grid).  The faster kernels get one untimed
    warm-up call per cell before the clock starts, so numba's JIT
    compilation is never billed to the per-round figure.
    """
    rows: list[dict] = []
    skipped: list[str] = []
    for rule_key, (_, kernel) in CELLS.items():
        kernel_ok = numba_backend.AVAILABLE
        if not kernel_ok and kernel not in skipped:
            skipped.append(kernel)
        for n in sizes:
            engine, state = build_cell(rule_key, n, runs)
            base_spr, base_rounds = time_kernel(
                engine, state, max_rounds=max_rounds
            )
            rows.append(
                {
                    "rule": rule_key,
                    "backend": "numpy",
                    "n": n,
                    "rounds": base_rounds,
                    "seconds_per_round": round(base_spr, 6),
                    "speedup_vs_numpy": 1.0,
                }
            )
            if not kernel_ok:
                continue
            # Warm-up: compile off the clock.
            time_kernel(engine, state, numba=True, max_rounds=2)
            spr, rounds = time_kernel(
                engine, state, numba=True, max_rounds=max_rounds
            )
            rows.append(
                {
                    "rule": rule_key,
                    "backend": kernel,
                    "n": n,
                    "rounds": rounds,
                    "seconds_per_round": round(spr, 6),
                    "speedup_vs_numpy": round(base_spr / spr, 3),
                }
            )
    return rows, skipped


def gate_speedup(rows: list[dict], rule: str, backend: str, n: int) -> float:
    """The measured speedup for one (rule, backend, n) cell."""
    for row in rows:
        if row["rule"] == rule and row["backend"] == backend and row["n"] == n:
            return row["speedup_vs_numpy"]
    raise KeyError(f"no measured row for {rule}/{backend} at n={n}")


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_backend_rows_cover_numpy_baseline():
    """Cheap shape gate: every cell measures a numpy baseline row."""
    rows, _ = measure(sizes=(2048,), runs=8, max_rounds=4)
    numpy_rules = {r["rule"] for r in rows if r["backend"] == "numpy"}
    assert numpy_rules == set(CELLS)


@pytest.mark.skipif(
    not numba_backend.AVAILABLE,
    reason="compiled-kernel gate needs numba installed",
)
def test_kernel_speedup_gate():
    """Acceptance gate: >= 10x per-round for COBRA under numba at n=1e5."""
    rows, _ = measure(sizes=(GATE_N,))
    assert gate_speedup(rows, "cobra", "numba", GATE_N) >= SPEEDUP_FLOOR, rows


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(SIZES),
        help="graph sizes to time (default: 10000 100000)",
    )
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid (n=4096, R=8, 4 rounds) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    sizes, runs, max_rounds = (
        ((4096,), 8, 4) if args.smoke else (tuple(args.sizes), args.runs, MAX_ROUNDS)
    )

    rows, skipped = measure(sizes, runs, max_rounds)
    print(
        f"kernels on rreg-{DEGREE}-n, R={runs}, "
        f"{max_rounds}-round cells ({len(os.sched_getaffinity(0))} CPUs)"
    )
    header = f"{'rule':7} {'backend':9} {'n':>7} {'s/round':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['rule']:7} {row['backend']:9} {row['n']:>7} "
            f"{row['seconds_per_round']:>10.6f} "
            f"{row['speedup_vs_numpy']:>7.2f}x"
        )
    if skipped:
        print(
            f"note: kernel(s) {skipped} unavailable here — their rows "
            f"were skipped and the >= {SPEEDUP_FLOOR:g}x gate does not run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
