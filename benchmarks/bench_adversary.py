"""Adversarial-dynamics throughput: cover-time cost of the adversary.

Times per-run adversarial COBRA cover sampling on a random regular
expander across the adversary catalogue and a greedy-cut budget sweep
— the observation-protocol hot path — as
``(adversary, budget, seconds, cover_rounds)`` rows.

The pytest gates assert the subsystem's two robust contracts rather
than wall-clock numbers: the budget-0 greedy-cut run reproduces the
oblivious :class:`~repro.dynamics.RewiringSequence` samples
bit-for-bit, and raising the greedy-cut budget never speeds cover up.

Run with::

    PYTHONPATH=src python benchmarks/bench_adversary.py            # full cell
    PYTHONPATH=src python benchmarks/bench_adversary.py --smoke    # seconds
    PYTHONPATH=src python -m pytest benchmarks/bench_adversary.py -v
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.adversary import AdversarialSequence, make_adversary
from repro.dynamics import RewiringSequence, dynamic_cover_time_samples
from repro.graphs import random_regular_graph

N = 256
RUNS = 64
DEGREE = 4
SEED = 20170724
OBLIVIOUS_RATE = 0.1
BUDGETS = (0, 2, 8, 32)
KINDS = ("greedy-cut", "isolating-churn", "adaptive-rri")
CATALOGUE_BUDGET = 8


def _factory(base, kind, budget):
    swaps = max(1, round(OBLIVIOUS_RATE * base.m))
    return lambda topology_seed: AdversarialSequence(
        base, make_adversary(kind, budget), topology_seed, swaps_per_round=swaps
    )


def measure(n: int = N, runs: int = RUNS) -> tuple[list[dict], dict]:
    """Time the budget sweep + catalogue; returns (rows, samples).

    ``samples`` maps ``(adversary, budget)`` to the sampled cover
    times, so the pytest gates can assert the anchoring and
    monotonicity contracts on exactly the timed cells.
    """
    base = random_regular_graph(n, DEGREE, rng=1)
    rows: list[dict] = []
    samples: dict[tuple[str, int], np.ndarray] = {}

    def cell(kind, budget, factory, completion="all-vertices"):
        t0 = time.perf_counter()
        times = dynamic_cover_time_samples(
            factory, runs, seed=SEED, completion=completion
        )
        seconds = time.perf_counter() - t0
        samples[(kind, budget)] = times
        rows.append(
            {
                "adversary": kind,
                "budget": budget,
                "seconds": round(seconds, 4),
                "cover_rounds": round(float(times.mean()), 2),
            }
        )

    swaps = max(1, round(OBLIVIOUS_RATE * base.m))
    cell(
        "oblivious",
        0,
        lambda topology_seed: RewiringSequence(base, swaps, seed=topology_seed),
    )
    for budget in BUDGETS:
        cell("greedy-cut", budget, _factory(base, "greedy-cut", budget))
    cell(
        "isolating-churn",
        CATALOGUE_BUDGET,
        _factory(base, "isolating-churn", CATALOGUE_BUDGET),
        completion="all-active",
    )
    cell(
        "adaptive-rri",
        CATALOGUE_BUDGET,
        _factory(base, "adaptive-rri", CATALOGUE_BUDGET),
    )
    return rows, samples


def check_contracts(samples: dict) -> None:
    """Budget-0 anchors the oblivious baseline; budget never helps."""
    if not np.array_equal(
        samples[("greedy-cut", 0)], samples[("oblivious", 0)]
    ):
        raise AssertionError(
            "budget-0 greedy-cut differs from the oblivious RewiringSequence "
            "— the anchoring contract is broken"
        )
    curve = [float(samples[("greedy-cut", b)].mean()) for b in BUDGETS]
    if curve[-1] < curve[0]:
        raise AssertionError(
            f"top greedy-cut budget sped cover up ({curve}) — the "
            "adversary is not adversarial"
        )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_adversary_contracts_smoke():
    """Gate: oblivious anchor + budget monotonicity on a tiny cell."""
    _rows, samples = measure(n=48, runs=16)
    check_contracts(samples)


# ----------------------------------------------------------------------
# script entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    """Measure, check the contracts, and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=N)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cell (n=48, R=16) for CI smoke runs",
    )
    args = parser.parse_args(argv)
    n, runs = (48, 16) if args.smoke else (args.n, args.runs)

    rows, samples = measure(n, runs)
    check_contracts(samples)
    print(
        f"adversarial COBRA b=2 on rreg-{DEGREE}-{n}, R={runs} per cell "
        f"({len(os.sched_getaffinity(0))} CPUs)"
    )
    header = f"{'adversary':16} {'budget':>7} {'seconds':>9} {'cover_rounds':>13}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['adversary']:16} {row['budget']:>7} {row['seconds']:>9.4f} "
            f"{row['cover_rounds']:>13.2f}"
        )
    print("\nanchor + monotonicity: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
