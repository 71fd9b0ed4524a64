"""Scenario: SIS epidemic with a persistently-infected host (BIPS).

The paper notes BIPS "may be of independent interest since in the
context of epidemics, certain viruses exhibit the property that a
particular host can become persistently infected."  This example runs
that epidemic on a contact network: every individual re-samples b = 2
contacts per round and catches the infection if a contact is infected;
one host never clears it.

It tracks the infection-size trajectory against Lemma 4.1's guaranteed
expected-growth curve and Lemma 5.4's doubling phase schedule, then
reports the time to full infection next to Theorem 1.5's bound.

Run with::

    python examples/epidemic_monitoring.py
"""

import numpy as np

from repro.core import BipsProcess
from repro.graphs import random_regular_graph, second_eigenvalue
from repro.stats import mean_ci
from repro.theory import (
    bound_spaa17_regular,
    expected_growth_curve,
    lemma54_schedule,
)


def main() -> None:
    rng = np.random.default_rng(17)
    g = random_regular_graph(512, 8, rng=rng)
    lam = second_eigenvalue(g)
    gap = 1.0 - lam
    print(f"contact network: {g}   1 - lambda = {gap:.3f}")

    runs = 50
    proc = BipsProcess(g, source=0, branching=2)
    trajectories = []
    times = []
    for _ in range(runs):
        res = proc.run(rng)
        trajectories.append(res.sizes)
        times.append(res.infection_time)
    times = np.array(times)

    # Mean infection-size trajectory vs the lemma's pessimistic curve.
    horizon = max(len(t) for t in trajectories)
    mean_sizes = np.zeros(horizon)
    for t in range(horizon):
        mean_sizes[t] = np.mean(
            [traj[t] if t < len(traj) else g.n for traj in trajectories]
        )
    lemma_curve = expected_growth_curve(g.n, lam, t_max=horizon - 1)

    print(f"\nround  mean infected   Lemma 4.1 floor")
    for t in range(0, horizon, max(1, horizon // 12)):
        print(f"{t:5d}  {mean_sizes[t]:13.1f}   {lemma_curve[t]:15.1f}")

    schedule = lemma54_schedule(g.n, g.dmax, gap)
    print(
        f"\nLemma 5.4 phase schedule: kappa_0 = {schedule.kappa0:.1f}, "
        f"{len(schedule.kappas)} doubling phases, "
        f"budget {schedule.total_rounds:.0f} rounds to reach n/4"
    )

    bound = bound_spaa17_regular(g.n, g.dmax, gap)
    est = mean_ci(times)
    print(f"\ntime to full infection: {est} rounds "
          f"(Theorem 1.5 bound, constant 1: {bound:.0f})")
    print("the mean trajectory dominates the lemma floor at every round: "
          f"{bool(np.all(mean_sizes >= lemma_curve - 1e-9))}")


if __name__ == "__main__":
    main()
