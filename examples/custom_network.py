"""Scenario: analysing your own network from an edge-list file.

A downstream user has a network (here: a small collaboration-style
graph written to a temp file), loads it with the edge-list reader, and
asks the questions this library answers:

* Which start vertex gives the worst-case broadcast time (the paper's
  ``COVER(G) = max_u E[cover(u)]``)?
* How does the spectral profile slot the network into the paper's
  bounds?
* How do exact random-walk hitting times (b = 1) compare with COBRA's
  hit times (b = 2)?

Run with::

    python examples/custom_network.py
"""

import tempfile
from pathlib import Path

from repro.core import (
    cobra_hit_survival_mc,
    random_walk_hitting_time,
    worst_start_cover,
)
from repro.graphs import read_edge_list, spectral_profile, summarize
from repro.theory import bound_spaa17_general

EDGE_LIST = """\
# a two-community collaboration network with a bridge
a1 a2\na1 a3\na2 a3\na1 a4\na2 a4\na3 a4\na4 a5\na5 a6
b1 b2\nb1 b3\nb2 b3\nb1 b4\nb2 b4\nb3 b4\nb4 b5
a6 b5
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.edges"
        path.write_text(EDGE_LIST)
        g = read_edge_list(path, name="collab")

    s = summarize(g)
    print(f"loaded {g}")
    print(f"  diameter={s.diameter} dmax={s.dmax} bipartite={s.bipartite}")
    prof = spectral_profile(g)
    print(f"  {prof}")
    print(
        f"  Theorem 1.1 budget (constant 1): "
        f"{bound_spaa17_general(g.n, g.m, g.dmax):.1f} rounds"
    )

    profile = worst_start_cover(g, runs_per_start=64, seed=11)
    print("\nper-start expected cover time (COVER(G) = worst case):")
    for u, mean in zip(profile.starts.tolist(), profile.means.tolist()):
        marker = "  <- worst" if u == profile.worst_start else ""
        print(f"  start {u:2d}: {mean:6.2f}{marker}")
    print(f"COVER(G) estimate: {profile.cover_of_g:.2f} rounds "
          f"(best start: {profile.best_start()})")

    # Hitting the far corner: random walk exactly vs COBRA empirically.
    src, dst = profile.best_start(), profile.worst_start
    rw = random_walk_hitting_time(g, src, dst)
    curve = cobra_hit_survival_mc(g, src, dst, runs=2000, horizon=200, rng=5)
    cobra_mean = float(curve.probabilities.sum())
    print(f"\nhitting {dst} from {src}:")
    print(f"  random walk (b=1, exact linear solve): {rw:.1f} steps")
    print(f"  COBRA (b=2, Monte Carlo):              {cobra_mean:.1f} rounds")


if __name__ == "__main__":
    main()
