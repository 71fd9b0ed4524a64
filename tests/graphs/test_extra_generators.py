"""Tests for the extended graph families (clique ring, caterpillar)."""

import pytest

from repro.graphs import (
    caterpillar_graph,
    diameter,
    ring_of_cliques,
    sweep_conductance,
)


class TestRingOfCliques:
    def test_structure(self):
        g = ring_of_cliques(4, 5)
        assert g.n == 20
        assert g.m == 4 * 10 + 4  # clique edges + bridges
        assert g.is_connected()

    def test_low_conductance(self):
        # More cliques / bigger cliques -> smaller conductance.
        phi_small, _ = sweep_conductance(ring_of_cliques(4, 4))
        phi_large, _ = sweep_conductance(ring_of_cliques(8, 8))
        assert phi_large < phi_small

    def test_diameter_scales_with_ring(self):
        assert diameter(ring_of_cliques(8, 4)) > diameter(ring_of_cliques(3, 4))

    def test_error(self):
        with pytest.raises(ValueError):
            ring_of_cliques(2, 4)
        with pytest.raises(ValueError):
            ring_of_cliques(4, 2)


class TestCaterpillar:
    def test_structure(self):
        g = caterpillar_graph(4, 3)
        assert g.n == 16
        assert g.m == 15  # a tree
        assert g.degree(0) == 1 + 3  # spine end: 1 spine edge + 3 legs
        assert g.degree(1) == 2 + 3

    def test_is_tree(self):
        g = caterpillar_graph(6, 2)
        assert g.m == g.n - 1
        assert g.is_connected()

    def test_diameter(self):
        # leaf - spine(0..s-1) - leaf: s + 1 edges.
        assert diameter(caterpillar_graph(5, 2)) == 6

    def test_error(self):
        with pytest.raises(ValueError):
            caterpillar_graph(1, 2)
        with pytest.raises(ValueError):
            caterpillar_graph(3, 0)
