"""Unit tests for the graph family generators."""

import pytest

from repro.graphs import (
    barbell_graph,
    binary_tree,
    complete_graph,
    cycle_graph,
    diameter,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    is_bipartite,
    lollipop_graph,
    margulis_expander,
    path_graph,
    petersen_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
)


class TestCompleteGraph:
    def test_structure(self):
        g = complete_graph(7)
        assert g.n == 7
        assert g.m == 21
        assert g.is_regular() and g.dmax == 6
        assert diameter(g) == 1

    def test_too_small(self):
        with pytest.raises(ValueError):
            complete_graph(1)


class TestCycleAndPath:
    def test_cycle(self):
        g = cycle_graph(8)
        assert g.n == 8 and g.m == 8
        assert g.is_regular() and g.dmax == 2
        assert diameter(g) == 4
        assert is_bipartite(g)
        assert not is_bipartite(cycle_graph(7))

    def test_path(self):
        g = path_graph(6)
        assert g.m == 5
        assert diameter(g) == 5
        assert g.degrees.tolist() == [1, 2, 2, 2, 2, 1]

    def test_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)
        with pytest.raises(ValueError):
            path_graph(1)


class TestStarAndTree:
    def test_star(self):
        g = star_graph(9)
        assert g.degree(0) == 8
        assert all(g.degree(i) == 1 for i in range(1, 9))
        assert diameter(g) == 2

    def test_binary_tree(self):
        g = binary_tree(3)
        assert g.n == 15
        assert g.m == 14
        assert g.degree(0) == 2
        # Leaves are the last 8 vertices.
        assert all(g.degree(i) == 1 for i in range(7, 15))

    def test_errors(self):
        with pytest.raises(ValueError):
            star_graph(1)
        with pytest.raises(ValueError):
            binary_tree(0)


class TestLattices:
    def test_grid_2d(self):
        g = grid_graph([3, 4])
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert diameter(g) == 5

    def test_torus_regularity(self):
        g = torus_graph([4, 5])
        assert g.is_regular() and g.dmax == 4
        assert g.m == 2 * g.n

    def test_torus_3d(self):
        g = torus_graph([3, 3, 3])
        assert g.is_regular() and g.dmax == 6

    def test_grid_matches_networkx(self):
        import networkx as nx

        ours = grid_graph([4, 4])
        theirs = nx.grid_2d_graph(4, 4)
        assert ours.m == theirs.number_of_edges()
        assert sorted(d for _, d in theirs.degree()) == sorted(
            ours.degrees.tolist()
        )

    def test_errors(self):
        with pytest.raises(ValueError):
            grid_graph([1, 4])
        with pytest.raises(ValueError):
            torus_graph([2, 4])


class TestHypercube:
    def test_structure(self):
        g = hypercube_graph(4)
        assert g.n == 16
        assert g.is_regular() and g.dmax == 4
        assert g.m == 16 * 4 // 2
        assert diameter(g) == 4
        assert is_bipartite(g)

    def test_neighbors_differ_one_bit(self):
        g = hypercube_graph(5)
        for u in range(g.n):
            for v in g.neighbors(u):
                diff = u ^ int(v)
                assert diff and (diff & (diff - 1)) == 0  # power of two

    def test_error(self):
        with pytest.raises(ValueError):
            hypercube_graph(0)


class TestRandomRegular:
    @pytest.mark.parametrize("n,r", [(16, 3), (64, 4), (64, 8), (50, 16)])
    def test_regular_connected(self, n, r):
        g = random_regular_graph(n, r, rng=99)
        assert g.is_regular() and g.dmax == r
        assert g.m == n * r // 2
        assert g.is_connected()

    def test_determinism(self):
        a = random_regular_graph(32, 3, rng=5)
        b = random_regular_graph(32, 3, rng=5)
        assert a == b

    def test_parity_rejected(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_graph(7, 3)

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            random_regular_graph(10, 2)
        with pytest.raises(ValueError):
            random_regular_graph(10, 10)


class TestErdosRenyi:
    def test_default_connected(self):
        g = erdos_renyi_graph(50, rng=3)
        assert g.is_connected()
        assert g.n == 50

    def test_dense(self):
        g = erdos_renyi_graph(20, 0.9, rng=4)
        assert g.m > 100

    def test_p_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 0.0)
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)


class TestLowConductanceFamilies:
    def test_barbell(self):
        g = barbell_graph(5)
        assert g.n == 10
        assert g.m == 2 * 10 + 1
        assert g.is_connected()
        assert not g.is_regular()

    def test_lollipop(self):
        g = lollipop_graph(5, 4)
        assert g.n == 9
        assert g.m == 10 + 4
        assert diameter(g) >= 4

    def test_errors(self):
        with pytest.raises(ValueError):
            barbell_graph(2)
        with pytest.raises(ValueError):
            lollipop_graph(3, 0)


class TestExpanders:
    def test_margulis_connected_near_regular(self):
        g = margulis_expander(6)
        assert g.n == 36
        assert g.is_connected()
        assert g.dmax <= 8

    def test_margulis_has_constant_gap(self):
        from repro.graphs import eigenvalue_gap

        # The MGG expander family has a constant spectral gap; check it
        # does not collapse as the side grows.
        gaps = [eigenvalue_gap(margulis_expander(s)) for s in (6, 10, 14)]
        assert min(gaps) > 0.05

    def test_error(self):
        with pytest.raises(ValueError):
            margulis_expander(1)


class TestPetersen:
    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.m == 15
        assert g.is_regular() and g.dmax == 3
        assert diameter(g) == 2
