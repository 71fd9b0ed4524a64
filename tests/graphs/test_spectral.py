"""Spectral toolkit tests against closed-form spectra."""

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    barbell_graph,
    cheeger_bounds,
    complete_graph,
    conductance_of_cut,
    cycle_graph,
    eigenvalue_gap,
    hypercube_graph,
    petersen_graph,
    random_walk_spectrum,
    second_eigenvalue,
    spectral_profile,
    sweep_conductance,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_rows_sum_to_one(self, petersen):
        p = transition_matrix(petersen)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_lazy_rows_sum_to_one(self, petersen):
        p = transition_matrix(petersen, lazy=True)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(np.diag(p) >= 0.5 - 1e-12)

    def test_isolated_vertex_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            transition_matrix(g)


class TestClosedFormSpectra:
    def test_complete_graph(self):
        # K_n: eigenvalues 1 and -1/(n-1); lambda = 1/(n-1).
        n = 8
        assert second_eigenvalue(complete_graph(n)) == pytest.approx(1 / (n - 1))

    def test_cycle(self):
        # C_n: eigenvalues cos(2 pi k / n).  For odd n the largest
        # absolute value among k != 0 is the near -1 one:
        # |cos(pi (n-1)/n)| = cos(pi/n).
        n = 9
        assert second_eigenvalue(cycle_graph(n)) == pytest.approx(
            np.cos(np.pi / n)
        )

    def test_even_cycle_bipartite(self):
        # Bipartite: -1 in the spectrum, so lambda = 1.
        assert second_eigenvalue(cycle_graph(8)) == pytest.approx(1.0)

    def test_hypercube_lazy_gap(self):
        # Q_d eigenvalues 1 - 2k/d; lazy spectrum 1 - k/d; lazy gap 1/d.
        for d in (3, 4, 5):
            assert eigenvalue_gap(hypercube_graph(d), lazy=True) == pytest.approx(
                1.0 / d
            )

    def test_petersen(self):
        # Petersen adjacency eigenvalues 3, 1, -2 -> P eigenvalues
        # 1, 1/3, -2/3; lambda = 2/3.
        assert second_eigenvalue(petersen_graph()) == pytest.approx(2 / 3)

    def test_full_spectrum_sorted_and_bounded(self, petersen):
        vals = random_walk_spectrum(petersen)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert vals[-1] >= -1.0 - 1e-12


class TestSparsePath:
    def test_large_graph_uses_lanczos(self):
        # n > dense limit: exercise the eigsh branch and cross-check a
        # known value (complete graph spectrum is degree-independent).
        g = complete_graph(700)
        assert second_eigenvalue(g) == pytest.approx(1 / 699, abs=1e-6)


class TestConductance:
    def test_cut_by_hand(self):
        # Barbell with k = 3: cutting one clique gives 1 crossing edge,
        # d(S) = 2*3 + 1 = 7.
        g = barbell_graph(3)
        phi = conductance_of_cut(g, [0, 1, 2])
        assert phi == pytest.approx(1 / 7)

    def test_cut_validation(self, k5):
        with pytest.raises(ValueError):
            conductance_of_cut(k5, [])
        with pytest.raises(ValueError):
            conductance_of_cut(k5, list(range(5)))

    def test_sweep_finds_barbell_bottleneck(self):
        g = barbell_graph(6)
        phi, subset = sweep_conductance(g)
        # The bottleneck is the single bridge edge.
        assert phi == pytest.approx(1 / (2 * 15 + 1))
        assert len(subset) == 6

    def test_sweep_is_a_valid_cut(self, petersen):
        phi, subset = sweep_conductance(petersen)
        assert phi == pytest.approx(conductance_of_cut(petersen, subset))

    def test_cheeger_sandwich(self):
        for g in (petersen_graph(), barbell_graph(5), cycle_graph(9)):
            lo, hi = cheeger_bounds(g)
            phi, _ = sweep_conductance(g)
            assert lo - 1e-9 <= phi  # sweep cut can't beat Cheeger's floor
            # phi from the sweep is an upper bound on the true phi; the
            # true phi <= hi, and sweep-phi >= true-phi, so only check
            # ordering of the analytic bounds:
            assert lo <= hi


class TestSpectralProfile:
    def test_profile_consistent(self, petersen):
        prof = spectral_profile(petersen)
        assert prof.gap == pytest.approx(1.0 - prof.second_eigenvalue)
        assert prof.cheeger_lower <= prof.conductance_upper + 1e-9
        assert prof.lazy_gap > 0

    def test_expander_gap_positive(self, expander32):
        assert eigenvalue_gap(expander32) > 0.1
