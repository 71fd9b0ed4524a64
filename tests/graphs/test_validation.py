"""Validation helper tests."""

import numpy as np
import pytest

from repro.graphs import Graph, check_vertex, check_vertex_set, require_connected


class TestRequireConnected:
    def test_passes_on_connected(self, petersen):
        require_connected(petersen)  # no raise

    def test_raises_on_disconnected(self):
        g = Graph(4, [(0, 1)])
        with pytest.raises(ValueError, match="connected"):
            require_connected(g)


class TestVertexChecks:
    def test_check_vertex(self, petersen):
        assert check_vertex(petersen, 3) == 3
        assert check_vertex(petersen, np.int64(9)) == 9
        assert check_vertex(petersen, np.uint8(2)) == 2
        with pytest.raises(ValueError):
            check_vertex(petersen, 10)
        with pytest.raises(ValueError):
            check_vertex(petersen, -1)
        # Refused, not truncated to a vertex: a wire task's ids are too.
        for u in (2.9, 3.0, np.float64(3.0), True, np.bool_(True), "3"):
            with pytest.raises(ValueError, match="must be an integer"):
                check_vertex(petersen, u)

    def test_check_vertex_set(self, petersen):
        out = check_vertex_set(petersen, [3, 1, 3])
        assert out.tolist() == [1, 3]
        with pytest.raises(ValueError, match="nonempty"):
            check_vertex_set(petersen, [])
        with pytest.raises(ValueError, match="range"):
            check_vertex_set(petersen, [0, 11])
        assert check_vertex_set(petersen, np.array([4, 2], dtype=np.uint16)).tolist() == [2, 4]
        for vertices in ([1.0, 3.0], [0.5], np.array([True, False])):
            with pytest.raises(ValueError, match="must hold integers"):
                check_vertex_set(petersen, vertices)
