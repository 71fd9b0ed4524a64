"""Edge-list I/O tests."""

import pytest

from repro.graphs import parse_edge_list, read_edge_list


class TestParse:
    def test_integer_labels_kept(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_integer_gap_allocates_isolated(self):
        g = parse_edge_list("0 5\n")
        assert g.n == 6
        assert g.degree(3) == 0

    def test_string_labels_relabelled(self):
        g = parse_edge_list("alice bob\nbob carol\n")
        assert g.n == 3
        assert g.m == 2

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n0 1  # trailing\n1 2\n")
        assert g.m == 2

    def test_extra_columns_ignored(self):
        g = parse_edge_list("0 1 3.5\n1 2 0.2\n")  # weights dropped
        assert g.m == 2

    def test_negative_integers_treated_as_labels(self):
        g = parse_edge_list("-1 0\n0 1\n")
        assert g.n == 3  # relabelled, not integer ids

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            parse_edge_list("0\n")
        with pytest.raises(ValueError, match="no edges"):
            parse_edge_list("# only a comment\n")


class TestReadFile:
    def test_reads_graph_and_name_from_file(self, tmp_path, petersen):
        path = tmp_path / "petersen.edges"
        path.write_text(
            "# petersen: n=10 m=15\n"
            + "".join(f"{u} {v}\n" for u, v in petersen.edges())
        )
        back = read_edge_list(path)
        assert back == petersen
        assert back.name == "petersen"
