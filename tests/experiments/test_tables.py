"""Table rendering tests."""

from repro.experiments import Table


class TestTable:
    def test_columns_inferred_in_order(self):
        t = Table(title="t")
        t.add_row(a=1, b=2)
        t.add_row(b=3, c=4)
        assert t.columns == ["a", "b", "c"]

    def test_render_alignment(self):
        t = Table(title="demo")
        t.add_row(name="x", value=1.5)
        t.add_row(name="longer", value=22)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "== demo =="
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_missing_cells_render_dash(self):
        t = Table(title="t")
        t.add_row(a=1)
        t.add_row(b=2)
        out = t.render()
        assert "-" in out.splitlines()[-1]

    def test_float_formatting(self):
        t = Table(title="t")
        t.add_row(x=0.000123, y=1234567.0, z=3.14159, w=True, v=0.0)
        body = t.render().splitlines()[-1]
        assert "0.000123" in body
        assert "1.23e+06" in body
        assert "3.142" in body
        assert "yes" in body

    def test_empty_table(self):
        assert "(empty)" in Table(title="nothing").render()

    def test_column_extraction(self):
        t = Table(title="t")
        t.add_row(a=1, b=2)
        t.add_row(a=3)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2, None]
