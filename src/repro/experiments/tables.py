"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows the paper's (virtual) tables
would contain; this module keeps formatting in one place — fixed-width
aligned columns and numeric rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["Table"]


def _format_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-3:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class Table:
    """An ordered collection of rows (dicts) with a title.

    Columns are taken from the first row unless given explicitly;
    missing cells render as ``-``.
    """

    title: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)

    def add_row(self, **cells: Any) -> None:
        """Append a row; unseen column names are appended in order."""
        for key in cells:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(dict(cells))

    def column(self, name: str) -> list[Any]:
        """Extract one column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        """Fixed-width aligned text rendering."""
        if not self.columns:
            return f"== {self.title} ==\n(empty)"
        cells = [
            [_format_cell(row.get(col, "-")) for col in self.columns]
            for row in self.rows
        ]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(self.columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(self.columns))
        rule = "-" * len(header)
        body = [
            "  ".join(r[i].ljust(widths[i]) for i in range(len(self.columns)))
            for r in cells
        ]
        return "\n".join([f"== {self.title} ==", header, rule, *body])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()
