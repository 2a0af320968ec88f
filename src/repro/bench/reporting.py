"""Plain-text tables for the paper's figure experiments.

The paper's figures are line/bar charts; in a terminal we print the same
data as aligned tables so "who wins, by what factor, where crossovers
fall" can be read directly and diffed across runs.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_series"]


def _fmt(value: Any, ndigits: int = 4) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.{ndigits}g}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Sequence[str] | None = None,
    title: str = "",
) -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.rjust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    label: str, xs: Sequence[Any], ys: Sequence[Any], y_name: str = "value"
) -> str:
    """One figure series as 'label: x=y, x=y, ...'."""
    pairs = ", ".join(f"{x}→{_fmt(y)}" for x, y in zip(xs, ys))
    return f"{label} [{y_name}]: {pairs}"
