"""ASCII table rendering for benchmark harness output.

The benchmark scripts print the same rows the paper's tables report;
this module keeps that formatting in one place.
"""

from __future__ import annotations

from typing import Any, Sequence


def _cell(value: Any) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return f"{int(value):,}"
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = "") -> str:
    """Render ``rows`` under ``headers`` as a boxed, aligned ASCII table."""
    rendered = [[_cell(v) for v in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match header width")
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    rule = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines = []
    if title:
        lines.append(title)
    lines.append(rule)
    lines.append(fmt_row(list(headers)))
    lines.append(rule)
    lines.extend(fmt_row(row) for row in rendered)
    lines.append(rule)
    return "\n".join(lines)
