"""Plain-text table rendering for the evaluation harness."""

from __future__ import annotations

from typing import Any, List, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an ASCII table (the eval modules print these, paper-style)."""
    cells = [[_text(h) for h in headers]] + [[_text(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def line(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    separator = "-+-".join("-" * width for width in widths)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(cells[0]))
    out.append(separator)
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out)


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.1f}"
    if value is None:
        return ""
    return str(value)


def check(flag: bool) -> str:
    """The paper's checkmark cells."""
    return "x" if flag else ""
