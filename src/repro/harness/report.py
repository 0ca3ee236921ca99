"""Plain-text result tables for the experiment harness."""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.common import scaled_duration  # noqa: F401 - bench/ imports it from here


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: Sequence[str], rows: List[Dict[str, Any]]) -> str:
    """Render dict rows as an aligned text table (column order follows
    ``headers``; missing cells render empty)."""
    cells = [[_fmt(row.get(h, "")) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row_cells in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row_cells, widths)))
    return "\n".join(lines)

