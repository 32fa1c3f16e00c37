"""Plain-text / markdown table rendering for benches and examples."""

from __future__ import annotations

from typing import List, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """A padded ASCII table; right-aligns numeric-looking cells."""
    all_rows = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in all_rows)
              for i in range(len(headers))]

    def fmt(row: List[str]) -> str:
        cells = []
        for i, cell in enumerate(row):
            if _numericish(cell) and row is not all_rows[0]:
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        return "| " + " | ".join(cells) + " |"

    separator = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(all_rows[0]))
    lines.append(separator)
    lines.extend(fmt(row) for row in all_rows[1:])
    return "\n".join(lines)


def render_markdown(headers: Sequence[str],
                    rows: Sequence[Sequence[str]]) -> str:
    """GitHub-flavoured markdown table."""
    out = ["| " + " | ".join(map(str, headers)) + " |",
           "|" + "|".join("---" for __ in headers) + "|"]
    out.extend("| " + " | ".join(map(str, row)) + " |" for row in rows)
    return "\n".join(out)


def _numericish(cell: str) -> bool:
    stripped = cell.replace(".", "").replace("-", "").replace("x", "")
    return stripped.isdigit() and cell not in ("-",)

