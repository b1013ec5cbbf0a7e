"""Plain-text table rendering for experiment reports.

The experiment drivers print their results in the same layout as the paper's
tables (rows = configurations / algorithms, columns = metrics) so that a run
of the benchmark harness can be compared against the paper side by side
without any plotting dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_kv"]


def _stringify(value: object, float_format: str) -> str:
    if isinstance(value, float):
        return f"{value:{float_format}}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = ".3f",
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned plain-text table.

    Parameters
    ----------
    headers:
        Column headers.
    rows:
        Iterable of rows; each row must have one entry per header.  Floats are
        formatted with ``float_format``, everything else with ``str``.
    float_format:
        Format spec applied to float cells.
    title:
        Optional title line printed above the table.

    Returns
    -------
    str
        The formatted table (no trailing newline).
    """
    str_rows = []
    for row in rows:
        cells = [_stringify(cell, float_format) for cell in row]
        if len(cells) != len(headers):
            raise ValueError(
                f"row {cells!r} has {len(cells)} cells, expected {len(headers)}"
            )
        str_rows.append(cells)

    widths = [len(str(h)) for h in headers]
    for cells in str_rows:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_line([str(h) for h in headers]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_line(cells) for cells in str_rows)
    return "\n".join(lines)


def format_kv(pairs: dict, title: str | None = None) -> str:
    """Render a dict of scalar values as aligned ``key: value`` lines (floats ``.3f``)."""
    width = max((len(str(k)) for k in pairs), default=0)
    lines = [] if title is None else [title]
    for key, value in pairs.items():
        lines.append(f"{str(key).ljust(width)} : {_stringify(value, '.3f')}")
    return "\n".join(lines)
