"""Plain-text plotting for terminal output of the paper's figures.

The benchmark harness and CLI have to convey the *shape* of Figures 4-6
(CDF curves, trend lines) without any plotting dependency, so this module
renders small ASCII charts:

* :func:`line_chart` — one or more named series over a shared x axis, drawn on
  a character grid with per-series markers (used for Figure 5/6 style trends).
* :func:`cdf_chart` — convenience wrapper plotting
  :class:`~repro.metrics.cdf.EmpiricalCDF` objects (Figure 4).
* :func:`sparkline` — a one-line summary of a series, handy in tables.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["line_chart", "cdf_chart", "sparkline"]

_MARKERS = "*+ox#@%&"
#: Plot-area size of :func:`line_chart` in characters (axes and labels are
#: added around it).
WIDTH = 60
HEIGHT = 16
_SPARK_LEVELS = " .:-=+*#%@"


def sparkline(values: Sequence[float], lo: float | None = None, hi: float | None = None) -> str:
    """Render a series as a one-line string of density characters."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        return ""
    lo = float(data.min() if lo is None else lo)
    hi = float(data.max() if hi is None else hi)
    if hi <= lo:
        return _SPARK_LEVELS[-1] * data.size
    scaled = (data - lo) / (hi - lo)
    top = len(_SPARK_LEVELS) - 1
    indices = np.clip((scaled * top).round().astype(int), 0, top)
    return "".join(_SPARK_LEVELS[i] for i in indices)


def line_chart(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str | None = None,
    y_label: str = "",
    x_label: str = "",
    y_min: float | None = None,
    y_max: float | None = None,
) -> str:
    """Render named series as an ASCII line chart.

    Parameters
    ----------
    x:
        Shared x values (must be non-empty and the same length as every series).
    series:
        Mapping series name → y values.  Each series gets its own marker.
    title, y_label, x_label:
        Optional labels.
    y_min / y_max:
        Fix the y range (defaults to the data range padded by 2 %).
    """
    x_arr = np.asarray(list(x), dtype=float)
    if x_arr.size == 0:
        raise ValueError("x must not be empty")
    if not series:
        raise ValueError("at least one series is required")
    for name, ys in series.items():
        if len(ys) != x_arr.size:
            raise ValueError(f"series {name!r} has {len(ys)} points, expected {x_arr.size}")

    all_y = np.concatenate([np.asarray(list(v), dtype=float) for v in series.values()])
    lo = float(all_y.min() if y_min is None else y_min)
    hi = float(all_y.max() if y_max is None else y_max)
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.02 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    x_lo, x_hi = float(x_arr.min()), float(x_arr.max())
    x_span = x_hi - x_lo if x_hi > x_lo else 1.0

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    for series_index, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[series_index % len(_MARKERS)]
        y_arr = np.asarray(list(ys), dtype=float)
        cols = np.clip(((x_arr - x_lo) / x_span * (WIDTH - 1)).round().astype(int), 0, WIDTH - 1)
        rows = np.clip(
            ((hi - y_arr) / (hi - lo) * (HEIGHT - 1)).round().astype(int), 0, HEIGHT - 1
        )
        # Draw line segments by linear interpolation between consecutive points.
        for i in range(x_arr.size - 1):
            c0, c1 = int(cols[i]), int(cols[i + 1])
            r0, r1 = int(rows[i]), int(rows[i + 1])
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for t in range(steps + 1):
                c = round(c0 + (c1 - c0) * t / steps)
                r = round(r0 + (r1 - r0) * t / steps)
                if grid[r][c] == " ":
                    grid[r][c] = "."
        for c, r in zip(cols, rows):
            grid[int(r)][int(c)] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    top_label = f"{hi:.3g}"
    bottom_label = f"{lo:.3g}"
    label_width = max(len(top_label), len(bottom_label), len(y_label))
    for row_index, row in enumerate(grid):
        if row_index == 0:
            prefix = top_label.rjust(label_width)
        elif row_index == HEIGHT - 1:
            prefix = bottom_label.rjust(label_width)
        elif row_index == HEIGHT // 2 and y_label:
            prefix = y_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    axis = " " * label_width + " +" + "-" * WIDTH
    lines.append(axis)
    x_line = f"{x_lo:.3g}".ljust(WIDTH // 2) + f"{x_hi:.3g}".rjust(WIDTH - WIDTH // 2)
    lines.append(" " * (label_width + 2) + x_line)
    if x_label:
        lines.append(" " * (label_width + 2) + x_label.center(WIDTH))
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def cdf_chart(
    cdfs: Dict[str, "EmpiricalCDF"],  # noqa: F821
    title: str | None = None,
    **kwargs,
) -> str:
    """Plot named :class:`~repro.metrics.cdf.EmpiricalCDF` objects sharing a grid."""
    if not cdfs:
        raise ValueError("at least one CDF is required")
    first = next(iter(cdfs.values()))
    series = {}
    for name, cdf in cdfs.items():
        if cdf.grid.shape != first.grid.shape or not np.allclose(cdf.grid, first.grid):
            raise ValueError("all CDFs must share the same grid")
        series[name] = cdf.values
    return line_chart(
        first.grid,
        series,
        title=title,
        y_label="CDF",
        x_label="delay (ms)",
        y_min=kwargs.pop("y_min", 0.0),
        y_max=kwargs.pop("y_max", 1.0),
        **kwargs,
    )
