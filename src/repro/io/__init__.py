"""Input/output helpers: plain-text tables, ASCII charts, CSV dumps and JSON serialisation."""

from repro.io.ascii_plot import cdf_chart, line_chart, sparkline
from repro.io.csvout import CsvAppender
from repro.io.serialization import dump_json, load_json, to_jsonable
from repro.io.tables import format_kv, format_table

__all__ = [
    "format_table",
    "format_kv",
    "line_chart",
    "cdf_chart",
    "sparkline",
    "CsvAppender",
    "to_jsonable",
    "dump_json",
    "load_json",
]
