"""JSON serialisation of experiment results.

Keeps benchmark artifacts reproducible and auditable: a result file records
the configuration, the seed, and every per-run metric, so a published number
can be traced back to the exact inputs that produced it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Union

import numpy as np

__all__ = ["to_jsonable", "dump_json", "load_json"]

PathLike = Union[str, Path]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / NumPy types into JSON-safe values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialise object of type {type(obj)!r} to JSON")


def dump_json(obj: Any, path: PathLike) -> Path:
    """Serialise ``obj`` (via :func:`to_jsonable`) to a JSON file, indented by 2."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_jsonable(obj), indent=2) + "\n")
    return target


def load_json(path: PathLike) -> Any:
    """Load a JSON file written by :func:`dump_json`."""
    return json.loads(Path(path).read_text())
