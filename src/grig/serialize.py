"""The one writer of grig's CSV and JSON artifacts.

Every cell and value goes through json_sanitize: numpy scalars are
unwrapped to their Python equivalents, and non-finite floats become the
strings "nan", "inf", "-inf", the text repr gives them.  So a CSV float
cell is repr(float(x)) and every JSON file parses under json.loads with
allow_nan disabled.  Both writers create the parent directory, and
neither writes a timestamp: the same payload gives the same bytes.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np


def json_sanitize(obj):
    """Recursively convert a payload into strict-JSON-safe values."""
    # the common cells first; a bool or a numpy scalar is neither type
    kind = type(obj)
    if kind is int or (kind is float and math.isfinite(obj)):
        return obj
    if isinstance(obj, dict):
        return {k: json_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [json_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _make_parent(path) -> None:
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)


def write_json(path, payload) -> None:
    """Deterministic strict-JSON file: sorted keys, trailing newline."""
    _make_parent(path)
    with open(path, "w") as fh:
        json.dump(json_sanitize(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """CSV file of a header row and then `rows`, any iterable of rows,
    written one at a time, so a generator over a large cloud is never
    held in full."""
    _make_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(json_sanitize(header))
        writer.writerows(json_sanitize(row) for row in rows)
