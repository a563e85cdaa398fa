"""Deterministic report serialization.

Reports are plain dicts assembled in a fixed order by the computation
code; serialization sorts keys and uses shortest round-trip floats, so a
fixed seed and configuration produce byte-identical files.  Exact scalars
(Fraction / Gaussian-rational entries) serialize as [num, den] pairs via
their field's to_json; no timestamps or machine identifiers ever enter a
report.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational

SCHEMA_VERSION = 1


def jsonable(obj):
    """Recursively convert numbers, numpy values, exact scalars, and arrays
    into JSON-serializable structures ([num, den] for exact values,
    [re, im] for complex)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return [int(obj.numerator), int(obj.denominator)]
    if isinstance(obj, GaussianRational):
        return [[int(obj.re.numerator), int(obj.re.denominator)],
                [int(obj.im.numerator), int(obj.im.denominator)]]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()] if obj.dtype == object \
            else jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def make_report(kind, body: dict) -> dict:
    """The report dict: schema and kind, then the body as given.  Its values
    are converted once, when the report is serialized."""
    return {"schema": SCHEMA_VERSION, "kind": str(kind), **body}


def json_bytes(report: dict) -> bytes:
    return (json.dumps(jsonable(report), indent=2, sort_keys=True,
                       allow_nan=False) + "\n").encode()


def write_json(path, report: dict):
    data = json_bytes(report)
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def csv_bytes(rows, fieldnames) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})
    return buf.getvalue().encode()


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(_csv_cell(v)) for v in value)
    return value


def write_csv(path, rows, fieldnames):
    data = csv_bytes(rows, fieldnames)
    with open(path, "wb") as fh:
        fh.write(data)
    return data
