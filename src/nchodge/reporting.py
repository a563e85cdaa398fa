"""Deterministic report serialization.

Reports are plain dicts assembled in a fixed order by the computation
code; serialization sorts keys and uses shortest round-trip floats, so a
fixed seed and configuration produce byte-identical files.  Exact values
enter a report already as JSON ([num, den] pairs from their field's
``matrix_to_json``); no timestamps or machine identifiers ever enter a
report.  One recursive pass converts values where it meets them and writes
what ``json.dumps(..., indent=2, sort_keys=True, allow_nan=False)`` gives
for the converted report: strings quoted by json's C encoder, a list of
plain ints joined at once.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SCHEMA_VERSION = 1
_quote = json.encoder.encode_basestring_ascii


def make_report(kind, body: dict) -> dict:
    """The report dict: schema and kind, then the body as given.  Its values
    are converted once, when the report is serialized."""
    return {"schema": SCHEMA_VERSION, "kind": str(kind), **body}


def json_bytes(report: dict) -> bytes:
    out = []
    _write(report, out, "\n")
    return ("".join(out) + "\n").encode()


def _write(obj, out, nl):
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline and the
    indent ``obj`` starts at.  Lists, the bulk of a report, come first."""
    if isinstance(obj, (list, tuple, set)):
        inner = nl + "  "
        if obj and all(type(v) is int for v in obj):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]" if obj else "[]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out.append(float.__repr__(obj))
    elif isinstance(obj, dict):
        inner, items = nl + "  ", {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + _quote(key) + ": ")
            _write(items[key], out, inner)
            sep = "," + inner
        out.append(nl + "}" if items else "{}")
    else:
        _write(_convert(obj), out, nl)


def _convert(obj):
    """A complex or numpy value as the plain value it is written as ([re, im]
    for complex)."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.bool_, np.integer)):
        return obj.item()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


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
