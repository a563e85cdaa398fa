"""The one-pass report writer against ``json.dumps`` on converted values."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nchodge import cli, reporting
from nchodge.scalars import GaussianRational


def reference_jsonable(obj):
    """The conversion reports went through before the one-pass writer:
    numbers, numpy values and arrays as JSON-serializable structures ([re,
    im] for complex).  Exact values reach a report as [num, den] lists
    already; an exact scalar is not serializable."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
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
        return [reference_jsonable(v) for v in obj.tolist()] if obj.dtype == object \
            else reference_jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [reference_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def reference_bytes(report) -> bytes:
    return (json.dumps(reference_jsonable(report), indent=2, sort_keys=True,
                       allow_nan=False) + "\n").encode()


finite = st.floats(allow_nan=False, allow_infinity=False)
numpy_scalars = st.one_of(
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128))
small_shapes = hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)
numpy_arrays = st.one_of(
    hnp.arrays(np.int64, small_shapes),
    hnp.arrays(np.float64, small_shapes, elements=finite),
    hnp.arrays(np.complex128, small_shapes,
               elements=st.complex_numbers(allow_nan=False, allow_infinity=False)),
    hnp.arrays(np.bool_, small_shapes))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), finite, st.text(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    numpy_scalars, numpy_arrays)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(st.integers(), max_size=4),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_reference_serializer(value):
    assert reporting.json_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize("value", [
    {"a": [[1, 2], [3, 4]], "b": {2: True, 10: None, "x": ""}},
    [[[[-3, 4], [1, 1]], [[[1, 1], [1, 2]]]]],
    {"empty": [[], {}, (), set()], "ints": [0, -1, 2 ** 80, True, False]},
    {"unicode": "é ☃ \U0001f600 \"quoted\" \\ \n\t\x00"},
    np.arange(6).reshape(2, 3),
    np.array([[1.5, 2, None]], dtype=object),
    [1.0, -0.0, 1e-320, 1.7976931348623157e308, 0.1, np.float32(0.1)],
])
def test_writer_matches_reference_on_report_shapes(value):
    assert reporting.json_bytes(value) == reference_bytes(value)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, {"tol": math.inf}, [[1, 2], [math.nan]],
    complex(math.inf, 0.0), np.float64(math.nan), np.array([1.0, math.inf]),
])
def test_non_finite_floats_raise_value_error(value):
    with pytest.raises(ValueError) as want:
        reference_bytes(value)
    with pytest.raises(ValueError) as got:
        reporting.json_bytes(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [
    object(), {"x": [frozenset()]}, {"f": len}, Fraction(1, 3), {"g": GaussianRational(1, 2)},
    np.array([[Fraction(1, 3), 2]], dtype=object)])
def test_unknown_types_raise_type_error(value):
    with pytest.raises(TypeError, match="into a report") as got:
        reporting.json_bytes(value)
    with pytest.raises(TypeError) as want:
        reference_bytes(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [
    ["nc-report", "--algebra", "dual-numbers", "--nmax", "3"],
    ["nc-report", "--algebra", "m2.json", "--nmax", "1", "--scalar", "gaussian"],
    ["spectral", "--algebra", "z3.json", "--nmax", "2"],
    ["spectral", "--algebra", "two_points.json", "--nmax", "3", "--scalar", "gaussian"],
    ["spectral", "--algebra", "dual_numbers.json", "--nmax", "3", "--scalar", "float"],
    ["hodge", "--complex", "circle_alpha_-1_N8.json"],
    ["torsion", "--complex", "circle_alpha_-1_N8.json"],
    ["cs-partition", "--complex", "circle_alpha_-1_N8.json"],
    ["witten-sweep", "--model", "circle_leaves.json", "--phi", "cos-h", "--tau", "0,1"],
    ["morse-scan", "--chart", "cubic-bd", "--n-h", "64", "--n-v", "9"],
    ["morse-scan", "--chart", "constant"],               # exit 2, report still written
    ["gv", "--omega", "sin-z", "--n", "16"],
    ["torsion", "--complex", "no-such-file.json"],      # the error payload
])
@pytest.mark.parametrize("to_file", [False, True])
def test_cli_bytes_match_reference_serializer(tmp_path, monkeypatch, capsys, argv,
                                              to_file):
    written = capture_reports(monkeypatch)
    out = tmp_path / "report.json"
    code = cli.main(argv + (["--out", str(out)] if to_file else []))
    streams = capsys.readouterr()
    [report] = written
    if code == 1:
        data = streams.err.encode()
    else:
        data = out.read_bytes() if to_file else streams.out.encode()
    assert data == reference_bytes(report)


def capture_reports(monkeypatch):
    """Record each dict handed to ``json_bytes``; serialize it as before."""
    real, written = reporting.json_bytes, []

    def recording(report):
        written.append(report)
        return real(report)

    monkeypatch.setattr(reporting, "json_bytes", recording)
    return written
