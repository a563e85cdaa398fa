"""End-to-end command line checks: exit codes, report files, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge import cli, exactla, forms, reporting, selftest, spectral
from nchodge.algebra import builtin_algebra
from nchodge.errors import InputError
from nchodge.foliation import builtin_model, resolve_phi
from nchodge.gv import builtin_omega, gv_report
from nchodge.morse import builtin_chart
from nchodge.scalars import field_for
from test_hodge import _refuse_large_eye
from test_reporting import capture_reports, reference_bytes


def run(argv, capsys=None):
    code = cli.main(argv)
    return code


def test_spectral_bundled_algebra(tmp_path):
    out = tmp_path / "report.json"
    code = run(["spectral", "--algebra", "dual_numbers.json", "--nmax", "4",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "spectral" and rep["passed"]
    assert rep["schema"] == 1


def test_torsion_bundled_complex(tmp_path):
    import math
    out = tmp_path / "torsion.json"
    code = run(["torsion", "--complex", "circle_alpha_-1_N8.json",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["log_torsion"] == pytest.approx(-math.log(2.0), abs=1e-9)


def test_nc_report_stock_name(tmp_path):
    out = tmp_path / "nc.json"
    csv = tmp_path / "nc.csv"
    code = run(["nc-report", "--algebra", "dual-numbers", "--nmax", "3",
                "--out", str(out), "--csv", str(csv)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] and rep["degree_dims"] == [2, 2, 2, 2]
    assert "matrices" in rep      # small window, included automatically
    header = csv.read_text().splitlines()[0]
    assert header == "identity,degree,exact_zero,max_abs"


def test_missing_input_is_exit_one(tmp_path, capsys):
    code = run(["torsion", "--complex", str(tmp_path / "nope.json")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["kind"] == "error"
    assert payload["code"] == "cli/InputError"


def test_bad_usage_is_exit_one():
    with pytest.raises(SystemExit) as exc:
        cli.main(["torsion"])          # missing required --complex
    assert exc.value.code == 1


def test_invariant_failure_is_exit_two_with_report(tmp_path):
    out = tmp_path / "const.json"
    code = run(["morse-scan", "--chart", "constant", "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert rep["passed"] is False


def test_nonintegrable_is_exit_one(capsys):
    code = run(["gv", "--omega", "x-dy", "--n", "16"])
    assert code == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "tangential/NotIntegrable"


def _shift_first(value):
    """A k-block corruption adding ``value`` to its (0, 0) entry."""
    def corrupt(block):
        exact = exactla.is_exact(block)
        bump = np.zeros(block.shape, dtype=object if exact else complex)
        bump[0, 0] = value
        return block + (exactla.from_object(bump) if exact else bump)
    return corrupt


@pytest.mark.parametrize("scalar,degree,corrupt,code", [
    # (k^n - 1)(k^(n+1) - 1) no longer annihilates k
    ("rational", 1, _shift_first(Fraction(1, 3)), "spectral/PolynomialRelationViolated"),
    # k = diag(2, 1, 1) at degree 0 makes (1 - k) + P singular
    ("float", 0, _shift_first(1.0), "spectral/SingularOnComplement"),
    # an eigenvalue 1e-7 from 1, inside the cluster tolerance band
    ("float", 0, _shift_first(1e-7), "spectral/NumericalRankAmbiguous"),
    # an eigenvalue 3, no root of unity
    ("rational", 0, _shift_first(Fraction(2)), "spectral/NonUnitRootEigenvalue"),
])
def test_spectral_errors_on_a_corrupted_k_block(monkeypatch, capsys, scalar, degree,
                                                corrupt, code):
    real = spectral.operator_matrices

    def corrupted(window):
        fresh = window._ops is None
        ops = real(window)
        if fresh:   # 1 - k follows k, as the window builds it
            k = ops["k"].blocks[degree] = corrupt(ops["k"].blocks[degree])
            ops["one_minus_k"].blocks[degree] = exactla.eye_like(k) - k
        return ops

    monkeypatch.setattr(spectral, "operator_matrices", corrupted)
    assert run(["spectral", "--algebra", "z3", "--nmax", "3", "--scalar", scalar]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["kind"] == "error" and payload["code"] == code
    assert payload["context"]["degree"] == degree


TINY = _shift_first(Fraction(1, 10 ** 13))    # far inside every float bound


def test_spectral_exact_residual_fails_unless_exactly_zero(monkeypatch, tmp_path):
    real = spectral.greens_operator

    def shift_after(window, degree):
        data = real(window, degree)
        if degree == 1:     # P and G are cached: P no longer commutes with k
            ks = spectral.operator_matrices(window)["k"].blocks
            ks[1] = TINY(ks[1])
        return data

    monkeypatch.setattr(spectral, "greens_operator", shift_after)
    out = tmp_path / "spectral.json"
    assert run(["spectral", "--algebra", "z3", "--nmax", "3", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    commutes = rep["degrees"][1]["residuals"]["P_commutes_k"]
    assert commutes["exact_zero"] is False and 0 < commutes["max_abs"] < 1e-12
    assert rep["degrees"][1]["passed"] is False and rep["passed"] is False


def test_nc_report_exact_identity_fails_unless_exactly_zero(monkeypatch, tmp_path):
    real = forms.operator_matrices

    def shifted(window):
        fresh = window._ops is None
        ops = real(window)
        if fresh:
            ops["k"].blocks[1] = TINY(ops["k"].blocks[1])
        return ops

    monkeypatch.setattr(forms, "operator_matrices", shifted)
    out = tmp_path / "nc.json"
    assert run(["nc-report", "--algebra", "z3", "--nmax", "3", "--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    broken = {key for key, rows in rep["identities"].items()
              if not all(r["exact_zero"] for r in rows)}
    assert broken == {"kd_commute", "kb_commute", "k_pow_fixes_d", "k_pow_n",
                      "k_pow_n_plus_one", "cyclic_annihilator"}
    assert all(r["max_abs"] < 1e-12 for rows in rep["identities"].values() for r in rows)
    assert rep["passed"] is False


def test_witten_sweep_with_taus(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(["witten-sweep", "--model", "circle-leaves", "--phi", "cos-h",
                "--tau", "0,1", "--tau", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["taus"] == [0.0, 1.0, 5.0]
    assert rep["passed"]


def test_cli_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["witten-sweep", "--model", "circle-leaves",
                    "--phi", "random", "--seed", "9", "--tau", "0,2",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gv_custom_omega_file(tmp_path):
    import numpy as np
    from nchodge.gv import builtin_omega
    fields = builtin_omega("sin-z", 16)
    src = tmp_path / "omega.json"
    src.write_text(json.dumps({c: fields[c].tolist() for c in ("x", "y", "z")}))
    out = tmp_path / "gv.json"
    assert run(["gv", "--omega", str(src), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["omega"] == "custom" and rep["passed"]


def test_selftest_quick(tmp_path, monkeypatch, capsys):
    written = capture_reports(monkeypatch)
    monkeypatch.setattr(selftest, "RANDOM_TRIPLES", 5)
    monkeypatch.setattr(selftest, "RANDOM_COMPLEXES", 3)
    monkeypatch.setattr(selftest, "GV_GRID", 16)
    out = tmp_path / "self.json"
    code = run(["selftest", "--out", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert table.count("PASS") == 12
    rep = json.loads(out.read_text())
    assert rep["passed"] and len(rep["criteria"]) == 12
    # the file holds what the reference serializer writes for the report
    assert out.read_bytes() == reference_bytes(written[-1])


@pytest.mark.parametrize("flag,command", [
    ("--algebra", ["nc-report", "--nmax", "2"]),
    ("--complex", ["hodge"]),
    ("--model", ["witten-sweep"]),
])
def test_non_object_json_is_input_error(tmp_path, capsys, flag, command):
    src = tmp_path / "list.json"
    src.write_text("[1, 2]")
    assert run(command + [flag, str(src)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "cli/InputError"


def test_nan_differential_is_structured_error(tmp_path, capsys):
    src = tmp_path / "nan.json"
    src.write_text('{"dims": [2, 1], "differentials": [[[NaN, 1.0]]]}')
    assert run(["hodge", "--complex", str(src)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "hodge-classical/NotAComplex"
    assert payload["context"]["degree"] == 0


def test_one_dimensional_algebra(tmp_path):
    src = tmp_path / "one.json"
    src.write_text('{"dim": 1, "basis": ["e"], "unit": [1], "mul": [[[1]]]}')
    for command in ("nc-report", "spectral"):
        out = tmp_path / f"{command}.json"
        assert run([command, "--algebra", str(src), "--nmax", "3",
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] and rep["degree_dims"] == [1, 0, 0, 0]


_MUL2 = '"mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]'


@pytest.mark.parametrize("fields,scalar,code,key", [
    ('"unit": [1, 0], "mul": 5', "rational", "ShapeMismatch", "mul"),
    ('"unit": [[1, 0], 0], "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]',
     "rational", "ShapeMismatch", "unit"),
    ('"unit": ["a", 0], "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]',
     "rational", "ShapeMismatch", "unit"),
    ('"scalars": "float", "unit": [1, 0], '
     '"mul": [[[1, 0], [0, 1]], [[0, 1], [NaN, 0]]]',
     "float", "NonFiniteEntry", "mul"),
    ('"scalars": "float", "unit": [[1, 1], 0], '
     '"mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]',
     "rational", "ShapeMismatch", "unit"),
    # a finite entry whose cube is not: the float checks would overflow
    *[('"scalars": "%s", "unit": [1, 0], '
       '"mul": [[[1, 0], [0, 1]], [[0, 1], [%s, 0]]]' % (stored, big),
       "float", "NonFiniteEntry", "mul") for stored, big in [("float", "1e300"),
                                                              ("rational", 10 ** 300)]],
    # an entry past the float range, stored float or converted to float
    *[pytest.param('"scalars": "%s", "unit": [%d, 0], %s' % (stored, 10 ** 400, _MUL2),
                   scalar, "ShapeMismatch", "unit", id=f"{stored}-1e400-{scalar}")
      for stored, scalar in [("float", "rational"), ("float", "gaussian"),
                             ("float", "float"), ("rational", "float")]],
    # a gaussian entry is a pair of [num, den] pairs of numbers
    *[('"scalars": "gaussian", "unit": [%s, 0], %s' % (entry, _MUL2),
       "gaussian", "ShapeMismatch", "unit")
      for entry in ("[[1, 1], [0]]", '[["1", 1], [0, 1]]', "[[1, 1, 5], [0, 1]]")],
    # a boolean is not a number, bare or inside a pair, in every stored mode
    *[pytest.param('"scalars": "%s", "unit": [%s, 0], %s' % (stored, entry, _MUL2),
                   stored, "ShapeMismatch", "unit", id=f"{stored}-unit-{entry}")
      for stored, entries in [("rational", ("true", "[true, 1]", "[1, true]")),
                              ("gaussian", ("true", "[true, 1]", "[[1, 1], [true, 1]]")),
                              ("float", ("true", "[1, true]"))]
      for entry in entries],
    *[pytest.param('"scalars": "%s", "unit": [1, 0], '
                   '"mul": [[[1, 0], [0, 1]], [[0, 1], [0, %s]]]' % (stored, entry),
                   scalar, "ShapeMismatch", "mul", id=f"{stored}-mul-{entry}-{scalar}")
      for stored, entry, scalar in [("rational", "false", "rational"),
                                    ("rational", "[false, 1]", "float"),
                                    ("gaussian", "[[false, 1], [0, 1]]", "gaussian"),
                                    ("float", "[false, 0]", "rational")]],
])
def test_malformed_algebra_is_structured_error(tmp_path, capsys, fields,
                                               scalar, code, key):
    src = tmp_path / "alg.json"
    src.write_text('{"dim": 2, "basis": ["1", "x"], %s}' % fields)
    assert run(["nc-report", "--algebra", str(src), "--nmax", "2",
                "--scalar", scalar]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "algebra-core/" + code
    assert payload["context"]["key"] == key


@pytest.mark.parametrize("scalars", ['"decimal"', '["float"]', "{}"])
def test_unknown_scalars_field_is_input_error(tmp_path, capsys, scalars):
    src = tmp_path / "alg.json"
    src.write_text('{"dim": 2, "basis": ["1", "x"], "scalars": %s, "unit": [1, 0], %s}'
                   % (scalars, _MUL2))
    assert run(["nc-report", "--algebra", str(src), "--nmax", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "algebra-core/ShapeMismatch"
    assert payload["context"] == {"key": "scalars"}


@pytest.mark.parametrize("text,key", [
    ('{"dim": null, "basis": ["1", "x"], "unit": [1, 0], "mul": 5}', "dim"),
    ('{"dim": [2], "basis": ["1", "x"], "unit": [1, 0], "mul": 5}', "dim"),
    # dim is a JSON integer: not a float, integral or not, a string or a bool
    *[('{"dim": %s, "basis": ["1", "x"], "unit": [1, 0], %s}' % (dim, _MUL2), "dim")
      for dim in ("2.7", "2.0", '"2"', "true")],
    # a dim the lists do not have fails on their lengths, before allocating
    ('{"dim": 3000000000000000, "basis": ["1", "x"], "unit": [1, 0], %s}' % _MUL2, "unit"),
    ('{"dim": 2, "basis": 5, "unit": [1, 0], "mul": 5}', "basis"),
    ('{"name": [1], "dim": 2, "basis": ["1", "x"], "unit": [1, 0], '
     '"mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}', "name"),
    ('{"dim": 0, "basis": [], "unit": [], "mul": []}', "dim"),
    ('{"dim": 2, "basis": ["1", "x"], "unit": [1, 0]}', "mul"),
    ('{"basis": ["1", "x"], "unit": [1, 0], %s}' % _MUL2, "dim"),
])
def test_malformed_algebra_header_is_structured_error(tmp_path, capsys, text, key):
    src = tmp_path / "alg.json"
    src.write_text(text)
    assert run(["nc-report", "--algebra", str(src), "--nmax", "2"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "algebra-core/ShapeMismatch"
    assert payload["context"]["key"] == key


@pytest.mark.parametrize("text,code,key", [
    ('{"dims": [null, 2], "differentials": [[[1]]]}', "NotAComplex", "dims"),
    ('{"dims": [1, 1], "differentials": 5}', "NotAComplex", "differentials"),
    ('{"dims": [1, 1], "differentials": [5]}', "NotAComplex", "differentials"),
    ('{"dims": [1, 1], "differentials": [[[1]]], "gram": 5}', "BadGram", "gram"),
    ('{"dims": [1, 1], "differentials": [[[null]]]}', "NotAComplex", "differentials"),
    ('{"dims": [1, 1, 1], "differentials": [[[1e300]], [[1e300]]]}', "NotAComplex", None),
    ('{"dims": [1], "differentials": [], "name": [1, 2]}', "NotAComplex", "name"),
])
def test_malformed_complex_is_structured_error(tmp_path, capsys, text, code, key):
    src = tmp_path / "cx.json"
    src.write_text(text)
    assert run(["hodge", "--complex", str(src)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "hodge-classical/" + code
    assert payload["context"].get("key") == key


def test_identity_gram_past_memory_is_structured_error(tmp_path, capsys, monkeypatch):
    _refuse_large_eye(monkeypatch, 6000)
    src = tmp_path / "cx.json"
    src.write_text('{"dims": [6000, 0], "differentials": [[]], "gram": [2, null]}')
    assert run(["hodge", "--complex", str(src)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "hodge-classical/NotAComplex"
    assert payload["context"] == {"key": "dims", "degree": 0}


@pytest.mark.parametrize("dims", ["[-1, 1]", "[1, -2]", "[true, 1]", "[1.0, 1]", "[]",
                                  # past numpy's array size limit
                                  "[%d, 0]" % 2 ** 70, "[%d]" % 10 ** 20])
def test_bad_complex_dims_are_rejected_before_the_differentials(tmp_path, capsys, dims):
    src = tmp_path / "cx.json"
    src.write_text('{"dims": %s, "differentials": [[]]}' % dims)
    assert run(["hodge", "--complex", str(src)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "hodge-classical/NotAComplex"
    assert payload["context"] == {"key": "dims"}


CIRCLE = ["--complex", "circle_alpha_-1_N8.json"]
TOLERANCE_FLAGS = (
    [("spectral", ["--algebra", "z3", "--nmax", "1"], flag)
     for flag in ("--cluster-tol", "--root-tol", "--rank-tol", "--crt-tol")]
    + [(cmd, CIRCLE, "--rel-tol") for cmd in ("hodge", "torsion", "cs-partition")]
    + [("witten-sweep", ["--model", "circle_leaves.json"], "--rel-tol"),
       ("morse-scan", [], "--tol"),
       ("gv", ["--n", "8"], "--tol"), ("gv", ["--n", "8"], "--gauge-tol")]
    # selftest takes its seed and nothing else
    + [("selftest", [], flag) for flag in ("--triples", "--complexes", "--gv-grid", "--budget")])


@pytest.mark.parametrize("command,args,flag", TOLERANCE_FLAGS)
def test_tolerance_flag_is_an_unknown_argument(command, args, flag, capsys):
    # tolerances are constants of their checks, not settable values
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *args, flag, "1e-9"])
    assert exc.value.code == 1
    streams = capsys.readouterr()
    assert streams.out == "" and "Traceback" not in streams.err
    assert streams.err.startswith(f"usage: nchodge {command} ")
    assert f"unrecognized arguments: {flag} 1e-9" in streams.err


def _circle(grams):
    """A 128-site circle with holonomy -1: valid for any positive Grams."""
    d0 = np.eye(128, k=1) - np.eye(128)
    d0[127, 0] = -1.0
    return {"dims": [128, 128], "differentials": [d0.tolist()], "gram": grams}


def _small_d1(n):
    """C^0 = 0 and D_1 = e^-11 times the identity on C^1 = C^2 = C^n:
    det' Delta_0 = 1 and det' Delta_1 = e^(-22 n)."""
    return {"dims": [0, n, n],
            "differentials": [[[]] * n, (np.exp(-11.0) * np.eye(n)).tolist()]}


# det' Delta_1 = e^-3520 is 0.0 (Z = det' Delta_1^(-1/4) would be e^880)
_SMALL_D1 = _small_d1(160)

# sigma = 1e200: sigma^2 is past the float range, 2 log sigma is not
_HUGE_SIGMA = {"dims": [2, 2], "differentials": [[[1e200, 0], [0, 1]]]}

# dims (0, 2, 4, 2), D_1 = e^175 and D_2 = e^-180 on two coordinates each:
# log det' = (700, -20, -720) in degrees 1-3, each in the float range, but
# log T = (700 + 720) / 2 = 710 is not
_TORSION_PAST_RANGE = {"dims": [0, 2, 4, 2], "differentials": [
    [[]] * 2,
    (np.exp(175.0) * np.eye(4, 2)).tolist(),
    (np.exp(-180.0) * np.eye(2, 4, k=2)).tolist()]}


@pytest.mark.parametrize("command,data,quantity", [
    # Grams (1e-3, 1): det' = e^885 in both degrees
    ("hodge", _circle([1e-3, 1]), "det_prime"),
    ("torsion", _circle([1e-3, 1]), "det_prime"),
    ("cs-partition", _circle([1e-3, 1]), "det_prime"),
    ("torsion", _TORSION_PAST_RANGE, "torsion"),
    ("hodge", _HUGE_SIGMA, "eigenvalue"),
    ("torsion", _HUGE_SIGMA, "eigenvalue"),
    ("cs-partition", _HUGE_SIGMA, "eigenvalue"),
])
def test_value_past_the_float_range_is_a_coded_error(tmp_path, capsys, command, data,
                                                     quantity):
    src = tmp_path / "cx.json"
    src.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--complex", str(src)]) == 1
    assert caught == []
    streams = capsys.readouterr()
    assert streams.out == "" and "Traceback" not in streams.err
    payload = json.loads(streams.err)
    assert payload["code"] == "hodge-classical/OutOfFloatRange"
    assert payload["context"]["quantity"] == quantity
    assert math.isfinite(payload["context"]["log_value"])
    assert payload["context"]["log_value"] > math.log(sys.float_info.max)


@pytest.mark.parametrize("command,data,log_value", [
    # Grams (1, 8e-6): det' = e^-1501 in both degrees, 0.0 in floating point
    ("hodge", _circle([1, 8e-6]), -1500.83),
    ("torsion", _circle([1, 8e-6]), -1500.83),
    ("cs-partition", _circle([1, 8e-6]), -1500.83),
    ("cs-partition", _SMALL_D1, -3520.0),
])
def test_det_prime_that_underflows_to_zero_is_a_coded_error(tmp_path, capsys, command, data,
                                                            log_value):
    src = tmp_path / "cx.json"
    src.write_text(json.dumps(data))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--complex", str(src), "--out", str(tmp_path / "r.json")]) == 1
    assert caught == []
    streams = capsys.readouterr()
    assert streams.out == "" and "Traceback" not in streams.err
    payload = json.loads(streams.err)
    assert payload["code"] == "hodge-classical/OutOfFloatRange"
    assert payload["context"] == {"quantity": "det_prime",
                                  "log_value": pytest.approx(log_value, abs=0.01)}
    assert math.exp(payload["context"]["log_value"]) == 0.0
    assert "underflows to 0" in payload["message"]
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["hodge", "torsion", "cs-partition"])
def test_rank_kept_singular_value_whose_square_underflows_is_a_coded_error(
        tmp_path, capsys, command):
    # sigma = 1e-300 is the largest, so rank 1; sigma^2 is 0.0 in floating point
    src = tmp_path / "cx.json"
    src.write_text(json.dumps({"dims": [1, 1], "differentials": [[[1e-300]]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--complex", str(src), "--out", str(tmp_path / "r.json")]) == 1
    assert caught == []
    streams = capsys.readouterr()
    assert streams.out == "" and "Traceback" not in streams.err
    payload = json.loads(streams.err)
    assert payload["code"] == "hodge-classical/OutOfFloatRange"
    assert payload["context"] == {"quantity": "eigenvalue", "degree": 0,
                                  "log_value": pytest.approx(2 * math.log(1e-300))}
    assert not (tmp_path / "r.json").exists()


def test_gram_with_an_overflowing_asymmetry_is_a_coded_error(tmp_path, capsys):
    # g - g^H overflows to inf, which the payload writes as a string
    src = tmp_path / "cx.json"
    src.write_text(json.dumps({"dims": [2, 1], "differentials": [[[0, 0]]],
                               "gram": [[[1, 1e308], [-1e308, 1]], None]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["hodge", "--complex", str(src)]) == 1
    assert caught == []
    streams = capsys.readouterr()
    assert streams.out == "" and "Traceback" not in streams.err
    payload = json.loads(streams.err)
    assert payload["code"] == "hodge-classical/BadGram"
    assert payload["context"] == {"degree": 0, "residual": "inf"}


def _diag(*sigma):
    return {"dims": [len(sigma)] * 2, "differentials": [np.diag(sigma).tolist()]}


@pytest.mark.parametrize("data,betti", [
    ({"dims": [1, 1], "differentials": [[[1e-5]]]}, [0, 0]),
    # det' Delta_1 = e^-352, in the float range
    (_small_d1(16), [0, 0, 0]),
    # sigma / sigma_max between tol and sqrt(tol): rank, though sigma^2 is not
    # above tol times the largest eigenvalue
    (_diag(1, 1e-6), [0, 0]),
    # Delta_1 mixes a unit D_0 with a large D_1; each rank is cut against its
    # own differential
    ({"dims": [1, 2, 1], "differentials": [[[1], [0]], [[0, 1e6]]]}, [0, 0, 0]),
    # sigma^2 = 1e-16 is closer to 0 than the formed Laplacian can resolve,
    # so only the rank decides
    (_diag(1, 1e-8), [0, 0]),
])
def test_small_differentials_are_not_harmonic(tmp_path, capsys, data, betti):
    # each differential's rank is cut against its own largest singular
    # value, so no small but nonzero singular value is harmonic
    src = tmp_path / "cx.json"
    src.write_text(json.dumps(data))
    for command in ("hodge", "torsion"):
        assert run([command, "--complex", str(src)]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == betti


def test_cs_partition_keeps_a_small_singular_value(tmp_path, capsys):
    src = tmp_path / "cx.json"
    src.write_text(json.dumps(_diag(1, 1e-6)))
    assert run(["cs-partition", "--complex", str(src)]) == 0
    assert json.loads(capsys.readouterr().out)["det_prime"] == pytest.approx([1e-12] * 2,
                                                                            rel=1e-12)


def test_cli_import_loads_no_scipy():
    # scipy is imported on first use: a command that needs none starts faster
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    probe = "import sys, nchodge.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    real_build, builds = cli.build_parser, []

    def counting():
        builds.append(1)
        return real_build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        reports = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in reports:
            assert run(["nc-report", "--algebra", "z3", "--nmax", "2",
                        "--out", str(out)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
        with pytest.raises(SystemExit) as exc:
            cli.main(["nc-report", "--algebra", "z3", "--bogus"])
        assert exc.value.code == 1
        assert len(builds) == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("argv,name,available", [
    (["witten-sweep", "--model", "circle-leaves", "--phi", "bogus"],
     "bogus", ["cos-h", "cos-hv", "zero", "random"]),
    (["morse-scan", "--chart", "saddle"],
     "saddle", ["constant", "cos-h", "cubic-bd"]),
    (["witten-sweep", "--model", "{model}"], "sphere", ["circle", "torus"]),
    (["witten-sweep", "--model", "{model}"], ["circle"], ["circle", "torus"]),
])
def test_unknown_name_is_structured_input_error(tmp_path, capsys, argv, name,
                                                available):
    # a model file whose leaf type is the bad name; that error also names its key
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"leaf": {"type": name}, "transversal": [0.0]}))
    assert run([a.format(model=model) for a in argv]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "cli/InputError"
    key = {"key": "leaf"} if "{model}" in argv else {}
    assert payload["context"] == {**key, "name": name, "available": available}


_ALGEBRAS = ["dual-numbers", "m2", "two-points", "z3"]
_MODELS = ["circle-leaves", "torus-leaves"]
_PHIS = ["cos-h", "cos-hv", "zero"]


# The CLI checks these names itself before they reach the lookup (argparse
# choices, builtin names, or a file path), so the lookups are called
# directly; main emits exactly this report entry for any NCHodgeError.
@pytest.mark.parametrize("lookup,name,available", [
    (lambda: builtin_model("bogus"), "bogus", _MODELS),
    (lambda: resolve_phi("bogus"), "bogus", _PHIS),
    (lambda: builtin_omega("bogus", 16), "bogus", ["dz", "sin-z", "x-dy"]),
    (lambda: gv_report("dz", n=16, derivative="bogus"), "bogus",
     ["central", "spectral"]),
    (lambda: builtin_algebra("bogus"), "bogus", _ALGEBRAS),
    (lambda: builtin_algebra("z3", "decimal"), "decimal", ["float", "gaussian", "rational"]),
    (lambda: builtin_chart("bogus"), "bogus", ["constant", "cos-h", "cubic-bd"]),
    (lambda: field_for("decimal"), "decimal", ["float", "gaussian", "rational"]),
    (lambda: selftest.run_criterion(0), 0, list(range(1, 13))),
    (lambda: selftest.run_criterion(13), 13, list(range(1, 13))),
    # unhashable names
    (lambda: builtin_algebra(["z3"]), ["z3"], _ALGEBRAS),
    (lambda: builtin_model(["circle-leaves"]), ["circle-leaves"], _MODELS),
    (lambda: resolve_phi(["cos-h"]), ["cos-h"], _PHIS),
])
def test_unknown_name_lookups_carry_name_and_choices(lookup, name, available):
    with pytest.raises(InputError) as exc:
        lookup()
    entry = exc.value.report_entry()
    assert entry["code"] == "cli/InputError"
    assert entry["context"] == {"name": name, "available": available}


def test_unknown_name_errors_are_written_once():
    # every lookup by name goes through errors.lookup, which alone words the error
    src = Path(cli.__file__).parent
    assert [p.name for p in sorted(src.rglob("*.py"))
            if "choose from" in p.read_text()] == ["errors.py"]


@pytest.mark.parametrize("model,key,got", [
    ({"leaf": 5, "transversal": [0.0]}, "leaf", "int"),
    ({"leaf": ["circle"], "transversal": [0.0]}, "leaf", "list"),
    ({"leaf": {"type": "circle"}, "transversal": 0.5}, "transversal", "float"),
    ({"leaf": {"type": "circle"}, "transversal": {"v": 0.0}}, "transversal", "dict"),
])
def test_malformed_model_parts_are_structured_errors(tmp_path, capsys, model, key, got):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert run(["witten-sweep", "--model", str(path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "cli/InputError"
    assert payload["context"] == {"key": key}
    assert got in payload["message"]


@pytest.mark.parametrize("argv", [
    ["spectral", "--algebra", "z3", "--nmax", "2"],
    ["nc-report", "--algebra", "dual-numbers", "--nmax", "3", "--scalar", "gaussian"],
    ["torsion", "--complex", "circle_alpha_-1_N8.json"],
    ["torsion", "--complex", "no-such-file.json"],      # the error payload
])
def test_each_report_is_walked_once(tmp_path, monkeypatch, capsys, argv):
    real, depth, walks = reporting._write, [0], []

    def counting(obj, out, nl):
        if depth[0] == 0:
            walks.append(type(obj).__name__)
        depth[0] += 1
        try:
            return real(obj, out, nl)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(reporting, "_write", counting)
    out = tmp_path / "report.json"
    run(argv + ["--out", str(out)])
    capsys.readouterr()
    assert walks == ["dict"]


def test_oversized_integer_in_complex_is_structured_error(tmp_path, capsys):
    src = tmp_path / "cx.json"
    src.write_text('{"dims": [1, 1], "differentials": [[[[%d, 0]]]]}' % 10 ** 400)
    assert run(["hodge", "--complex", str(src)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "hodge-classical/NotAComplex"
    assert "entry [1000" in payload["message"] and "at index (0, 0)" in payload["message"]
    assert payload["context"] == {"key": "differentials", "degree": 0}


@pytest.mark.parametrize("argv, code", [
    (["gv", "--n", "734"], "tangential/GridTooLarge"),
    (["morse-scan", "--n-v", "99999"], "tangential/GridTooLarge"),
    (["spectral", "--algebra", "dual-numbers", "--nmax", "797398"], "nc-forms/WindowTooLarge"),
    (["nc-report", "--algebra", "m2", "--nmax", "6"], "nc-forms/WindowTooLarge")])
def test_oversized_request_is_refused_before_the_work(argv, code, capsys):
    # each of these ran for minutes, or until memory ran out
    assert run(argv) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    assert json.loads(streams.err)["code"] == code


def _omega_file(tmp_path, **override):
    fields = {c: v.tolist() for c, v in builtin_omega("sin-z", 8).items()}
    fields.update(override)
    src = tmp_path / "omega.json"
    src.write_text(json.dumps(fields))
    return str(src)


@pytest.mark.parametrize("override,key,shape", [
    ({"y": 1.0}, "y", []),                                   # scalar
    ({"x": [[0.0] * 8] * 8}, "x", [8, 8]),                    # not 3-d
    ({"x": [[[0.0] * 9] * 8] * 8}, "x", [8, 8, 9]),           # not a cube
    ({"z": [[[1.0] * 9] * 9] * 9}, "z", [9, 9, 9]),           # differs from x
])
def test_misshapen_gv_component_is_structured_error(tmp_path, capsys, override,
                                                    key, shape):
    assert run(["gv", "--omega", _omega_file(tmp_path, **override)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "cli/InputError"
    assert payload["context"] == {"key": key, "shape": shape}


def test_missing_gv_component_is_structured_error(tmp_path, capsys):
    fields = {c: v.tolist() for c, v in builtin_omega("sin-z", 8).items() if c != "z"}
    src = tmp_path / "omega.json"
    src.write_text(json.dumps(fields))
    assert run(["gv", "--omega", str(src)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["code"] == "cli/InputError"
    assert payload["context"] == {"key": "z"}


def test_non_finite_gv_component_is_rejected_before_lapack(tmp_path, capsys,
                                                           monkeypatch):
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("a non-finite field reached the pseudoinverse")

    monkeypatch.setattr(np.linalg, "pinv", refuse)
    z = np.ones((8, 8, 8))
    z[2, 5, 1] = np.nan
    src = tmp_path / "omega.json"
    src.write_text(json.dumps({"x": np.zeros((8, 8, 8)).tolist(),
                               "y": np.zeros((8, 8, 8)).tolist(), "z": z.tolist()}))
    assert run(["gv", "--omega", str(src)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "cli/InputError"
    assert payload["context"] == {"key": "z", "index": [2, 5, 1]}


def test_scalar_defaults_to_the_stored_mode(tmp_path, capsys):
    from nchodge.algebra import builtin_algebra
    for mode in ("gaussian", "float"):
        src = tmp_path / f"m2-{mode}.json"
        src.write_text(json.dumps(builtin_algebra("m2", mode).to_json()))
        out = tmp_path / f"{mode}.json"
        assert run(["nc-report", "--algebra", str(src), "--nmax", "2",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["scalars"] == mode
    # an explicit --scalar still overrides the stored mode
    assert run(["nc-report", "--algebra", str(tmp_path / "m2-gaussian.json"),
                "--nmax", "2", "--scalar", "rational"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["code"] == "algebra-core/ShapeMismatch"
    assert payload["context"]["key"] == "unit"
    out = tmp_path / "stock.json"
    assert run(["nc-report", "--algebra", "m2", "--nmax", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scalars"] == "rational"


def test_unhandled_exception_is_internal_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "hodge_package", broken)    # inside the hodge handler
    assert run(["hodge", "--complex", "circle_alpha_-1_N8.json"]) == 1
    streams = capsys.readouterr()
    assert streams.out == ""
    payload = json.loads(streams.err)
    assert payload["kind"] == "error"
    assert payload["code"] == "cli/InternalError"
    assert payload["context"] == {"exception": "KeyError"}
    assert "lost" in payload["message"]


def test_tau_past_the_float_range_is_a_coded_error(capsys):
    # e^(tau phi) overflows, or tau is NaN: the error names tau, not the
    # differential it made non-finite
    for tau, value in [("710", 710.0), ("-710", -710.0), ("nan", "nan")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["witten-sweep", "--model", "circle-leaves", "--tau", tau]) == 1
        assert caught == []
        streams = capsys.readouterr()
        assert streams.out == ""
        payload = json.loads(streams.err)
        assert payload["code"] == "cli/InputError"
        assert payload["context"] == {"key": "tau", "tau": value}
        assert "--tau" in payload["message"]


# -- argv on generated input ----------------------------------------------------------

_WORDS = st.text(alphabet="0123456789.,+eEinfaxyz_ ", max_size=6)
_INTS = st.one_of(st.integers(-3, 3).map(str), _WORDS)


def _names(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(["", "bogus", "z3", "cos-h"]),
                     _WORDS)


_FLOATS = st.one_of(st.floats().map(repr), st.sampled_from(["1e308", "-1e308", "nan", "inf"]),
                    _WORDS)


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _command(name, *options):
    return st.tuples(*options).map(lambda parts: [name] + [w for p in parts for w in p])


_ARGVS = st.one_of(
    *[_command(cmd, _option("--algebra", _names(*_ALGEBRAS, "two_points.json")),
               _option("--nmax", _INTS), _option("--scalar", _names("rational", "gaussian", "float")),
               st.sampled_from([[], ["--matrices"]]))
      for cmd in ("nc-report", "spectral")],
    *[_command(cmd, _option("--complex", _names("circle_alpha_-1_N8.json", "m2.json")))
      for cmd in ("hodge", "torsion", "cs-partition")],
    _command("witten-sweep", _option("--model", _names(*_MODELS, "circle_leaves.json")),
             _option("--phi", _names(*_PHIS, "random")),
             _option("--tau", st.lists(_FLOATS, max_size=2).map(",".join)),
             _option("--seed", st.one_of(st.integers().map(str), _WORDS))),
    _command("morse-scan", _option("--chart", _names("constant", "cos-h", "cubic-bd")),
             _option("--n-h", _INTS), _option("--n-v", _INTS)),
    _command("gv", _option("--omega", _names("dz", "sin-z", "x-dy")),
             _option("--n", st.one_of(st.integers(-2, 12).map(str), _WORDS)),
             _option("--derivative", _names("central", "spectral"))),
    st.lists(st.one_of(_WORDS, st.sampled_from(["-h", "--nmax", "--tau", "hodge", "gv"])),
             max_size=4))


@settings(max_examples=200, deadline=None)
@given(_ARGVS)
def test_generated_argv_ends_in_a_report_or_a_coded_error(argv):
    """Any argv (selftest and the output flags aside) exits 0, 2 with a
    report, or 1 with a usage line or a coded error that is not an
    internal one; never with a traceback or a warning."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:           # argparse: usage error or --help
            assert exc.code in (0, 1), argv
            return
    assert caught == [], (argv, [str(w.message) for w in caught])
    if code == 1:
        assert json.loads(err.getvalue())["code"] != "cli/InternalError", (argv, err.getvalue())
    else:
        assert code in (0, 2) and json.loads(out.getvalue())["kind"], argv
