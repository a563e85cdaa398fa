import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import nchodge as nc
from nchodge import exactla
from nchodge.algebra import _check_unit
from nchodge.errors import (AssociativityViolation, DimMismatch, InputError,
                            NCHodgeError, ShapeMismatch, UnitViolation)
from nchodge.scalars import MODES, GaussianRational


def _basis_vector(field, dim, i):
    return field.array([int(k == i) for k in range(dim)])


def _basis_product(algebra, i, j):
    ei = _basis_vector(algebra.field, algebra.dim, i)
    ej = _basis_vector(algebra.field, algebra.dim, j)
    return algebra.multiply(ei, ej)


def test_builtin_algebras_construct():
    for name in sorted(nc.BUILTIN_ALGEBRAS):
        a = nc.builtin_algebra(name)
        assert a.dim >= 2
        # unit acts as identity on every basis vector
        for i in range(a.dim):
            e = _basis_vector(a.field, a.dim, i)
            assert np.array_equal(a.multiply(a.unit, e), e)
            assert np.array_equal(a.multiply(e, a.unit), e)


def test_matrix_units_multiplication():
    m2 = nc.builtin_algebra("m2")
    assert m2.basis_labels == ("E11", "E12", "E21", "E22")
    e12_e21 = _basis_product(m2, 1, 2)
    assert e12_e21[0] == Fraction(1) and all(v == 0 for v in e12_e21[1:])
    assert all(v == 0 for v in _basis_product(m2, 1, 1))


def test_two_points_idempotents():
    tp = nc.builtin_algebra("two-points")
    assert all(v == 0 for v in _basis_product(tp, 0, 1))
    p2 = _basis_product(tp, 0, 0)
    assert p2[0] == Fraction(1) and p2[1] == 0


def test_cyclic_group_algebra_is_commutative():
    z3 = nc.builtin_algebra("z3")
    for i in range(3):
        for j in range(3):
            assert np.array_equal(_basis_product(z3, i, j),
                                  _basis_product(z3, j, i))
    # g1 * g2 wraps to the unit
    assert np.array_equal(_basis_product(z3, 1, 2), z3.unit)


def test_nonassociative_structure_rejected():
    # octonion-flavoured junk: tweak one structure constant of m2
    for mode in ("rational", "gaussian", "float"):
        m2 = nc.builtin_algebra("m2", mode)
        bad = np.array(m2.structure)
        bad[1, 2, 3] = 1
        with pytest.raises(AssociativityViolation) as exc:
            nc.make_algebra(4, m2.basis_labels, bad, [1, 0, 0, 1], mode)
        # the first failing triple in (i, j, k) order, its first bad coordinate
        assert exc.value.context == {"triple": (0, 1, 2), "coordinate": 3}


def test_bad_unit_rejected():
    m2 = nc.builtin_algebra("m2")
    with pytest.raises(UnitViolation):
        nc.make_algebra(4, m2.basis_labels, m2.structure, [1, 0, 0, 0])


def test_unknown_builtin_name():
    with pytest.raises(InputError):
        nc.builtin_algebra("quaternions")


def test_json_roundtrip(tmp_path):
    a = nc.builtin_algebra("dual-numbers")
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(a.to_json()))
    b = nc.load_algebra(str(path))
    assert b.dim == a.dim
    assert np.array_equal(b.structure, a.structure)
    assert np.array_equal(b.unit, a.unit)
    assert b.name == a.name == "dual-numbers"
    assert nc.load_algebra(nc.builtin_algebra("z3").to_json()).name == "z3"


def test_scalar_mode_override_on_load(tmp_path):
    a = nc.builtin_algebra("dual-numbers")
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(a.to_json()))
    b = nc.load_algebra(str(path), scalar_mode="float")
    assert not b.field.exact


def test_float_stored_algebra_loads_as_rational():
    stored = nc.builtin_algebra("dual-numbers", "float").to_json()
    b = nc.load_algebra(stored, "rational")
    a = nc.builtin_algebra("dual-numbers")
    assert np.array_equal(b.structure, a.structure)
    assert np.array_equal(b.unit, a.unit)
    assert all(type(v) is Fraction for v in b.structure.reshape(-1))
    stored["unit"] = [[1.0, 0.5], [0.0, 0.0]]
    with pytest.raises(ShapeMismatch):
        nc.load_algebra(stored, "rational")


@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_norm_structure_matches_basis_products(mode):
    """Unit-first structure constants, entry for entry, against products of
    the unit-first basis vectors formed one pair at a time."""
    for name in sorted(nc.BUILTIN_ALGEBRAS):
        a = nc.builtin_algebra(name, mode)
        inv = np.asarray(a.change_inv)
        for i in range(a.dim):
            for j in range(a.dim):
                prod = a.multiply(a.change[:, i], a.change[:, j])
                want = inv.dot(np.asarray(prod))
                assert [type(v) for v in a.norm_structure[i, j]] == [type(v) for v in want]
                assert np.array_equal(a.norm_structure[i, j], want), (name, i, j)


def _bytecheck_file(generator):
    """An algebra file that tools/bytecheck.py writes, as a dict."""
    path = Path(__file__).resolve().parent.parent / "tools" / "bytecheck.py"
    spec = importlib.util.spec_from_file_location("bytecheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, generator)()


def _sympy_matrix(mat):
    def value(v):
        parts = (v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
        re, im = (sympy.Rational(x.numerator, x.denominator) for x in map(Fraction, parts))
        return re + sympy.I * im

    return sympy.Matrix([[value(v) for v in row] for row in np.asarray(mat).tolist()])


# units whose pivot coordinate u_p is not 1: the dual numbers in the basis
# (2, x) and m2 in the basis (2i E11, E12, E21, E22)
_PIVOT_FILES = [("dual_numbers_pivot", "rational", Fraction(1, 2)),
                ("m2_gaussian_pivot", "gaussian", GaussianRational(0, Fraction(-1, 2)))]


@pytest.mark.parametrize("generator,mode,u_p", _PIVOT_FILES)
def test_closed_form_change_inverse_matches_sympy(generator, mode, u_p):
    a = nc.load_algebra(_bytecheck_file(generator), mode)
    assert a.unit[a.pivot] == u_p
    ref = _sympy_matrix(a.change).inv()
    assert (_sympy_matrix(a.change_inv) - ref).applyfunc(sympy.expand).is_zero_matrix
    assert exactla.equal(exactla.matmul(a.change, a.change_inv), exactla.eye_like(a.change))


@pytest.mark.parametrize("generator", [gen for gen, *_ in _PIVOT_FILES])
def test_float_change_inverse_is_lapacks(generator):
    a = nc.load_algebra(_bytecheck_file(generator), "float")
    assert a.change_inv.tobytes() == np.linalg.inv(a.change).tobytes()


def _unit_witness_by_loop(field, c, u, labels):
    """The unit check as a loop over the basis, left before right for each
    j: the reference for the witness the vectorised check names."""
    dim = u.shape[0]
    tol = 0.0 if field.exact else 1e-12 * max(1.0, exactla.max_abs(c))
    left = exactla.matmul(u, c.reshape(dim, dim * dim)).reshape(dim, dim)
    for j in range(dim):
        ej = _basis_vector(field, dim, j)
        if not exactla.is_zero_matrix(left[j] - ej, tol):
            return "left", j
        if not exactla.is_zero_matrix(exactla.matmul(u, c[j]) - ej, tol):
            return "right", j
    return None


def _unit_witness(field, c, u, labels):
    try:
        _check_unit(field, c, u, labels)
    except UnitViolation as exc:
        return exc.context["side"], exc.context["index"]
    return None


# m2 with unit E11 + E22: c[0, j] and c[3, j] enter only u*e_j, and c[j, 0]
# and c[j, 3] only e_j*u
@pytest.mark.parametrize("entries,witness", [
    ([(0, 1, 2)], ("left", 1)),
    ([(1, 0, 2)], ("right", 1)),
    ([(3, 2, 0), (1, 3, 1)], ("right", 1)),     # left at 2, right at 1
    ([(0, 1, 0), (2, 3, 3)], ("left", 1)),      # left at 1, right at 2
    ([(0, 2, 1), (2, 0, 1)], ("left", 2)),      # both at 2
    ([], None),
])
@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_unit_check_names_the_loop_witness(mode, entries, witness):
    m2 = nc.builtin_algebra("m2", mode)
    c = np.array(m2.structure)
    for i, j, k in entries:
        c[i, j, k] += 1
    args = (m2.field, m2.field.array(c), m2.unit, m2.basis_labels)
    assert _unit_witness_by_loop(*args) == witness
    assert _unit_witness(*args) == witness


@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_unit_check_matches_the_loop_on_random_breaks(mode):
    rng = np.random.default_rng(3)
    for name in ("m2", "z3", "two-points", "dual-numbers"):
        alg = nc.builtin_algebra(name, mode)
        d = alg.dim
        for _ in range(25):
            c = np.array(alg.structure)
            for _ in range(int(rng.integers(1, 4))):
                i, j, k = rng.integers(d, size=3)
                c[i, j, k] += int(rng.integers(-2, 3))
            args = (alg.field, alg.field.array(c), alg.unit, alg.basis_labels)
            assert _unit_witness(*args) == _unit_witness_by_loop(*args)


def test_element_names_an_unknown_label():
    m2 = nc.builtin_algebra("m2")
    for spec in ("E13", {"E11": 1, "E13": 1}):
        with pytest.raises(DimMismatch, match="'E13'") as exc:
            m2.element(spec)
        assert exc.value.context == {"labels": ["E11", "E12", "E21", "E22"]}
    assert np.array_equal(m2.element({"E12": 2, "E21": "1/2"}), [0, 2, Fraction(1, 2), 0])
    assert np.array_equal(m2.element("E22"), [0, 0, 0, 1])


# two-points in the basis (p, s q): (s q)(s q) = s (s q) and the unit is
# p + (1/s)(s q); the scale s and 1/s as (re, im) pairs
_SCALES = {"integer": ((1, 0), (1, 0)),
           "fractional": ((Fraction(1, 2), 0), (2, 0)),
           "imaginary": ((0, 1), (0, -1))}


def _entry(stored, re, im=0):
    re, im = Fraction(re), Fraction(im)
    if stored == "float":
        return [float(re), float(im)]
    pairs = [[x.numerator, x.denominator] for x in (re, im)]
    return pairs if stored == "gaussian" else pairs[0]


def _scaled_two_points(stored, kind):
    s, inv = _SCALES[kind]
    zero, one = _entry(stored, 0), _entry(stored, 1)
    return {"name": "tp", "dim": 2, "basis": ["p", "sq"], "scalars": stored,
            "unit": [one, _entry(stored, *inv)],
            "mul": [[[one, zero], [zero, zero]], [[zero, zero], [zero, _entry(stored, *s)]]]}


# (stored mode, --scalar mode) -> {kind: key of the ShapeMismatch}; every
# other kind loads.  A gaussian-stored file never loads in rational mode,
# even when its imaginary parts are all 0.
_CROSS_MODE_FAILURES = {
    ("gaussian", "rational"): {"integer": "unit", "fractional": "unit", "imaginary": "unit"},
    ("float", "rational"): {"fractional": "mul", "imaginary": "unit"},
    ("float", "gaussian"): {"fractional": "mul"},
}


@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
@pytest.mark.parametrize("stored", ["rational", "gaussian", "float"])
def test_cross_mode_loads(stored, mode):
    failures = _CROSS_MODE_FAILURES.get((stored, mode), {})
    for kind in _SCALES:
        if stored == "rational" and kind == "imaginary":
            continue        # a rational file holds no imaginary entry
        data = _scaled_two_points(stored, kind)
        if kind in failures:
            with pytest.raises(ShapeMismatch) as exc:
                nc.load_algebra(data, mode)
            assert exc.value.context["key"] == failures[kind], kind
        else:
            # the file as it would have been written in the mode it loads in
            assert nc.load_algebra(data, mode).to_json() == _scaled_two_points(mode, kind), kind


def test_exact_algebra_data_leave_object_arrays_once(monkeypatch):
    """Structure and unit are converted from object arrays when they are
    built from Python lists, and parsed from JSON with no object array and
    no GaussianRational; everything after that runs on the exact arrays."""
    calls, made = [], []
    real, init = exactla.from_object, GaussianRational.__init__
    monkeypatch.setattr(exactla, "from_object", lambda arr: calls.append(1) or real(arr))
    monkeypatch.setattr(GaussianRational, "__init__",
                        lambda self, *args: made.append(1) or init(self, *args))
    for mode in ("rational", "gaussian"):
        for name in sorted(nc.BUILTIN_ALGEBRAS):
            del calls[:]
            alg = nc.builtin_algebra(name, mode)
            assert len(calls) <= 2, (name, mode)
            data = alg.to_json()
            del calls[:], made[:]
            alg = nc.load_algebra(data)
            assert calls == [] and made == [], (name, mode)
            del calls[:]
            nc.operator_matrices(nc.build_window(alg, 2))
            alg.multiply(alg.unit, alg.change[:, 1])
            alg.multiply(alg.structure[0, 1], alg.norm_structure[1, 0])
            assert calls == [], (name, mode)


# -- the loader on generated input ----------------------------------------------

_JUNK = st.one_of(
    st.integers(-2, 2), st.none(), st.booleans(), st.sampled_from([2 ** 70, -(10 ** 400)]),
    st.sampled_from([0.5, 2.0, 1e300, math.nan, math.inf, -math.inf]), st.text(max_size=2))
# a scalar of any mode, well formed or not
_SCALARS = st.one_of(_JUNK, st.lists(_JUNK, min_size=2, max_size=2),
                     st.lists(st.lists(_JUNK, min_size=2, max_size=2), min_size=2, max_size=2),
                     st.lists(_JUNK, max_size=3))
_TREES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=12)
_ODD_DIMS = [0, -1, 3 * 10 ** 15, 10 ** 400, 2.5, 2.0, "2", True, False, None, [2]]


@st.composite
def _algebra_files(draw):
    """A stock two-dimensional algebra as a file of some stored mode, with
    one entry of its unit or structure replaced, one of them replaced by a
    whole tree, an odd dim, or ``scalars`` naming another mode or none."""
    name = draw(st.sampled_from(["two-points", "dual-numbers"]))
    data = nc.builtin_algebra(name, draw(st.sampled_from(MODES))).to_json()
    how = draw(st.sampled_from(["entry", "tree", "dim", "scalars"]))
    key = draw(st.sampled_from(["unit", "mul"]))
    if how == "entry":
        node = data[key]
        for _ in range(len(np.shape(node)) - (2 if data["scalars"] == "gaussian" else 1) - 1):
            node = node[draw(st.integers(0, 1))]
        node[draw(st.integers(0, 1))] = draw(_SCALARS)
    elif how == "tree":
        data[key] = draw(_TREES)
    elif how == "dim":
        data["dim"] = draw(st.sampled_from(_ODD_DIMS))
    else:
        data["scalars"] = draw(st.one_of(st.sampled_from(MODES), _TREES,
                                         st.sampled_from(["decimal", {}])))
    return data


@settings(max_examples=250, deadline=None)
@given(_algebra_files(), st.sampled_from([None, *MODES]))
def test_load_algebra_on_generated_files_ends_in_coded_errors(data, mode):
    """Every stored mode x --scalar pair: the load succeeds or raises a
    package error with an algebra code, never anything else."""
    try:
        nc.load_algebra(data, mode)
    except NCHodgeError as exc:
        assert exc.code.startswith("algebra-core/"), exc.code
