"""Window construction and the operator identities on small algebras.

The dual-numbers window is small enough to check against hand-computed
matrices: in degree 1 the basis is (dx, x dx) and the rotation acts as
diag(1, -1).
"""

import numpy as np
import pytest

import nchodge as nc
from nchodge import exactla, spectral
from nchodge.errors import DegreeOutOfWindow, WindowTooLarge
from nchodge.forms import DEFAULT_DIM_CAP, dimension_cap


@pytest.fixture(scope="module")
def dual():
    return nc.build_window(nc.builtin_algebra("dual-numbers"), 3)


def test_degree_dims(dual):
    assert dual.degree_dims == [2, 2, 2, 2]
    z3 = nc.build_window(nc.builtin_algebra("z3"), 3)
    assert z3.degree_dims == [3, 6, 12, 24]


def test_word_labels(dual):
    assert [dual.word_label(w) for w in dual.bases[1]] == ["dx", "x dx"]
    assert dual.word_label((1, 1, 1)) == "x dx dx"
    assert dual.word_label((0, 1, 1)) == "dx dx"


def test_karoubi_matrix_degree_one(dual):
    K1 = nc.operator_matrices(dual)["k"].blocks[1]
    assert np.array_equal(K1, dual.field.array([[1, 0], [0, -1]]))


def test_boundary_of_dxdx(dual):
    dxdx = dual.basis_form(2, dual.index[2][(0, 1, 1)])
    out = nc.apply_b(dual, dxdx)
    assert np.array_equal(out.component(1), dual.field.array([0, 2]))


def test_differential_of_xdx(dual):
    xdx = dual.basis_form(1, dual.index[1][(1, 1)])
    out = nc.apply_d(dual, xdx)
    assert np.array_equal(out.component(2), dual.field.array([1, 0]))


def test_product_dx_times_x(dual):
    dx = dual.basis_form(1, dual.index[1][(0, 1)])
    x = dual.form_from_element([0, 1])
    out = nc.multiply_forms(dual, dx, x)
    assert np.array_equal(out.component(1), dual.field.array([0, -1]))


def test_form_arithmetic(dual):
    u = dual.basis_form(1, 0)
    v = dual.basis_form(1, 1)
    w = u + v.scale(dual.field.coerce(2))
    assert np.array_equal(w.component(1), dual.field.array([1, 2]))
    assert (w - w).is_zero()
    assert u != v
    assert -u + u == nc.Form({})


def test_identities_exact_on_suite():
    for name, nmax in (("dual-numbers", 4), ("two-points", 4),
                       ("m2", 2), ("z3", 4)):
        w = nc.build_window(nc.builtin_algebra(name), nmax)
        res = nc.window_identity_residuals(w)
        for key, rows in res.items():
            for degree, exact_zero, value in rows:
                assert exact_zero, (name, key, degree, value)


def test_graded_leibniz_for_d():
    w = nc.build_window(nc.builtin_algebra("z3"), 4)
    rng = np.random.default_rng(7)
    for p, q in ((0, 0), (1, 1), (1, 2), (2, 1), (0, 3)):
        u = nc.Form({p: w.field.array(
            [int(c) for c in rng.integers(-2, 3, w.degree_dims[p])])})
        v = nc.Form({q: w.field.array(
            [int(c) for c in rng.integers(-2, 3, w.degree_dims[q])])})
        lhs = nc.apply_d(w, nc.multiply_forms(w, u, v))
        rhs = nc.multiply_forms(w, nc.apply_d(w, u), v)
        term = nc.multiply_forms(w, u, nc.apply_d(w, v))
        rhs = rhs + term if p % 2 == 0 else rhs - term
        assert (lhs - rhs).is_zero()


def test_degree_overflow_raises(dual):
    top = dual.basis_form(3, 0)
    with pytest.raises(DegreeOutOfWindow):
        nc.apply_d(dual, top)
    one = dual.form_from_element([1, 0])
    with pytest.raises(DegreeOutOfWindow):
        nc.multiply_forms(dual, top, nc.apply_d(dual, one))


def test_dimension_cap(monkeypatch):
    assert dimension_cap() == DEFAULT_DIM_CAP
    monkeypatch.setenv("NCHODGE_CAP", "10")
    assert dimension_cap() == 10
    with pytest.raises(WindowTooLarge):
        nc.build_window(nc.builtin_algebra("z3"), 4)
    monkeypatch.setenv("NCHODGE_CAP", "banana")
    with pytest.raises(WindowTooLarge):
        dimension_cap()


def test_float_window_residuals_small():
    w = nc.build_window(nc.builtin_algebra("m2", "float"), 2)
    res = nc.window_identity_residuals(w)
    worst = max(v for rows in res.values() for _, _, v in rows)
    assert worst < 1e-12


def _random_form(w, rng, degree):
    return nc.Form({degree: w.field.array(
        [int(c) for c in rng.integers(-2, 3, w.degree_dims[degree])])})


def test_form_operators_need_no_dense_matmul(monkeypatch):
    w = nc.build_window(nc.builtin_algebra("z3"), 4)
    nc.operator_matrices(w)

    def refuse(a, b):
        raise AssertionError("a form operator went through a dense matmul")

    monkeypatch.setattr(exactla, "matmul", refuse)
    rng = np.random.default_rng(3)
    for p in range(w.n_max + 1):
        u = _random_form(w, rng, p)
        for q in range(w.n_max - p + 1):
            nc.multiply_forms(w, u, _random_form(w, rng, q))
        nc.apply_b(w, u)
        nc.apply_k(w, u)
        if p < w.n_max:
            nc.apply_d(w, u)


def test_bd_and_db_are_formed_once_per_degree(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return np.dot(a, b)

    monkeypatch.setattr(exactla, "matmul", counting)
    monkeypatch.setattr(spectral, "matmul", counting)
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    ops = nc.operator_matrices(w)
    nc.window_identity_residuals(w)
    nc.spectral_report(w)
    D, B = ops["d"].blocks, ops["b"].blocks
    for n in range(w.n_max):
        assert sum(a is B[n + 1] and b is D[n] for a, b in calls) == 1, n
    for n in range(1, w.n_max + 1):
        assert sum(a is D[n - 1] and b is B[n] for a, b in calls) == 1, n


@pytest.mark.parametrize("name,n_max", [("z3", 3), ("m2", 2)])
def test_product_matches_algebra_and_unit(name, n_max):
    alg = nc.builtin_algebra(name)
    w = nc.build_window(alg, n_max)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a, b = (alg.field.array([int(c) for c in rng.integers(-3, 4, alg.dim)])
                for _ in range(2))
        prod = nc.multiply_forms(w, w.form_from_element(a), w.form_from_element(b))
        assert prod == w.form_from_element(alg.multiply(a, b))
    one = w.form_from_element(alg.unit)
    for n in range(n_max + 1):
        u = _random_form(w, rng, n)
        assert nc.multiply_forms(w, one, u) == u
        assert nc.multiply_forms(w, u, one) == u
