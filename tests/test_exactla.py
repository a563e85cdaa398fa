from fractions import Fraction

import numpy as np
import pytest

from nchodge import exactla as xla
from nchodge.scalars import GaussianRational, field_for

F = field_for("rational")


def test_rank_and_kernel_exact():
    mat = F.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert xla.rank(mat) == 2
    ker = xla.kernel_basis(mat)
    assert ker.shape == (3, 1)
    assert xla.is_zero_matrix(xla.matmul(mat, ker))


def test_inverse_exact_and_singular():
    mat = F.array([[2, 1], [1, 1]])
    inv = xla.inverse(mat)
    assert np.array_equal(xla.matmul(mat, inv), F.eye(2))
    with pytest.raises(ValueError):
        xla.inverse(F.array([[1, 2], [2, 4]]))


def test_solve_in_image():
    A = F.array([[1, 0], [0, 0]])
    assert xla.solve_in_image(A, F.array([[3], [0]]))
    assert not xla.solve_in_image(A, F.array([[0], [1]]))


def test_solve_in_image_row_reduces_once(monkeypatch):
    real_rref, calls = xla.rref, []

    def counting(mat):
        calls.append(mat.shape)
        return real_rref(mat)

    monkeypatch.setattr(xla, "rref", counting)
    A = F.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for b, inside in (([3, 6, 5], True), ([1, 0, 0], False)):
        calls.clear()
        assert xla.solve_in_image(A, F.array(b).reshape(-1, 1)) is inside
        assert calls == [(3, 4)]


def _random_exact(rng, shape, density, gaussian=False):
    """Object matrix with about ``density`` nonzero Fraction (or Gaussian
    rational) entries; the zeros are typed zeros of the same kind."""
    zero = GaussianRational(0) if gaussian else Fraction(0)
    out = np.full(shape, zero, dtype=object)
    for idx in zip(*np.nonzero(rng.random(shape) < density)):
        re = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        out[idx] = GaussianRational(re, int(rng.integers(-2, 3))) if gaussian else re
    return out


def _assert_same(ref, got):
    """Same shape and dtype, and every entry equal and of the same type."""
    ref, got = np.asarray(ref), np.asarray(got)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    for x, y in zip(ref.reshape(-1), got.reshape(-1)):
        assert x == y and type(x) is type(y), (x, y)


def _assert_matches_dot(a, b):
    _assert_same(np.dot(a, b), xla.matmul(a, b))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("density", [0.1, 1.0])
def test_matmul_matches_dot_reference(gaussian, density):
    rng = np.random.default_rng(11)
    for m, n, p in [(7, 9, 5), (1, 1, 1), (6, 6, 6)]:
        a = _random_exact(rng, (m, n), density, gaussian)
        b = _random_exact(rng, (n, p), density, gaussian)
        a[m // 2, :] = a[0, 0] * 0         # all-zero row of a
        b[:, p // 2] = b[0, 0] * 0         # all-zero column of b
        b[n // 2, :] = b[0, 0] * 0         # all-zero row of b
        _assert_matches_dot(a, b)
        _assert_matches_dot(a, b[:, 0])    # 1-D right operand
        _assert_matches_dot(a[0], b)       # 1-D left operand
        _assert_matches_dot(a[0], b[:, 0])     # two 1-D operands: a scalar
    # products between the two exact kinds promote like np.dot
    _assert_matches_dot(_random_exact(rng, (4, 5), 0.5),
                        _random_exact(rng, (5, 3), 0.5, gaussian=True))


def test_matmul_zero_size_shapes():
    rng = np.random.default_rng(12)
    for (m, n), (n2, p) in [((0, 4), (4, 3)), ((3, 4), (4, 0)),
                            ((3, 0), (0, 2)), ((0, 0), (0, 0))]:
        _assert_matches_dot(_random_exact(rng, (m, n), 0.5),
                            _random_exact(rng, (n2, p), 0.5))
    # empty inner axis: np.dot fills with int 0, and so must matmul
    _assert_matches_dot(np.full((2, 0), Fraction(1), dtype=object),
                        np.full((0,), Fraction(1), dtype=object))


def test_matmul_int_filled_operands():
    rng = np.random.default_rng(13)
    mat = F.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    ker = xla.kernel_basis(mat)            # int 0 / int 1 and Fraction entries
    assert {type(v) for v in ker.reshape(-1)} == {int, Fraction}
    _assert_matches_dot(mat, ker)
    _assert_matches_dot(ker.T, _random_exact(rng, (4, 3), 0.3))
    _assert_matches_dot(ker.T, ker)
    # an all-int operand meets a Fraction one only through its zero terms
    ints = np.full((3, 4), 0, dtype=object)
    ints[0, 1] = 2
    _assert_matches_dot(ints, np.full((4, 2), 1, dtype=object))
    _assert_matches_dot(ints, _random_exact(rng, (4, 2), 0.3))
    _assert_matches_dot(np.full((2, 2), 0, dtype=object), F.eye(2))
    # int terms next to a Fraction zero: np.dot's sum is a Fraction
    mixed = np.array([[2, Fraction(0)], [0, 0]], dtype=object)
    _assert_matches_dot(mixed, np.array([[3, 1], [Fraction(1), 0]], dtype=object))


def test_matmul_float_and_mixed_input_use_dot():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    got = xla.matmul(a, b)
    assert got.dtype == np.complex128 and np.array_equal(got, np.dot(a, b))
    exact = _random_exact(rng, (4, 3), 0.5)
    _assert_matches_dot(exact, b)          # mixed dtypes
    _assert_matches_dot(exact[0], b)       # mixed dtypes, 1-D left


def _dense_rref(mat):
    """Reference elimination: every row update runs over the whole row."""
    a = mat.copy()
    m, n = a.shape
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i, c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r, :] = a[r, :] * (Fraction(1) / a[r, c])
        for i in range(m):
            if i != r and a[i, c] != 0:
                a[i, :] = a[i, :] - a[i, c] * a[r, :]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def _random_typed(rng, shape, density, kinds):
    """Object matrix whose entries (zeros too) each take a kind drawn from
    ``kinds``: "int", "fraction" or "gaussian"."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        value = int(rng.integers(-4, 5)) if rng.random() < density else 0
        kind = kinds[int(rng.integers(len(kinds)))]
        if kind == "int":
            out[idx] = value
        elif kind == "fraction":
            out[idx] = Fraction(value, int(rng.integers(1, 4)))
        else:
            out[idx] = GaussianRational(Fraction(value, int(rng.integers(1, 3))),
                                        int(rng.integers(-1, 2)) if value else 0)
    return out


def _assert_rref_matches_dense(mat):
    ref, ref_pivots = _dense_rref(mat)
    got, pivots = xla.rref(mat)
    assert pivots == ref_pivots
    _assert_same(ref, got)


@pytest.mark.parametrize("kinds", [("int",), ("fraction",), ("gaussian",),
                                   ("int", "fraction"),
                                   ("int", "fraction", "gaussian")])
def test_rref_matches_dense_reference(kinds):
    rng = np.random.default_rng(15)
    for trial in range(60):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 8))
        mat = _random_typed(rng, (m, n), rng.random(), kinds)
        _assert_rref_matches_dense(mat)
        # a repeated row: rank deficient, with non-pivot columns
        _assert_rref_matches_dense(np.concatenate([mat, mat[:1]]))
    for shape in [(0, 0), (0, 3), (3, 0)]:
        _assert_rref_matches_dense(_random_typed(rng, shape, 0.5, kinds))


@pytest.mark.parametrize("gaussian", [False, True])
def test_rref_of_inverse_augmented_matrix(gaussian):
    # inverse() row-reduces [M | I] with an int identity half, whose entries
    # the elimination promotes to M's type
    rng = np.random.default_rng(16)
    for n in (1, 3, 6):
        mat = _random_exact(rng, (n, n), 0.3, gaussian)
        for i in range(n):
            mat[i, i] = mat[i, i] + 3
        aug = np.full((n, 2 * n), 0, dtype=object)
        aug[:, :n] = mat
        for i in range(n):
            aug[i, n + i] = 1
        _assert_rref_matches_dense(aug)
        _assert_same(_dense_rref(aug)[0][:, n:], xla.inverse(mat))


def test_rref_int_pivots_stay_exact():
    red, pivots = xla.rref(np.array([[2, 1], [1, 1], [3, 5]], dtype=object))
    assert pivots == [0, 1]
    _assert_same(F.array([[1, 0], [0, 1], [0, 0]]), red)     # Fractions, no floats
    ker = xla.kernel_basis(np.array([[2, 1, 1]], dtype=object))
    assert ker[0, 0] == Fraction(-1, 2) and type(ker[0, 0]) is Fraction


@pytest.mark.parametrize("gaussian", [False, True])
def test_max_abs_exact_matches_numpy(gaussian):
    rng = np.random.default_rng(17)
    for shape, density in [((5, 7), 0.2), ((4, 4), 1.0), ((3, 3), 0.0), ((6,), 0.5)]:
        mat = _random_exact(rng, shape, density, gaussian)
        got = xla.max_abs(mat)
        assert type(got) is float
        assert got == float(np.max(np.abs(xla.to_complex(mat))))
    assert xla.max_abs(np.empty((0, 4), dtype=object)) == 0.0


def test_float_rank_uses_relative_threshold():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    mat = q @ np.diag([1.0, 1.0, 1.0, 1e-14, 0.0]) @ q.T
    assert xla.rank(mat) == 3


def test_poly_divmod_and_xgcd():
    # (x-1)^2 and (x+1) are coprime; check the Bezout identity
    p = [Fraction(1), Fraction(-2), Fraction(1)]
    q = [Fraction(1), Fraction(1)]
    g, u, v = xla.poly_xgcd(p, q)
    assert xla.poly_deg(g) == 0
    lhs = xla.poly_add(xla.poly_mul(u, p), xla.poly_mul(v, q))
    assert xla.poly_trim(xla.poly_sub(lhs, g)) == []


def test_karoubi_annihilator_roots():
    # (x^n - 1)(x^{n+1} - 1) vanishes at the union of the two root sets
    ann = xla.karoubi_annihilator(3)
    for k in range(3):
        assert abs(xla.poly_eval([complex(c) for c in ann],
                                 np.exp(2j * np.pi * k / 3))) < 1e-12
    for k in range(4):
        assert abs(xla.poly_eval([complex(c) for c in ann],
                                 np.exp(2j * np.pi * k / 4))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_harmonic_crt_poly_properties(n):
    """r(1) = 1, r'(1) = 0, and r is divisible by the non-unit factor."""
    r = xla.harmonic_crt_poly(n)
    assert xla.poly_eval(r, Fraction(1)) == 1
    deriv = [c * (i + 1) for i, c in enumerate(r[1:])]
    assert xla.poly_eval(deriv, Fraction(1)) == 0
    ann = xla.karoubi_annihilator(n)
    sq = [Fraction(1), Fraction(-2), Fraction(1)]
    q, rem = xla.poly_divmod(ann, sq)
    assert xla.poly_trim(rem) == []
    _, rem = xla.poly_divmod(r, q)
    assert xla.poly_trim(rem) == []


def test_eval_poly_matrix_horner():
    mat = F.array([[0, 1], [0, 0]])
    # p(x) = 1 + x on a nilpotent gives I + N
    out = xla.eval_poly([Fraction(1), Fraction(1)], mat)
    assert np.array_equal(out, F.array([[1, 1], [0, 1]]))
