import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, QQ_I, Poly, Rational, symbols
from sympy.polys.matrices import DomainMatrix

import nchodge as nc
from nchodge import exactla as xla
from nchodge import selftest, spectral
from nchodge.scalars import GaussianRational, field_for

F = field_for("rational")


def _kernel_basis(mat):
    """Columns spanning the right null space, read off the exact rref."""
    red, pivots = xla.rref(mat)
    red = np.asarray(red)
    free = [c for c in range(red.shape[1]) if c not in pivots]
    out = np.full((red.shape[1], len(free)), Fraction(0), dtype=object)
    for j, fc in enumerate(free):
        out[fc, j] = Fraction(1)
        for i, pc in enumerate(pivots):
            out[pc, j] = -red[i, fc]
    return out


def test_rank_and_kernel_exact():
    mat = F.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert xla.rank(mat) == 2
    ker = _kernel_basis(mat)
    assert ker.shape == (3, 1)
    assert xla.is_zero_matrix(xla.matmul(mat, xla.from_object(ker)))


@pytest.mark.parametrize("scalar", [2, Fraction(1, 3), GaussianRational(1, 2)])
def test_scaled_arrays_take_no_scalar_operands(scalar):
    mat = F.array([1, 2])
    for op in (operator.add, operator.sub, operator.ne):
        with pytest.raises(TypeError):
            op(mat, scalar)
        with pytest.raises(TypeError):
            op(scalar, mat)
    assert (mat != 0).tolist() == [True, True]
    assert (mat != F.array([1, 3])).tolist() == [False, True]


def test_object_arrays_are_refused_not_rounded():
    obj = np.array([[Fraction(1, 3), Fraction(2, 3)]], dtype=object)
    for fn in (xla.max_abs, xla.is_zero_matrix, xla.rank, lambda m: xla.equal(m, m)):
        with pytest.raises(TypeError):
            fn(obj)


def _in_image(A, b):
    """Exact image membership as the package tests it: ``Y b = 0`` for the
    left null basis ``Y`` of ``A``."""
    return xla.is_zero_matrix(xla.matmul(xla.left_null(A), b))


def test_solve_in_image():
    A = F.array([[1, 0], [0, 0]])
    assert _in_image(A, F.array([[3], [0]]))
    assert not _in_image(A, F.array([[0], [1]]))


def test_solve_in_image_row_reduces_once(monkeypatch):
    real_rref, calls = xla.rref, []

    def counting(mat):
        calls.append(mat.shape)
        return real_rref(mat)

    monkeypatch.setattr(xla, "rref", counting)
    A = F.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for b, inside in (([3, 6, 5], True), ([1, 0, 0], False)):
        calls.clear()
        assert _in_image(A, F.array(b).reshape(-1, 1)) is inside
        assert calls == [(3, 3)]        # A^T, for its left null space


# The references compute over sympy's QQ_I, which shares no code with
# exactla; the package's GaussianRational is a value with no arithmetic.
# A QQ_I zero compares unequal to the int 0, so both sides of a comparison
# go through _qi.

def _qq(x):
    return QQ(x.numerator, x.denominator)


def qq_i(v):
    """An exact scalar (int, Fraction or GaussianRational) as a sympy QQ_I
    element; any other value as it is."""
    if isinstance(v, GaussianRational):
        return QQ_I(_qq(v.re), _qq(v.im))
    return QQ_I(_qq(v), QQ(0)) if isinstance(v, (int, Fraction)) else v


_to_qi = np.frompyfunc(qq_i, 1, 1)


def _qi(arr):
    """An array of exact scalars, or a ScaledArray, as an object array of
    QQ_I elements."""
    return np.asarray(_to_qi(np.asarray(arr, dtype=object)), dtype=object)


def _frac(x):
    return Fraction(int(x.numerator), int(x.denominator))


def from_qq_i(v):
    """A QQ_I element (or an exact scalar) as a GaussianRational, which
    exactla reads."""
    v = qq_i(v)
    return GaussianRational(_frac(v.x), _frac(v.y))


_from_qi = np.frompyfunc(from_qq_i, 1, 1)


def _shifted(v, by):
    """The exact scalar ``v + by`` for a rational ``by``."""
    return GaussianRational(v.re + by, v.im) if isinstance(v, GaussianRational) else v + by


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
    """Same shape and dtype, and every entry equal."""
    ref, got = np.asarray(ref), np.asarray(got)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    for x, y in zip(_qi(ref).reshape(-1), _qi(got).reshape(-1)):
        assert x == y, (x, y)


def _exact(arr):
    """An object array of exact scalars as the ScaledArray exactla takes;
    any other array as it is."""
    return xla.from_object(arr) if type(arr) is np.ndarray and arr.dtype == object else arr


def _assert_matches_dot(a, b):
    """``xla.matmul`` against ``np.dot`` over QQ_I, or over the operands as
    they are when one of them is float."""
    ref = np.dot(_qi(a), _qi(b)) if a.dtype == b.dtype == object else np.dot(a, b)
    _assert_same(ref, xla.matmul(_exact(a), _exact(b)))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("density", [0.1, 1.0])
def test_matmul_matches_dot_reference(gaussian, density):
    rng = np.random.default_rng(11)
    zero = GaussianRational(0) if gaussian else Fraction(0)
    for m, n, p in [(7, 9, 5), (1, 1, 1), (6, 6, 6)]:
        a = _random_exact(rng, (m, n), density, gaussian)
        b = _random_exact(rng, (n, p), density, gaussian)
        a[m // 2, :] = zero                # all-zero row of a
        b[:, p // 2] = zero                # all-zero column of b
        b[n // 2, :] = zero                # all-zero row of b
        _assert_matches_dot(a, b)
        _assert_matches_dot(a, b[:, 0])    # 1-D right operand
        _assert_matches_dot(a[0], b)       # 1-D left operand
        _assert_matches_dot(a[0], b[:, 0])     # two 1-D operands: a scalar
    # products between the two exact kinds
    _assert_matches_dot(_random_exact(rng, (4, 5), 0.5),
                        _random_exact(rng, (5, 3), 0.5, gaussian=True))


def test_matmul_zero_size_shapes():
    rng = np.random.default_rng(12)
    for (m, n), (n2, p) in [((0, 4), (4, 3)), ((3, 4), (4, 0)),
                            ((3, 0), (0, 2)), ((0, 0), (0, 0))]:
        _assert_matches_dot(_random_exact(rng, (m, n), 0.5),
                            _random_exact(rng, (n2, p), 0.5))
    # empty inner axis: a zero result
    _assert_matches_dot(np.full((2, 0), Fraction(1), dtype=object),
                        np.full((0,), Fraction(1), dtype=object))


def test_matmul_int_filled_operands():
    rng = np.random.default_rng(13)
    mat = F.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    ker = _kernel_basis(mat)
    assert ker.shape == (4, 2) and xla.is_zero_matrix(xla.matmul(mat, xla.from_object(ker)))
    _assert_matches_dot(mat, ker)
    _assert_matches_dot(ker.T, _random_exact(rng, (4, 3), 0.3))
    _assert_matches_dot(ker.T, ker)
    # int-filled operands, alone and against Fraction ones
    ints = np.full((3, 4), 0, dtype=object)
    ints[0, 1] = 2
    _assert_matches_dot(ints, np.full((4, 2), 1, dtype=object))
    _assert_matches_dot(ints, _random_exact(rng, (4, 2), 0.3))
    _assert_matches_dot(np.full((2, 2), 0, dtype=object), np.asarray(F.array([[1, 0], [0, 1]])))
    # int terms next to a Fraction zero
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
    """Reference elimination over QQ_I: every row update runs over the whole
    row."""
    a = _qi(mat)
    m, n = a.shape
    pivots, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i, c]), None)
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = 1 / a[r, c]
        a[r, :] = [x * inv for x in a[r, :]]
        for i in range(m):
            f = a[i, c]
            if i != r and f:
                a[i, :] = [x - f * y for x, y in zip(a[i, :], a[r, :])]
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
    got, pivots = xla.rref(xla.from_object(mat))
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
def test_rref_of_identity_augmented_matrix(gaussian):
    # [M | I] with an int identity half
    rng = np.random.default_rng(16)
    for n in (1, 3, 6):
        mat = _random_exact(rng, (n, n), 0.3, gaussian)
        for i in range(n):
            mat[i, i] = _shifted(mat[i, i], 3)
        aug = np.full((n, 2 * n), 0, dtype=object)
        aug[:, :n] = mat
        for i in range(n):
            aug[i, n + i] = 1
        _assert_rref_matches_dense(aug)


def test_rref_int_pivots_stay_exact():
    red, pivots = xla.rref(xla.from_object(np.array([[2, 1], [1, 1], [3, 5]], dtype=object)))
    assert pivots == [0, 1]
    _assert_same(F.array([[1, 0], [0, 1], [0, 0]]), red)     # Fractions, no floats
    ker = _kernel_basis(xla.from_object(np.array([[2, 1, 1]], dtype=object)))
    assert ker[0, 0] == Fraction(-1, 2) and type(ker[0, 0]) is Fraction


@pytest.mark.parametrize("gaussian", [False, True])
def test_max_abs_exact_matches_numpy(gaussian):
    rng = np.random.default_rng(17)
    for shape, density in [((5, 7), 0.2), ((4, 4), 1.0), ((3, 3), 0.0), ((6,), 0.5)]:
        mat = xla.from_object(_random_exact(rng, shape, density, gaussian))
        got = xla.max_abs(mat)
        assert type(got) is float
        assert got == float(np.max(np.abs(xla.to_complex(mat))))
    assert xla.max_abs(xla.from_object(np.empty((0, 4), dtype=object))) == 0.0


def test_float_rank_uses_relative_threshold():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    mat = q @ np.diag([1.0, 1.0, 1.0, 1e-14, 0.0]) @ q.T
    assert xla.rank(mat) == 3


def test_karoubi_annihilator_roots():
    # (x^n - 1)(x^{n+1} - 1) vanishes at the union of the two root sets
    ann = np.array(xla.karoubi_annihilator(3), dtype=float)[::-1]
    for order in (3, 4):
        for k in range(order):
            assert abs(np.polyval(ann, np.exp(2j * np.pi * k / order))) < 1e-12


def _sympy_poly(coeffs):
    return Poly([Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                symbols("x"), domain=QQ)


@pytest.mark.parametrize("n", range(1, 13))
def test_harmonic_crt_poly_properties(n):
    """ann = (x^n - 1)(x^{n+1} - 1) = (x-1)^2 q; r = 1 mod (x-1)^2, r = 0 mod q,
    s = 0 mod (x-1)^2, s(1-x) = 1 mod q, deg r, deg s <= 2n: the conditions
    that pin r and s down, checked in sympy."""
    x = symbols("x")
    ann, r, s = (_sympy_poly(f(n)) for f in (
        xla.karoubi_annihilator, xla.harmonic_crt_poly, xla.green_crt_poly))
    assert ann == Poly((x ** n - 1) * (x ** (n + 1) - 1), x, domain=QQ)
    sq, one_minus_x = Poly((x - 1) ** 2, x, domain=QQ), Poly(1 - x, x, domain=QQ)
    q, rem = ann.div(sq)
    assert rem.is_zero
    assert (r - 1).rem(sq).is_zero and r.rem(q).is_zero
    assert s.rem(sq).is_zero and (s * one_minus_x - 1).rem(q).is_zero
    assert r.degree() <= 2 * n and s.degree() <= 2 * n
    assert all(type(c) is Fraction for f in (xla.karoubi_annihilator,
               xla.harmonic_crt_poly, xla.green_crt_poly) for c in f(n))
    assert xla.harmonic_crt_poly(n)[-1] != 0 and xla.green_crt_poly(n)[-1] != 0


def _fraction_mul(p, q):
    return np.convolve(np.array(p, dtype=object), np.array(q, dtype=object))


def _fraction_mod_ann(p, n):
    p = list(p)
    for i in range(len(p) - 1, 2 * n, -1):
        c = p.pop()
        p[i - n] += c
        p[i - n - 1] += c
        p[i - 2 * n - 1] -= c
    while p and p[-1] == 0:
        p.pop()
    return p


def _fraction_crt_polys(n):
    """Reference r and s built by np.convolve on Fraction object arrays, the
    construction the integer numerators replaced."""
    lin = [Fraction(2 * n + 1, 2 * n * (n + 1)), Fraction(1 - 2 * n, 2 * n * (n + 1))]
    r = tuple(_fraction_mul(_fraction_mul([Fraction(1)] * n, [Fraction(1)] * (n + 1)), lin))
    one_minus_r = -np.array(r, dtype=object)
    one_minus_r[0] += 1

    def t(m):
        return [Fraction(-j, m) for j in range(m)]

    u = (np.append(_fraction_mul(t(n), [Fraction(1)] * (n + 1)), Fraction(0))
         - np.insert(_fraction_mul(t(n + 1), [Fraction(1)] * n), 0, Fraction(0)))
    return r, tuple(_fraction_mod_ann(_fraction_mul(one_minus_r, u), n))


def test_crt_polys_equal_the_fraction_construction():
    for n in range(1, 65):
        r, s = _fraction_crt_polys(n)
        assert xla.harmonic_crt_poly(n) == r and xla.green_crt_poly(n) == s
        assert all(type(c) is Fraction for c in (*r, *s, *xla.harmonic_crt_poly(n),
                                                 *xla.green_crt_poly(n)))


@pytest.mark.parametrize("fn", [xla.karoubi_annihilator, xla.harmonic_crt_poly,
                                xla.green_crt_poly])
def test_crt_polys_need_positive_degree(fn):
    with pytest.raises(ValueError):
        fn(0)


def test_eval_poly_matrix_horner():
    mat = F.array([[0, 1], [0, 0]])
    # p(x) = 1 + x on a nilpotent gives I + N
    out = xla.eval_poly([Fraction(1), Fraction(1)], mat)
    assert np.array_equal(out, F.array([[1, 1], [0, 1]]))


# -- the scaled-integer kernel against independent oracles ----------------------
#
# sympy's DomainMatrix over QQ and QQ_I, np.dot on object arrays of QQ_I
# elements and the whole-row _dense_rref above share no code with exactla.

def _exact_entry(rng, gaussian, big):
    scale = 2 ** 62 if big else 1
    re = Fraction(int(rng.integers(-5, 6)) * scale + int(rng.integers(-2, 3)),
                  int(rng.integers(1, 4)) * (scale if rng.random() < 0.3 else 1))
    if not gaussian:
        return re
    return GaussianRational(re, Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))))


def _random_matrix(rng, shape, gaussian=False, big=False, density=0.6):
    out = np.full(shape, Fraction(0), dtype=object)
    for idx in np.ndindex(*shape):
        if rng.random() < density:
            out[idx] = _exact_entry(rng, gaussian, big)
    return out


def _sympy(arr, gaussian):
    arr = np.asarray(arr)
    conv = qq_i if gaussian else _qq
    rows = [[conv(v) for v in row] for row in arr.tolist()]
    return DomainMatrix(rows, arr.shape, QQ_I if gaussian else QQ)


def _from_sympy(dm, gaussian):
    rows = dm.to_list()
    out = np.empty(dm.shape, dtype=object)
    for idx in np.ndindex(*dm.shape):
        x = rows[idx[0]][idx[1]]
        out[idx] = GaussianRational(_frac(x.x), _frac(x.y)) if gaussian else _frac(x)
    return out


def _assert_canonical(mat):
    assert isinstance(mat, xla.ScaledArray)
    assert type(mat.den) is int and mat.den > 0
    ints = mat.num.reshape(-1).tolist()
    if mat.im is not None:
        assert mat.im.shape == mat.num.shape and mat.im.dtype == mat.num.dtype
        assert any(mat.im.reshape(-1).tolist())        # None exactly when zero
        ints += mat.im.reshape(-1).tolist()
    assert math.gcd(mat.den, *ints) == 1
    assert mat.num.dtype == (np.int64 if mat.bound < 2 ** 63 else object)


def _assert_values(got, ref):
    got, ref = _qi(got), _qi(ref)
    assert got.shape == ref.shape
    for x, y in zip(got.reshape(-1).tolist(), ref.reshape(-1).tolist()):
        assert x == y, (x, y)


_SHAPES = [(4, 5, 3), (1, 1, 1), (6, 6, 6), (0, 3, 2), (3, 0, 2), (3, 2, 0)]


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("gaussian", [False, True])
def test_kernel_matches_sympy_and_object_dot(gaussian, big):
    rng = np.random.default_rng(21)
    for m, n, p in _SHAPES:
        a = _random_matrix(rng, (m, n), gaussian, big)
        b = _random_matrix(rng, (n, p), gaussian, big)
        got = xla.matmul(xla.from_object(a), xla.from_object(b))
        _assert_canonical(got)
        _assert_values(got, np.dot(_qi(a), _qi(b)))
        _assert_values(got, _from_sympy(_sympy(a, gaussian) * _sympy(b, gaussian), gaussian))
        if p:       # a 1-D right operand
            _assert_values(xla.matmul(xla.from_object(a), xla.from_object(b[:, 0])),
                           np.dot(_qi(a), _qi(b[:, 0])))
        for mat in (a, b, np.concatenate([a, a[:1]]) if m else a):
            exact = xla.from_object(mat)
            red, pivots = xla.rref(exact)
            _assert_canonical(red)
            ref, ref_pivots = _sympy(mat, gaussian).rref()
            assert pivots == list(ref_pivots) == _dense_rref(mat)[1]
            _assert_values(red, _from_sympy(ref, gaussian))
            assert xla.rank(exact) == _sympy(mat, gaussian).rank()
            coker = xla.left_null(exact)
            _assert_canonical(coker)
            rows, cols = mat.shape
            assert coker.den == 1 and coker.shape == (rows - _sympy(mat, gaussian).rank(), rows)
            assert xla.rank(coker) == coker.shape[0]
            _assert_values(xla.matmul(coker, exact), np.zeros((coker.shape[0], cols), dtype=object))
        if m and n:
            exact = xla.from_object(a)
            inside = xla.matmul(exact, xla.from_object(_random_matrix(rng, (n, 2), gaussian, big)))
            outside = xla.from_object(_random_matrix(rng, (m, 1), gaussian, big, density=1.0))
            for rhs in (inside, outside):
                stacked = _sympy(np.concatenate([a, rhs], axis=1), gaussian)
                want = stacked.rank() == _sympy(a, gaussian).rank()
                assert _in_image(exact, rhs) is want


def _near_2_19(rng, shape, gaussian):
    """Integer (Gaussian-integer) matrix with entries of magnitude 2**18 to
    2**19: the first elimination step fits int64 over Z and over Z[i]
    (8 top**3 < 2**63), and its 2 x 2 minors make a later step widen."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        re = int(rng.integers(2 ** 18, 2 ** 19)) * int(rng.choice((-1, 1)))
        im = int(rng.integers(-2 ** 19 + 1, 2 ** 19))
        out[idx] = GaussianRational(re, im) if gaussian else re
    return out


def _widen_flags(monkeypatch, mat):
    """The widening decision of each step of one elimination of ``mat``."""
    flags, widen = [], xla._widen

    def spy(re, im, wide, *rest):
        flags.append(bool(wide))
        return widen(re, im, wide, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(xla, "_widen", spy)
        xla._eliminate(mat.num, mat.im)
    return flags


def _parts(mat):
    return [part.tobytes() for part in (mat.num, mat.im) if part is not None]


def _left_null_reference(obj):
    """Rows y with y obj = 0 read off ``_dense_rref(obj^T)``: 1 at a free
    column f and -R[i, f] at the i-th pivot column."""
    red, pivots = _dense_rref(obj.T)
    rows = []
    for f in sorted(set(range(obj.shape[0])) - set(pivots)):
        y = [qq_i(0)] * obj.shape[0]
        y[f] = qq_i(1)
        for i, c in enumerate(pivots):
            y[c] = -red[i, f]
        rows.append((f, y))
    return rows


@pytest.mark.parametrize("gaussian", [False, True])
def test_elimination_that_widens_midway_matches_references(monkeypatch, gaussian):
    rng = np.random.default_rng(23)
    base = _near_2_19(rng, (4, 4), gaussian)
    aug = np.concatenate([base, np.eye(4, dtype=np.int64).astype(object)], axis=1)
    tall = np.concatenate([base, base[:1]])                 # a left null row
    wide = np.concatenate([base, base[:, :1]], axis=1)      # a non-pivot column
    for obj in (tall, wide, tall.T, aug):
        mat = xla.from_object(obj)
        flags = _widen_flags(monkeypatch, mat)
        assert mat.num.dtype == np.int64 and flags[0] is False and flags[-1] is True, flags
        before = _parts(mat)
        red, pivots = xla.rref(mat)
        assert _parts(mat) == before
        _assert_canonical(red)
        ref, ref_pivots = _sympy(obj, gaussian).rref()
        dense, dense_pivots = _dense_rref(obj)
        assert pivots == list(ref_pivots) == dense_pivots
        _assert_values(red, _from_sympy(ref, gaussian))
        _assert_values(red, dense)
        assert xla.rank(mat) == _sympy(obj, gaussian).rank() == len(pivots)
        assert _parts(mat) == before
        coker = xla.left_null(mat)
        assert _parts(mat) == before
        _assert_canonical(coker)
        got, ref_rows = _qi(coker), _left_null_reference(obj)
        assert coker.den == 1 and len(ref_rows) == coker.shape[0]
        for row, (f, y) in zip(got, ref_rows):
            assert list(row) == [row[f] * v for v in y]


@pytest.mark.parametrize("gaussian", [False, True])
def test_eval_poly_matches_sympy_horner(gaussian):
    rng = np.random.default_rng(22)
    for n, big in [(0, False), (1, False), (4, False), (5, True)]:
        mat = _random_matrix(rng, (n, n), gaussian, big)
        coeffs = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5))) for _ in range(6)]
        got = xla.eval_poly(coeffs, xla.from_object(mat))
        _assert_canonical(got)
        K = _sympy(mat, gaussian)
        ref = DomainMatrix.zeros((n, n), K.domain)
        for c in reversed(coeffs):
            ref = ref * K + DomainMatrix.eye(n, K.domain) * K.domain.convert(QQ(c.numerator, c.denominator))
        _assert_values(got, _from_sympy(ref, gaussian))
    assert np.asarray(xla.eval_poly([], F.array([[1, 0], [0, 1]]))).tolist() == [[0, 0], [0, 0]]


@pytest.mark.parametrize("gaussian", [False, True])
def test_eval_poly_past_int64_matches_fraction_horner(gaussian):
    # mat = K / 3**25: the Horner step adds c * den**(top - i) * I, which
    # passes 2**63 from the top degree down, so the integer H must widen
    den, n = 3 ** 25, 4
    rng = np.random.default_rng(24)
    num = rng.integers(-5, 6, (n, n))
    num[0, 0] = 1
    im = rng.integers(-5, 6, (n, n)) if gaussian else None
    mat = xla.ScaledArray(num, im, den)
    assert mat.den == den and mat.num.dtype == np.int64
    coeffs = [Fraction(1, 2), Fraction(-3), Fraction(5, 7), Fraction(2), Fraction(-1, 3)]
    got = xla.eval_poly(coeffs, mat)
    _assert_canonical(got)
    assert got.num.dtype == object
    K, eye = _qi(mat), np.eye(n, dtype=int).astype(object)
    ref = _qi(np.zeros((n, n), dtype=object))
    for c in reversed(coeffs):
        ref = np.dot(ref, K) + _qi(eye * c)
    want = xla.from_object(_from_qi(ref))
    assert got.den == want.den
    assert got.num.tolist() == want.num.tolist()
    assert (got.im is None) == (not gaussian)
    assert (None if got.im is None else got.im.tolist()) == \
        (None if want.im is None else want.im.tolist())


def test_object_path_past_int64_and_back():
    big = 2 ** 25
    a = xla.from_object(np.array([[big, 1], [0, big]], dtype=object))
    sq = xla.matmul(a, a)
    assert sq.num.dtype == np.int64                   # bound 2^25 * 2^25 * 2
    cube = xla.matmul(sq, a)                          # bound 2^50 * 2^25 * 2
    _assert_canonical(cube)
    assert cube.num.dtype == object
    _assert_values(cube, np.dot(np.dot(np.asarray(a), np.asarray(a)), np.asarray(a)))
    # a result that fits again goes back to int64
    back = cube - cube + xla.eye_like(cube)
    _assert_canonical(back)
    assert back.num.dtype == np.int64 and back.den == 1
    # zeros and scalars past the bound
    zero = xla.matmul(xla.from_object(np.array([[Fraction(0)]], dtype=object)), cube[:1, :1])
    tiny = xla.from_object(np.array([[Fraction(1, 2 ** 70)]], dtype=object))
    _assert_canonical(tiny * 0)
    _assert_canonical(xla.matmul(tiny - tiny, tiny))
    _assert_canonical(zero * (2 ** 80))
    _assert_values((tiny * (2 ** 80)) - F.array([[2 ** 10]]), [[0]])
    # a 0-d result past the bound: the dot product of two vectors
    row = xla.from_object(np.array([2 ** 62, 2 ** 62], dtype=object))
    assert xla.matmul(row, row)[()] == 2 ** 125
    # elimination past the bound: a 2x2 with 2^62 entries needs its own minors
    huge = xla.from_object(np.array([[2 ** 62, 3], [5, 2 ** 62 + 1]], dtype=object))
    red, pivots = xla.rref(huge)
    assert pivots == [0, 1] and np.asarray(red).tolist() == [[1, 0], [0, 1]]


def test_floats_of_large_entries_round_once():
    vals = [Fraction(2 ** 60 + 1, 3), Fraction(-(2 ** 55) - 3, 2 ** 54 + 1), Fraction(1, 3)]
    mat = xla.from_object(np.array(vals, dtype=object))
    got = xla.to_complex(mat)
    assert got.tolist() == [complex(v) for v in vals]
    assert xla.max_abs(mat) == max(abs(float(v)) for v in vals)
    gauss = np.array([GaussianRational(v, -v) for v in vals], dtype=object)
    assert xla.to_complex(xla.from_object(gauss)).tolist() == [complex(v) for v in gauss]
    assert xla.max_abs(xla.from_object(gauss)) == \
        float(np.max(np.abs(np.array([complex(v) for v in gauss]))))


def _reference_inverse(mat):
    n = mat.shape[0]
    aug = np.full((n, 2 * n), Fraction(0), dtype=object)
    aug[:, :n] = mat
    for i in range(n):
        aug[i, n + i] = Fraction(1)
    red, pivots = _dense_rref(aug)
    assert pivots[:n] == list(range(n))
    return red[:, n:]


@pytest.mark.parametrize("mode", ["rational", "gaussian"])
@pytest.mark.parametrize("name,n_max", [("z3", 3), ("m2", 2)])
def test_greens_polynomial_equals_inverse_route(name, n_max, mode):
    w = nc.build_window(nc.builtin_algebra(name, mode), n_max)
    K = nc.operator_matrices(w)["k"].blocks
    for degree in range(n_max):
        data = spectral.spectral_data(w, degree)
        for mat in (data.P, data.P_perp, data.G):
            _assert_canonical(mat)
        P, k = np.asarray(data.P), np.asarray(K[degree])
        eye = np.asarray(xla.eye_like(data.P))
        ref = np.dot(_qi(eye - P), _reference_inverse(eye - k + P))
        _assert_values(data.G, ref)


# -- equality by canonical form -----------------------------------------------------

_BIG = 2 ** 64      # numerators and denominators past int64


@st.composite
def _exact_arrays(draw, shape, gaussian):
    """An exact array of the given shape: small entries, or with ``big``
    ones whose numerators (and some denominators) pass 2**63."""
    big = draw(st.booleans())
    scale = _BIG if big else 1
    dens = st.sampled_from([1, 2, 3, 6, _BIG] if big else [1, 2, 3, 6])
    real_only = draw(st.booleans())

    def frac():
        return Fraction(draw(st.integers(-3, 3)) * scale + draw(st.integers(-1, 1)), draw(dens))

    vals = [GaussianRational(frac(), 0 if real_only else frac()) if gaussian else frac()
            for _ in range(math.prod(shape))]
    out = np.empty(len(vals), dtype=object)
    out[:] = vals
    return xla.from_object(out.reshape(shape))


@st.composite
def _exact_pairs(draw):
    """(a, b, same shape): b equal to a by another construction, a with one
    entry moved, an independent array, or an array of another shape."""
    gaussian = draw(st.booleans())
    shape = draw(st.sampled_from([(3,), (2, 2), (1, 3)]))
    a = draw(_exact_arrays(shape, gaussian))
    how = draw(st.sampled_from(["copy", "rebuilt", "moved", "independent", "reshaped", "longer"]))
    if how == "copy":
        b = xla.from_object(np.asarray(a))
    elif how == "rebuilt":      # (3a + c)/3 - c/3 through the arithmetic
        c = draw(_exact_arrays(shape, gaussian))
        b = (a * 3 + c) * Fraction(1, 3) - c * Fraction(1, 3)
    elif how == "moved":
        vals = np.asarray(a).copy()
        idx = tuple(draw(st.integers(0, n - 1)) for n in shape)
        vals[idx] = _shifted(vals[idx], Fraction(1, draw(st.sampled_from([1, 2, _BIG]))))
        b = xla.from_object(vals)
    elif how == "independent":
        b = draw(_exact_arrays(shape, gaussian))
    elif how == "reshaped":
        b = a.reshape(-1) if len(shape) > 1 else a.reshape(1, -1)
    else:
        b = draw(_exact_arrays((math.prod(shape) + 1,), gaussian))
    return a, b, a.shape == b.shape


@settings(max_examples=300, deadline=None)
@given(_exact_pairs())
def test_equal_is_zero_difference(pair):
    a, b, same_shape = pair
    for mat in (a, b):
        _assert_canonical(mat)
    if same_shape:
        assert xla.equal(a, b) is xla.is_zero_matrix(a - b)
        assert xla.equal(b, a) is xla.equal(a, b)
        assert xla.equal(a, b) is bool(np.array_equal(np.asarray(a), np.asarray(b)))
    else:
        assert xla.equal(a, b) is False
        assert not np.array_equal(np.asarray(a), np.asarray(b))


def test_equal_covers_both_denominator_cases_and_widths():
    half = F.array([Fraction(1, 2), Fraction(3, 2)])
    assert xla.equal(half, F.array([1, 3]) * Fraction(1, 2))              # equal dens
    assert not xla.equal(half, F.array([Fraction(1, 2), Fraction(1, 3)]))  # dens differ
    wide = F.array([2 ** 70, 1]) * Fraction(1, 3)
    assert wide.num.dtype == object
    assert xla.equal(wide, (wide + wide) * Fraction(1, 2))
    assert not xla.equal(wide, wide + F.array([Fraction(1, 3)] * 2))
    assert not xla.equal(F.array([1, 2]), F.array([[1, 2]]))


def test_equal_on_floats_keeps_the_tolerance():
    a = np.array([1.0, 2.0 + 1e-12j])
    assert xla.equal(a, a.copy())
    assert not xla.equal(a, a + 1e-9)
    assert xla.equal(a, a + 1e-9, tol=1e-8)
    assert not xla.equal(a, a[:1], tol=1.0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_form_equality_reads_missing_degrees_as_zero(data):
    gaussian = data.draw(st.booleans())
    u0 = data.draw(_exact_arrays((3,), gaussian))
    u1 = data.draw(_exact_arrays((2,), gaussian))
    zero1 = xla.from_object(np.zeros(2, dtype=object))
    u, u_with_zero = nc.Form({0: u0}), nc.Form({0: u0, 1: zero1})
    v = nc.Form({0: u0, 1: u1})
    for x, y in [(u, u_with_zero), (u_with_zero, u), (u, v), (v, u), (v, u_with_zero),
                 (nc.Form({}), nc.Form({1: zero1})), (nc.Form({}), u)]:
        assert (x == y) is (x - y).is_zero()
        assert (x != y) is not (x == y)
    assert u == u_with_zero and (u == v) is (not np.asarray(u1).any())


# -- overflow guards: carried caps decide as exact bounds do ----------------------

def _obj(rows, gaussian=False):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for idx in np.ndindex(*out.shape):
        v = Fraction(rows[idx[0]][idx[1]])
        out[idx] = GaussianRational(v, v / 2) if gaussian else v
    return out


def _assert_as_reference(got, ref):
    """``got`` holds the fields of ``from_object(ref)``, whose int64/object
    choice reads the exact largest entry."""
    want = xla.from_object(_from_qi(_qi(ref)))
    assert got.num.dtype == want.num.dtype
    assert got.den == want.den
    assert np.array_equal(got.num, want.num)
    assert (got.im is None) == (want.im is None)
    assert got.im is None or (got.im.dtype == want.im.dtype and np.array_equal(got.im, want.im))


@pytest.mark.parametrize("gaussian", [False, True])
def test_guards_past_loose_caps_decide_as_exact_bounds(gaussian):
    S = [[2 ** 31, 2 ** 31 + 1], [2 ** 31 + 1, 2 ** 31]]
    T = _obj([[1, -1], [-1, 1]])

    def loose(scale):
        """S T scaled: entries of size ``scale`` under a carried cap of about
        2^32 ``scale``, as the product cancels."""
        scaled = _obj([[v * scale for v in row] for row in S], gaussian)
        out = xla.matmul(xla.from_object(scaled), xla.from_object(T))
        assert out._bound is None and out._cap >= 2 ** 32 * scale
        return out, np.dot(_qi(scaled), _qi(T))

    # each operation's caps reach 2^63 while its exact bounds stay far below
    cases = [
        (lambda a, b: xla.matmul(a, b), np.dot, 1, 1),
        (lambda a, b: a * 2 ** 40 + b * 0, lambda a, b: a * 2 ** 40, 1, 1),
        (operator.add, operator.add, 2 ** 30, 2 ** 30),
        (operator.sub, operator.sub, 2 ** 30, 2 ** 30),
        (lambda a, b: a * Fraction(1, 3) + b, lambda a, b: a / 3 + b, 1, 2 ** 30),
        (lambda a, b: b - a * Fraction(1, 3), lambda a, b: b - a / 3, 1, 2 ** 30),
    ]
    for op, ref_op, sa, sb in cases:
        (a, a_ref), (b, b_ref) = loose(sa), loose(sb)
        got = op(a, b)
        _assert_as_reference(got, ref_op(a_ref, b_ref))
        assert got.num.dtype == np.int64
        assert (a._bound, b._bound) != (None, None)    # the caps failed, exact bounds decided
    (x, x_ref), (big, big_ref) = loose(1), loose(2 ** 30)
    chain = xla.matmul(xla.matmul(x, x) * 2 ** 60 + big, x)
    _assert_as_reference(chain, np.dot(np.dot(x_ref, x_ref) * 2 ** 60 + big_ref, x_ref))


@pytest.mark.parametrize("gaussian", [False, True])
def test_guards_past_caps_and_bounds_widen(gaussian):
    B = _obj([[2 ** 40, 1], [3, 2 ** 40]], gaussian)
    b2, b2_ref = xla.matmul(xla.from_object(B), xla.from_object(B)), np.dot(_qi(B), _qi(B))
    eye = xla.eye_like(b2)
    steps = [(b2, b2_ref), (xla.matmul(b2, xla.from_object(B)), np.dot(b2_ref, _qi(B))),
             (b2 * 2 ** 30, b2_ref * 2 ** 30), (b2 + b2, b2_ref + b2_ref),
             (b2 - b2 + eye, np.asarray(eye)),                     # back to int64
             (b2 * Fraction(1, 2 ** 70) - b2, b2_ref / 2 ** 70 - b2_ref)]
    for got, ref in steps:
        _assert_as_reference(got, ref)
    assert b2.num.dtype == object and steps[4][0].num.dtype == np.int64


def test_moves_keep_bound_and_cap():
    m = F.array([[1, -7, 2], [3, 0, 5]]) * Fraction(1, 2)
    assert m.bound == 7
    for out in (-m, m.reshape(-1), m.T, m.T.reshape(3, 2)):
        assert out._bound == 7 and out._cap == 7
    loose = xla.matmul(m, F.array([[1], [1], [1]]))
    for out in (-loose, loose.reshape(-1), loose.T):
        assert out._bound is None and out._cap == loose._cap


# -- package code hands exactla ScaledArrays and complex128 arrays only ------------

_ENTRY_POINTS = ("matmul", "to_complex", "max_abs", "is_zero_matrix", "equal", "rref", "rank",
                 "left_null", "solve_in_image", "eval_poly", "eye_like")


@pytest.mark.parametrize("name,mode,n_max", [("z3", "rational", 3), ("m2", "gaussian", 2)])
def test_package_code_never_passes_object_arrays(monkeypatch, name, mode, n_max):
    reached = []

    def guarded(fn):
        def inner(*args, **kwargs):
            reached.extend(fn.__name__ for arg in args
                           if isinstance(arg, np.ndarray) and arg.dtype == object)
            return fn(*args, **kwargs)
        return inner

    for entry in _ENTRY_POINTS:
        real = getattr(xla, entry)
        for module in (xla, spectral, selftest, nc.forms, nc.algebra):
            if getattr(module, entry, None) is real:
                monkeypatch.setattr(module, entry, guarded(real))
    w = nc.build_window(nc.builtin_algebra(name, mode), n_max)
    residuals = nc.window_identity_residuals(w)
    assert all(flag for rows in residuals.values() for _, flag, _ in rows)
    assert nc.spectral_report(w)["passed"]
    rng = np.random.default_rng(41)
    for n in range(n_max):
        coords = rng.integers(-2, 3, (w.degree_dims[n], 2)).tolist()
        vals = [GaussianRational(a, b) if mode == "gaussian" else a for a, b in coords]
        for form in [nc.Form({n: w.field.array(vals)})] + \
                [w.basis_form(n, i) for i in range(w.degree_dims[n])]:
            assert sum(nc.hodge_split(w, form), nc.Form({})) == form
    # criterion 6 on this window alone, a few triples
    monkeypatch.setattr(selftest, "ALGEBRA_SUITE", ((name, n_max),))
    monkeypatch.setattr(selftest, "suite_window", lambda *key: w)
    monkeypatch.setattr(selftest, "RANDOM_TRIPLES", 20)
    assert selftest.random_operator_identities(0)["passed"]
    assert reached == []
