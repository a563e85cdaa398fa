"""Window construction and the operator identities on small algebras.

The dual-numbers window is small enough to check against hand-computed
matrices: in degree 1 the basis is (dx, x dx) and the rotation acts as
diag(1, -1).
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from sympy import QQ, QQ_I

import nchodge as nc
import nchodge.forms as nc_forms
from nchodge import exactla, spectral
from nchodge.algebra import make_algebra
from nchodge.errors import DegreeOutOfWindow, WindowTooLarge
from nchodge.forms import DEFAULT_DIM_CAP, MAX_N_MAX, dimension_cap
from nchodge.scalars import GaussianRational
from test_exactla import from_qq_i, qq_i


def _m2_over_qi():
    """2x2 matrices over Q(i) in the basis (E11, iE12, E21/2, E22), their
    products taken over sympy's QQ_I."""
    i = QQ_I(0, 1)
    basis = [np.array(m, dtype=object) for m in (
        [[1, 0], [0, 0]], [[0, i], [0, 0]], [[0, 0], [QQ_I(QQ(1, 2), 0), 0]], [[0, 0], [0, 1]])]

    def coords(m):
        return [from_qq_i(v) for v in (m[0, 0], m[0, 1] * -i, 2 * m[1, 0], m[1, 1])]

    c = [[coords(a.dot(b)) for b in basis] for a in basis]
    return make_algebra(4, ("E11", "iE12", "E21/2", "E22"), c, [1, 0, 0, 1], "gaussian",
                        name="m2-qi")


def _m2_nondyadic():
    """Float 2x2 matrices in a random basis f_a = sum_i P[i, a] E_i."""
    base = nc.builtin_algebra("m2", "float")
    P = np.random.default_rng(11).uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    Pinv = np.linalg.inv(P)
    c = np.einsum("ia,jb,ijk,mk->abm", P, P, base.structure.real, Pinv)
    return make_algebra(4, ("f0", "f1", "f2", "f3"), c, Pinv @ base.unit.real, "float",
                        name="m2-nondyadic")


def _truncated_polynomials(mode, scale=1):
    """k[x]/(x^3) in the basis 1, y = x / scale, x^2 (y y = x^2 / scale^2)."""
    c = [[[int(i + j == k) for k in range(3)] for j in range(3)] for i in range(3)]
    c[1][1][2] = Fraction(1, scale ** 2)
    return make_algebra(3, ("1", "y", "x2"), c, [1, 0, 0], mode, name="kx3")


def _upper_triangular(mode):
    """Upper triangular 2x2 matrices T2 in the basis E11, E12, E22."""
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for a, b, ab in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        c[a][b][ab] = 1
    return make_algebra(3, ("E11", "E12", "E22"), c, [1, 0, 1], mode, name="t2")


def _algebra(name, mode):
    made = {"dim-1": lambda: make_algebra(1, ("1",), [[[1]]], [1], mode, name="dim-1"),
            "m2-qi": _m2_over_qi, "m2-nondyadic": _m2_nondyadic,
            "kx3": lambda: _truncated_polynomials(mode), "t2": lambda: _upper_triangular(mode),
            # the structure denominator 2**62 takes the blocks past int64
            "kx3-wide": lambda: _truncated_polynomials(mode, 2 ** 31)}
    return made[name]() if name in made else nc.builtin_algebra(name, mode)


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
    dxdx = dual.basis_form(2, dual.bases[2].index((0, 1, 1)))
    out = nc.apply_b(dual, dxdx)
    assert np.array_equal(out.component(1), dual.field.array([0, 2]))


def test_differential_of_xdx(dual):
    xdx = dual.basis_form(1, dual.bases[1].index((1, 1)))
    out = nc.apply_d(dual, xdx)
    assert np.array_equal(out.component(2), dual.field.array([1, 0]))


def test_product_dx_times_x(dual):
    dx = dual.basis_form(1, dual.bases[1].index((0, 1)))
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


def test_n_max_cap():
    # a dim-2 algebra never meets the dimension cap; n_max is capped alone,
    # and before any degree dimension d (d - 1)^n is computed
    nc.build_window(nc.builtin_algebra("dual-numbers"), MAX_N_MAX)
    for name, n_max in [("dual-numbers", MAX_N_MAX + 1), ("z3", 10 ** 6)]:
        with pytest.raises(WindowTooLarge) as info:
            nc.build_window(nc.builtin_algebra(name), n_max)
        assert info.value.context == {"n_max": n_max, "cap": MAX_N_MAX}


def test_float_window_residuals_small():
    w = nc.build_window(nc.builtin_algebra("m2", "float"), 2)
    res = nc.window_identity_residuals(w)
    worst = max(v for rows in res.values() for _, _, v in rows)
    assert worst < 1e-12


def _random_form(w, rng, degree):
    return nc.Form({degree: w.field.array(
        [int(c) for c in rng.integers(-2, 3, w.degree_dims[degree])])})


# -- per-word reference --------------------------------------------------------
# The package applies d, b, k and the product through blocks built from
# slices of the structure tensor.  The reference below shares no code with
# them: _mul_words multiplies two basis words directly, d prepends the unit
# slot, b(w da) = (-1)^|w| (w a - a w) and k(w da) = (-1)^|w| da w, and the
# loops extend these to forms one coefficient at a time, in Fractions,
# complex floats or, in gaussian mode, sympy QQ_I elements (_ref).

def _ref(w, v):
    return qq_i(v) if w.field.mode == "gaussian" else v


def _mul_words(w, left, right):
    """(a0 da1..dan) * (a{n+1} da{n+2}..dam)
    = sum_i (-1)^{n-i} (a0, .., a_i*a_{i+1}, .., am)."""
    n = len(left) - 1
    s = left + right
    out = []
    for i in range(n + 1):
        # the right factor's A slot lands in a bar position unless it is
        # merged, and the unit dies there
        if i < n and right[0] == 0:
            continue
        sign = 1 if (n - i) % 2 == 0 else -1
        prod = w.algebra.norm_structure[s[i], s[i + 1]]
        for m in range(0 if i == 0 else 1, w.algebra.dim):
            if prod[m] != 0:
                out.append((sign * _ref(w, prod[m]), s[:i] + (m,) + s[i + 2:]))
    return out


def _signed(sign, terms):
    return [(val if sign > 0 else -val, word) for val, word in terms]


def _d_word(w, word):
    return [] if word[0] == 0 else [(1, (0,) + word)]


def _b_word(w, word):
    omega, a = word[:-1], word[-1:]
    sign = (-1) ** (len(omega) - 1)
    return _signed(sign, _mul_words(w, omega, a)) + _signed(-sign, _mul_words(w, a, omega))


def _k_word(w, word):
    if len(word) == 1:
        return [(1, word)]
    return _signed((-1) ** len(word), _mul_words(w, (0, word[-1]), word[:-1]))


def _reference_vector(w, m, terms):
    """Degree-m object vector summing coeff * val at word over ``terms``,
    (coeff, [(val, word), ...]) pairs."""
    vec = np.full(w.degree_dims[m], _ref(w, 0), dtype=object)
    for coeff, expansion in terms:
        for val, word in expansion:
            vec[w.bases[m].index(word)] += coeff * val
    return vec


def _reference_apply(w, expand, shift, vec, n):
    return _reference_vector(w, n + shift, ((_ref(w, c), expand(w, w.bases[n][i]))
                                            for i, c in enumerate(vec) if c != 0))


def _reference_product(w, up, p, vq, q):
    return _reference_vector(w, p + q, (
        (_ref(w, ui) * _ref(w, vj), _mul_words(w, w.bases[p][i], w.bases[q][j]))
        for i, ui in enumerate(up) if ui != 0
        for j, vj in enumerate(vq) if vj != 0))


def _field_vector(w, rng, degree):
    """Random object vector of the field's scalars, complex in the
    gaussian and float modes."""
    size = w.degree_dims[degree]
    re, im = rng.integers(-2, 3, size), rng.integers(-2, 3, size)
    if w.field.mode == "rational":
        return w.field.array([int(a) for a in re])
    if w.field.mode == "gaussian":
        return w.field.array([GaussianRational(int(a), int(b)) for a, b in zip(re, im)])
    return re + 1j * im


def _agree(w, got, ref):
    if w.field.exact:
        return [_ref(w, v) for v in np.asarray(got).tolist()] == ref.tolist()
    return np.max(np.abs(got - ref), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name,n_max,mode", [
    ("z3", 3, "rational"), ("m2", 2, "rational"), ("two-points", 3, "rational"),
    ("m2", 2, "gaussian"), ("z3", 3, "float"), ("m2", 2, "float"),
    ("dim-1", 3, "rational"), ("m2-qi", 2, "gaussian"), ("m2-nondyadic", 2, "float"),
    ("kx3-wide", 2, "rational")])
def test_form_operators_match_word_reference(name, n_max, mode):
    w = nc.build_window(_algebra(name, mode), n_max)
    rng = np.random.default_rng(3)
    vecs = [_field_vector(w, rng, n) for n in range(n_max + 1)]
    for n, vec in enumerate(vecs):
        u = nc.Form({n: vec})
        cases = [(nc.apply_b, _b_word, -1), (nc.apply_k, _k_word, 0)]
        if n < n_max:
            cases.append((nc.apply_d, _d_word, +1))
        for apply, expand, shift in cases:
            if n + shift >= 0:
                got = apply(w, u).component(n + shift)
                assert _agree(w, got, _reference_apply(w, expand, shift, vec, n)), \
                    (apply.__name__, n)
        for q in range(n_max - n + 1):
            got = nc.multiply_forms(w, u, nc.Form({q: vecs[q]})).component(n + q)
            assert _agree(w, got, _reference_product(w, vec, n, vecs[q], q)), (n, q)


def test_right_blocks_built_once_per_degree_and_only_by_products(monkeypatch):
    calls = Counter()
    real = nc_forms._right_block

    def counting(c, p, merges):
        calls[p] += 1
        return real(c, p, merges)

    monkeypatch.setattr(nc_forms, "_right_block", counting)
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    nc.window_identity_residuals(w)
    nc.spectral_report(w)
    assert not calls and not w._right
    rng = np.random.default_rng(9)
    for _ in range(2):
        for p in range(w.n_max + 1):
            for q in range(w.n_max - p + 1):
                nc.multiply_forms(w, _random_form(w, rng, p), _random_form(w, rng, q))
    assert calls == Counter(range(w.n_max + 1))


def test_slot_merges_built_once_per_window(monkeypatch):
    built = Counter()
    real = nc_forms._merges

    def counting(c, top, out):
        before = len(out)
        result = real(c, top, out)
        built.update(range(before + 1, len(out) + 1))
        return result

    monkeypatch.setattr(nc_forms, "_merges", counting)
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    nc.operator_matrices(w)
    assert built == Counter(range(1, w.n_max + 1))
    rng = np.random.default_rng(9)
    for p in range(w.n_max + 1):
        for q in range(w.n_max - p + 1):
            nc.multiply_forms(w, _random_form(w, rng, p), _random_form(w, rng, q))
    # R[p] reads inner_(p+1): the products add inner_(n_max+1) and reuse the rest
    assert built == Counter(range(1, w.n_max + 2))


def test_operator_blocks_ignore_merges_the_products_built_first():
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    rng = np.random.default_rng(9)
    nc.multiply_forms(w, _random_form(w, rng, w.n_max), _random_form(w, rng, 0))
    assert [len(merges) for merges in w._merges.values()] == [w.n_max + 1]
    fresh = nc.build_window(nc.builtin_algebra("z3"), 3)

    def blocks(window):
        return nc_forms._lift(window, lambda c, one: nc_forms._operator_blocks(
            c, one, window.n_max, window._merges.setdefault(one, [])))

    got, want = blocks(w), blocks(fresh)
    assert sorted(got) == sorted(want)
    assert all(exactla.equal(got[key], want[key]) for key in want)


@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_basis_form_and_zero_vector_match_field_arrays(mode):
    w = nc.build_window(nc.builtin_algebra("z3", mode), 3)
    for n in range(w.n_max + 1):
        dim = w.degree_dims[n]
        pairs = [(w.zero_vector(n), [0] * dim)]
        for idx in (0, dim - 1):
            pairs.append((w.basis_form(n, idx).component(n), [int(i == idx) for i in range(dim)]))
        for got, entries in pairs:
            want = w.field.array(entries)
            if mode == "float":
                assert got.dtype == want.dtype == np.complex128
                assert got.shape == want.shape and np.array_equal(got, want)
                continue
            assert type(got) is exactla.ScaledArray
            assert (got.den, got.im, got.num.dtype, got.num.tolist(), got.bound, got.cap) \
                == (want.den, want.im, want.num.dtype, want.num.tolist(), want.bound, want.cap)


def test_float_blocks_hold_no_negative_zero():
    # (-1) * 0.0 is -0.0, which a report would print as "-0.0"
    for name, n_max in (("dual-numbers", 3), ("two-points", 3), ("m2", 2), ("z3", 3),
                        ("m2-nondyadic", 2), ("dim-1", 2)):
        w = nc.build_window(_algebra(name, "float"), n_max)
        for p in range(n_max + 1):      # builds the R block of degree p
            nc.multiply_forms(w, nc.Form({p: w.zero_vector(p)}), nc.Form({0: w.zero_vector(0)}))
        ops = nc.operator_matrices(w)
        for block in [b for op in "dbk" for b in ops[op].blocks.values()] + list(w._right.values()):
            for part in (block.real, block.imag):
                assert not np.any(np.signbit(part) & (part == 0)), name


def _bits(arr):
    arr = np.asarray(arr)
    return arr.tolist() if arr.dtype == object else arr.view(np.uint8).tolist()


def test_kron_helper_is_np_kron():
    rng = np.random.default_rng(5)
    ints = [rng.integers(-9, 10, shape) for shape in ((3, 4), (2, 5), (0, 3), (2, 0))]
    cplx = [a + 1j * b.astype(float) * 0.5 for a, b in zip(ints, ints)]
    cplx[0][0, 0] = -0.0 - 0.0j         # signed zeros in the products
    for kind in (ints, [a.astype(object) * 2 ** 70 for a in ints], cplx):
        for a in kind:
            for b in kind:
                got, ref = nc_forms._kron(a, b), np.kron(a, b)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("name,n_max,mode", [
    ("z3", 3, "rational"), ("m2", 2, "gaussian"), ("m2-nondyadic", 2, "float"),
    ("kx3-wide", 2, "rational")])
def test_blocks_are_bitwise_the_np_kron_ones(monkeypatch, name, n_max, mode):
    def blocks():
        w = nc.build_window(_algebra(name, mode), n_max)
        for p in range(n_max + 1):      # builds the R block of degree p
            nc.multiply_forms(w, nc.Form({p: w.zero_vector(p)}), nc.Form({0: w.zero_vector(0)}))
        ops = nc.operator_matrices(w)
        return [b for op in "dbk" for b in ops[op].blocks.values()] + list(w._right.values())

    got = blocks()
    monkeypatch.setattr(nc_forms, "_kron", np.kron)
    for block, ref in zip(got, blocks(), strict=True):
        if isinstance(block, exactla.ScaledArray):
            assert block.den == ref.den and block.num.dtype == ref.num.dtype
            assert _bits(block.num) == _bits(ref.num)
            assert (block.im is None) == (ref.im is None)
            assert block.im is None or _bits(block.im) == _bits(ref.im)
        else:
            assert block.dtype == ref.dtype and _bits(block) == _bits(ref)


@pytest.mark.parametrize("mode", ["rational", "gaussian"])
def test_hochschild_homology_matches_closed_forms(mode):
    # dim HH_n = dim - rank b_n - rank b_{n+1} on the normalized complex;
    # closed forms from Loday, Cyclic Homology, and Keller 1998
    for name, expected in (("dual-numbers", [2, 1, 1, 1, 1]), ("two-points", [2, 0, 0, 0]),
                           ("m2", [1, 0, 0]), ("z3", [3, 0, 0, 0]),
                           ("kx3", [3, 2, 2, 2]), ("t2", [2, 0, 0, 0])):
        w = nc.build_window(_algebra(name, mode), len(expected))
        B = nc.operator_matrices(w)["b"].blocks
        ranks = [0] + [exactla.rank(B[n]) for n in range(1, w.n_max + 1)]
        hh = [w.degree_dims[n] - ranks[n] - ranks[n + 1] for n in range(len(expected))]
        assert hh == expected, name


def test_form_api_on_scaled_vectors():
    gw = nc.build_window(nc.builtin_algebra("m2", "gaussian"), 2)
    rw = nc.build_window(nc.builtin_algebra("dual-numbers"), 3)
    u = nc.Form({1: exactla.from_object(np.array([Fraction(1, 2), 0], dtype=object))})
    assert u == rw.basis_form(1, 0).scale(Fraction(1, 2))
    # the field's scalar scales in every mode
    c = GaussianRational(1, 2)
    vec = _field_vector(gw, np.random.default_rng(4), 1)
    assert np.array_equal(np.asarray(nc.Form({1: vec}).scale(c).component(1)), vec * c)
    assert np.array_equal(np.asarray(u.scale(c).component(1)),
                          np.array([GaussianRational(Fraction(1, 2), 1), 0], dtype=object))
    fw = nc.build_window(nc.builtin_algebra("m2", "float"), 2)
    assert np.array_equal(fw.basis_form(0, 1).scale(1j).component(0), [0, 1j, 0, 0])
    assert np.array_equal(fw.basis_form(0, 1).scale(c).component(0), [0, 1 + 2j, 0, 0])
    # a missing degree reads as the window's zero vector
    for w in (rw, gw, fw):
        zero = nc.Form({}).component(1, w)
        assert zero.shape == (w.degree_dims[1],) and exactla.is_zero_matrix(zero)
        assert exactla.is_exact(zero) == w.field.exact
    with pytest.raises(KeyError):
        nc.Form({}).component(1)


def test_bd_and_db_are_formed_once_per_degree(monkeypatch):
    calls, real = [], exactla.matmul

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    alg = nc.builtin_algebra("z3")
    monkeypatch.setattr(exactla, "matmul", counting)
    monkeypatch.setattr(spectral, "matmul", counting)
    w = nc.build_window(alg, 3)
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
