"""The float classical side against exact values.

Integer (or Gaussian-integer) complexes: a canonical rank pattern
conjugated by unimodular changes of basis, with integer Hermitian positive
definite Grams, so every Laplacian

    Delta_k = G_k^-1 D_k^H G_{k+1} D_k + D_{k-1} G_{k-1}^-1 D_{k-1}^H G_k

is a matrix over Q(i).  Its characteristic polynomial is x^b times a
polynomial with nonzero constant term, where b is the Betti number, and
det' Delta_k = (-1)^r times that lowest nonzero coefficient, r = n - b.
The entries are made exact before sympy sees them: a sympy matrix built
from float entries gave det' = 0 instead of 1440.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

import nchodge as nc
from nchodge.foliation import SWEEP_TOL
from nchodge.hodge import DET_TOL, HODGE_TOL

def _exact(re, im):
    """The DomainMatrix over Q(i) of integer arrays ``re + i im``."""
    rows = [[QQ_I(int(a), int(b)) for a, b in zip(ra, rb)] for ra, rb in zip(re, im)]
    return DomainMatrix(rows, re.shape, QQ_I)


def _to_float(dm):
    return np.array([[complex(float(e.x), float(e.y)) for e in row] for row in dm.to_list()],
                    dtype=complex).reshape(dm.shape)


def _adjoint(dm):
    return DomainMatrix([[QQ_I(e.x, -e.y) for e in row] for row in dm.transpose().to_list()],
                        (dm.shape[1], dm.shape[0]), QQ_I)


def _small(rng, shape, gaussian):
    """Integer arrays (re, im) with entries in {-1, 0, 1}; im is zero unless
    ``gaussian``."""
    re = rng.integers(-1, 2, size=shape)
    return re, rng.integers(-1, 2, size=shape) if gaussian else np.zeros(shape, int)


def integer_complex(rng, gaussian):
    """(dims, exact D_k, exact G_k): ranks r_k drawn so that r_k + r_{k-1}
    fits in dims[k], the identity blocks of that pattern conjugated by
    P = lower * upper (unit triangular, so unimodular over Z[i]), and Grams
    A A^H + I."""
    top = int(rng.integers(1, 4))
    dims = [int(rng.integers(1, 6)) for _ in range(top + 1)]
    ranks, prev = [], 0
    for k in range(top):
        ranks.append(int(rng.integers(0, min(dims[k] - prev, dims[k + 1]) + 1)))
        prev = ranks[-1]
    changes = []
    for n in dims:
        lo, up = (_small(rng, (n, n), gaussian) for _ in range(2))
        lower = _exact(np.tril(lo[0], -1) + np.eye(n, dtype=int), np.tril(lo[1], -1))
        upper = _exact(np.triu(up[0], 1) + np.eye(n, dtype=int), np.triu(up[1], 1))
        changes.append(lower * upper)
    diffs = []
    for k in range(top):
        canon = np.zeros((dims[k + 1], dims[k]), int)
        start = ranks[k - 1] if k else 0
        canon[np.arange(ranks[k]), start + np.arange(ranks[k])] = 1
        diffs.append(changes[k + 1] * _exact(canon, np.zeros_like(canon)) * changes[k].inv())
    grams = []
    for n in dims:
        a = _exact(*_small(rng, (n, n), gaussian))
        grams.append(a * _adjoint(a) + DomainMatrix.eye(n, QQ_I))
    return dims, diffs, grams


def exact_det_primes(dims, diffs, grams):
    """Per degree (betti, det'), from the characteristic polynomial of the
    exact Laplacian."""
    top = len(dims) - 1
    out = []
    for k, n in enumerate(dims):
        lap = DomainMatrix.zeros((n, n), QQ_I)
        if k < top:
            lap = lap + grams[k].inv() * _adjoint(diffs[k]) * grams[k + 1] * diffs[k]
        if k >= 1:
            lap = lap + diffs[k - 1] * grams[k - 1].inv() * _adjoint(diffs[k - 1]) * grams[k]
        coeffs = lap.charpoly()                 # highest degree first
        betti = next(j for j, c in enumerate(reversed(coeffs)) if c != QQ_I(0))
        low = coeffs[n - betti]
        assert low.y == 0                       # Delta_k is similar to a Hermitian matrix
        out.append((betti, (-1) ** (n - betti) * float(low.x)))
    return out


# det' is a product of up to 5 squared singular values of W_k.  A backward
# stable SVD moves each sigma by at most about n eps sigma_max, so det' moves
# by at most sum_i 2 n eps sigma_max / sigma_i relative.  Over seeds 0-999,
# both kinds, the drawn W_k had sigma_max / sigma_i up to 4.4e4, which puts
# that bound near 1e-10; the worst error seen was 3.1e-12.  (An eigensolve of
# the formed Laplacian squares those ratios and missed by up to 1.1e-7.)
DET_RTOL = 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
# draws whose det' an eigensolve of the formed Laplacian missed by more
# than DET_RTOL (11 of seeds 0-299, both kinds, did)
@example(4, True)
@example(41, True)
# a draw whose Betti numbers at SWEEP_TOL a cut of the squared spectrum
# could not decide ("Betti routes disagree")
@example(50, True)
def test_integer_complexes_match_their_characteristic_polynomials(seed, gaussian):
    dims, diffs, grams = integer_complex(np.random.default_rng(seed), gaussian)
    exact = exact_det_primes(dims, diffs, grams)
    betti = [b for b, _ in exact]
    cx = nc.make_complex(dims, [_to_float(d) for d in diffs], [_to_float(g) for g in grams])
    for tol in (HODGE_TOL, DET_TOL, SWEEP_TOL):
        assert list(nc.betti_numbers(cx, tol)) == betti, tol
    torsion = nc.rs_torsion(cx)
    for k, (_, det) in enumerate(exact):
        assert torsion["det_prime"][k] == pytest.approx(det, rel=DET_RTOL), k
    log_t = 0.5 * sum((-1) ** k * k * math.log(det) for k, (_, det) in enumerate(exact))
    # log T = (1/2) sum_k (-1)^k k log det'_k, and (1/2) sum_{k <= 3} k = 3
    assert torsion["log_torsion"] == pytest.approx(log_t, abs=3 * DET_RTOL)
    log_z = -0.25 * math.log(exact[1][1]) + 0.75 * math.log(exact[0][1])
    assert nc.abelian_cs_partition(cx)["log_Z"] == pytest.approx(log_z, abs=DET_RTOL)


# The same real complex stored float64 (as make_complex stores it) and
# complex128 runs real and complex LAPACK, each backward stable, so the two
# differ by at most the sum of their errors against the oracle.  Over seeds
# 0-999 the largest relative difference in det' was 2.3e-14 and in log T and
# log Z 1.1e-14, with the Betti numbers equal at every tolerance.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_real_and_complex_storage_agree(seed):
    dims, diffs, grams = integer_complex(np.random.default_rng(seed), False)
    diffs, grams = [_to_float(d) for d in diffs], [_to_float(g) for g in grams]
    real = nc.make_complex(dims, diffs, grams)
    assert all(m.dtype == np.float64 for m in real.diffs + real.grams)
    wide = nc.CochainComplex(dims=tuple(dims), diffs=diffs, grams=grams)
    for tol in (HODGE_TOL, DET_TOL, SWEEP_TOL):
        assert nc.betti_numbers(real, tol) == nc.betti_numbers(wide, tol), tol
    got, want = nc.rs_torsion(real), nc.rs_torsion(wide)
    assert got["det_prime"] == pytest.approx(want["det_prime"], rel=DET_RTOL)
    assert got["log_torsion"] == pytest.approx(want["log_torsion"], abs=3 * DET_RTOL)
    assert nc.abelian_cs_partition(real)["log_Z"] == pytest.approx(
        nc.abelian_cs_partition(wide)["log_Z"], abs=DET_RTOL)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_gaussian_draws_are_stored_complex(seed):
    dims, diffs, grams = integer_complex(np.random.default_rng(seed), True)
    imaginary = any(e.y for m in diffs + grams for row in m.to_list() for e in row)
    cx = nc.make_complex(dims, [_to_float(d) for d in diffs], [_to_float(g) for g in grams])
    want = np.complex128 if imaginary else np.float64
    assert all(m.dtype == want for m in cx.diffs + cx.grams)


def test_the_oracle_reads_a_known_determinant():
    # D = diag(2, 3), Grams I and 2 I: Delta_0 = 2 D^H D and Delta_1 = 2 D D^H
    # are both diag(8, 18), det' = 144
    d = _exact(np.array([[2, 0], [0, 3]]), np.zeros((2, 2), int))
    g0 = DomainMatrix.eye(2, QQ_I)
    g1 = _exact(2 * np.eye(2, dtype=int), np.zeros((2, 2), int))
    assert exact_det_primes([2, 2], [d], [g0, g1]) == [(0, 144.0), (0, 144.0)]


# sigma(D) of the n-site circle are 2 |sin((theta + 2 pi j) / 2n)| with
# alpha = e^{i theta}; each sigma^2 is off by about eps sigma_max / sigma_j
# relative, and summed over j that is a few times n eps log n: 3e-13 at
# n = 256.  The eigvalsh route missed the 256-site e^{0.7i} circle by 1.8e-10.
CIRCLE_RTOL = 1e-12


@pytest.mark.parametrize("n", [8, 64, 256])
@pytest.mark.parametrize("alpha", [-1.0, 1j, -1j, cmath.exp(0.7j)])
def test_twisted_circles_match_the_closed_form(n, alpha):
    cx = nc.twisted_circle_complex(n, alpha)
    gap = abs(1 - alpha)
    torsion = nc.rs_torsion(cx)
    assert torsion["betti"] == [0, 0]
    assert torsion["det_prime"] == pytest.approx([gap ** 2] * 2, rel=CIRCLE_RTOL)
    assert torsion["log_torsion"] == pytest.approx(-math.log(gap), abs=CIRCLE_RTOL)
    assert nc.abelian_cs_partition(cx)["log_Z"] == pytest.approx(math.log(gap),
                                                                   abs=CIRCLE_RTOL)


def exact_projection(m, gram):
    """M (M^H G M)^-1 M^H G, the projection onto the column space of ``m``
    that is orthogonal for the Gram product ``gram``, with M a basis of
    that space taken from the pivot columns of ``m``."""
    n = m.shape[0]
    _, pivots = m.rref()
    if not pivots:
        return DomainMatrix.zeros((n, n), QQ_I)
    basis = m.extract(list(range(n)), list(pivots))
    adjoint = _adjoint(basis)
    return basis * (adjoint * gram * basis).inv() * adjoint * gram


# The harmonic piece comes from an eigensolve of the formed S_k, so by
# Davis--Kahan its error is about n eps lambda_max / lambda_min, with lambda
# the nonzero eigenvalues sigma^2 of W_{k-1} and W_k; the exact and
# coexact pieces, from SVDs, err by the square root of that.  Going back
# from the Cholesky frame multiplies by at most kappa(L_k) = kappa(G_k)^1/2.
# Over seeds 0-999, both kinds, every degree, the error relative to max|v|
# was at most 12 times n eps (sigma_max / sigma_min)^2 kappa(L_k), and at
# most 4.5e-9 in absolute terms (seed 634, gaussian, degree 0).  The draws
# are fixed: one draw in about 1,400 (seed 381, gaussian) ends in
# decompose's own re-sum check, pinned below as an expected failure.
DECOMPOSE_FACTOR = 100


def _decompose_errors(seed, gaussian):
    """Per degree and piece, (where, max |decompose - exact projection|,
    tolerance)."""
    rng = np.random.default_rng(seed)
    dims, diffs, grams = integer_complex(rng, gaussian)
    cx = nc.make_complex(dims, [_to_float(d) for d in diffs], [_to_float(g) for g in grams])
    ranks = nc.hodge._ranks(cx, HODGE_TOL)
    for k, n in enumerate(dims):
        v = _exact(*(rng.integers(-3, 4, size=(n, 1)) for _ in range(2)))
        zero = DomainMatrix.zeros((n, 1), QQ_I)
        exact = exact_projection(diffs[k - 1], grams[k]) * v if k else zero
        # onto the image of the adjoint D*_k = G_k^-1 D_k^H G_{k+1}
        coexact = exact_projection(grams[k].inv() * _adjoint(diffs[k]) * grams[k + 1],
                                   grams[k]) * v if k < cx.top else zero
        want = [_to_float(p).reshape(-1) for p in (v - exact - coexact, exact, coexact)]
        sigma = np.concatenate([cx.singular_values(j)[:ranks[j + 1]]
                                for j in (k - 1, k) if 0 <= j < cx.top])
        spread = (sigma.max() / sigma.min()) ** 2 if sigma.size else 1.0
        scale = np.abs(_to_float(v)).max()
        tol = DECOMPOSE_FACTOR * n * np.finfo(float).eps * spread \
            * math.sqrt(np.linalg.cond(cx.grams[k])) * scale
        for piece, got, expected in zip(("harmonic", "exact", "coexact"),
                                        nc.decompose(cx, k, _to_float(v).reshape(-1)), want):
            yield (k, piece), np.abs(got - expected).max(), tol


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
@example(13, True)
@example(634, True)     # the largest error of seeds 0-999
def test_decompose_matches_the_exact_projections(seed, gaussian):
    for where, error, tol in _decompose_errors(seed, gaussian):
        assert error <= tol, where


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the harmonic vectors of the formed S_0 miss by about 7e-7, "
                          "and decompose's re-sum check (1e-8) fires on a valid complex")
def test_decompose_on_a_draw_whose_pieces_do_not_re_sum():
    for where, error, tol in _decompose_errors(381, True):
        assert error <= tol, where
