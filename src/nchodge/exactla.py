"""Linear algebra over exact object matrices and complex floats.

Exact matrices are numpy object arrays with ``Fraction`` or
``GaussianRational`` entries; float matrices are ``complex128``.  The same
helpers accept both and dispatch on dtype: exact inputs go through
fraction-preserving Gaussian elimination, float inputs through numpy's SVD
based routines.  Ranks and kernels computed on exact input are therefore
*exact* integers, which several invariants in this package rely on.

Exact products, elimination and ``max_abs`` are driven by the nonzero
entries: the operator blocks of a forms window are mostly zero, so only
products of two nonzero entries are formed, and a row operation does
arithmetic only at the nonzero entries of the pivot row.  The blocks stay
dense object arrays.  Every result entry keeps the type the dense
arithmetic (``np.dot``, a whole-row update) would give it: a zero position
that no term reaches takes the typed zero of the promoted entry type from a
small table keyed by entry types, so exact reports do not depend on which
entries were skipped.  Float products are ``np.dot``.

Also hosts the small dense polynomial arithmetic (Fraction coefficients,
low-to-high lists) used to build annihilating-polynomial projections.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np


def is_exact(mat: np.ndarray) -> bool:
    return mat.dtype == object


@functools.cache
def _typed_zero(types: frozenset):
    """The zero that sums and products among entries of ``types`` promote to
    (alike for int, Fraction and GaussianRational); int 0 for no types, as
    ``np.dot`` gives over an empty inner axis.  A table keyed by the types."""
    return sum(t(0) for t in types)


def _types(values) -> frozenset:
    return frozenset(map(type, values))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a b``; a 1-D operand gives a 1-D (or scalar) result.

    For exact ``a`` and ``b``, each row of ``a`` walks its nonzero entries
    ``a_ij`` and adds ``a_ij * b_jk`` over the nonzero entries of row j of
    ``b``.  Float and mixed-dtype input goes to ``np.dot``.
    """
    if not (is_exact(a) and is_exact(b)) or a.ndim not in (1, 2) or b.ndim not in (1, 2):
        return np.dot(a, b)
    if a.ndim == 1:
        return matmul(a[None, :], b)[0]
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shapes {a.shape} and {b.shape} not aligned")
    cols = b if b.ndim == 2 else b[:, None]
    b_nonzero = [[(k, y) for k, y in enumerate(row) if y] for row in cols.tolist()]
    b_types = [_types(col) for col in cols.T.tolist()]
    out = np.empty((a.shape[0], cols.shape[1]), dtype=object)
    zero_rows = {}    # typed zeros of one output row, by the entry types of a's row
    for i, row in enumerate(a.tolist()):
        a_types = _types(row)
        zeros = zero_rows.get(a_types)
        if zeros is None:
            zeros = zero_rows[a_types] = [_typed_zero(a_types | t) for t in b_types]
        acc = {}
        for j, x in enumerate(row):
            if x:
                for k, y in b_nonzero[j]:
                    acc[k] = acc[k] + x * y if k in acc else x * y
        out_row = list(zeros)
        for k, s in acc.items():
            # a zero term np.dot adds may promote the sum (int -> Fraction)
            out_row[k] = s if type(s) is type(zeros[k]) else s + zeros[k]
        out[i] = out_row
    return out if b.ndim == 2 else out[:, 0]


def to_complex(mat: np.ndarray) -> np.ndarray:
    if mat.dtype != object:
        return np.asarray(mat, dtype=np.complex128)
    out = np.empty(mat.shape, dtype=np.complex128)
    flat_in, flat_out = mat.reshape(-1), out.reshape(-1)
    for i, v in enumerate(flat_in):
        flat_out[i] = complex(v)
    return out


def max_abs(mat: np.ndarray) -> float:
    if mat.size == 0:
        return 0.0
    if is_exact(mat):
        # zeros cannot raise the maximum.  np.abs, not abs(complex): their
        # hypot can differ in the last bit
        nonzero = [complex(v) for v in mat.reshape(-1) if v]
        return float(np.max(np.abs(np.array(nonzero)))) if nonzero else 0.0
    return float(np.max(np.abs(to_complex(mat))))


def is_zero_matrix(mat: np.ndarray, tol: float = 0.0) -> bool:
    if mat.size == 0:
        return True
    if is_exact(mat):
        return all(v == 0 for v in mat.reshape(-1))
    return max_abs(mat) <= tol


def rref(mat: np.ndarray):
    """Reduced row echelon form of an exact matrix.  Returns (R, pivot_cols).

    Row operations do arithmetic only at the nonzero entries of the pivot
    row; R equals, entry and type, what the whole-row updates
    ``row * (1 / pivot)`` and ``row - f * pivot_row`` give.
    """
    m, n = mat.shape
    rows = mat.tolist()
    types = [_types(row) for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        types[r], types[pr] = types[pr], types[r]
        prow, ptypes = rows[r], types[r]
        inv = Fraction(1) / prow[c]      # exact for an int pivot too
        # columns left of c are zero in every row from r down
        nonzero = [k for k, y in enumerate(prow[c:], c) if y]
        for k in nonzero:
            prow[k] = prow[k] * inv
        ptypes = types[r] = _promote_zeros(prow, prow, inv, ptypes, ptypes)
        for i, row in enumerate(rows):
            f = row[c]
            if i == r or not f:
                continue
            for k in nonzero:
                row[k] = row[k] - f * prow[k]
            types[i] = _promote_zeros(row, prow, f, types[i], ptypes)
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = np.empty((m, n), dtype=object)
    for i, row in enumerate(rows):
        out[i] = row
    return out, pivots


def _promote_zeros(row, prow, f, row_types, prow_types):
    """Finish the update of ``row`` by the scalar ``f`` and the pivot row
    ``prow`` (``row * f`` when they are one row, else ``row - f * prow``)
    at the zeros ``z`` of ``prow``.  There the update keeps each value
    ``x`` but may promote its type, as an int entry next to Fraction pivots
    is; the typed zero gives it the type of ``x - f * z``.  ``row_types``
    and ``prow_types`` are entry types before the update; returns the row's
    after it.
    """
    joined = type(_typed_zero(row_types | prow_types | {type(f)}))
    if row_types == {joined}:
        return row_types     # every entry already has the promoted type
    for k, z in enumerate(prow):
        if not z:
            x = row[k]
            zero = _typed_zero(frozenset((type(x), type(f), type(z))))
            if type(zero) is not type(x):
                row[k] = x + zero if x else zero
    return _types(row)


def rank(mat: np.ndarray, rel_tol: float = 1e-10) -> int:
    if mat.size == 0:
        return 0
    if is_exact(mat):
        return len(rref(mat)[1])
    s = np.linalg.svd(to_complex(mat), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def kernel_basis(mat: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Columns spanning the right null space.  Exact basis for exact input,
    orthonormal basis (from the SVD) for float input."""
    m, n = mat.shape
    if n == 0:
        return np.full((0, 0), 0, dtype=object) if is_exact(mat) else np.zeros((0, 0), complex)
    if is_exact(mat):
        red, pivots = rref(mat)
        free = [c for c in range(n) if c not in pivots]
        out = np.full((n, len(free)), 0, dtype=object)
        for j, fc in enumerate(free):
            out[fc, j] = 1
            for i, pc in enumerate(pivots):
                out[pc, j] = -red[i, fc]
        return out
    a = to_complex(mat)
    if m == 0:
        return np.eye(n, dtype=complex)
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        keep = n
    else:
        keep = n - int(np.count_nonzero(s > rel_tol * s[0]))
    return vh.conj().T[:, n - keep:] if keep else np.zeros((n, 0), complex)


def inverse(mat: np.ndarray) -> np.ndarray:
    if not is_exact(mat):
        return np.linalg.inv(to_complex(mat))
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("inverse needs a square matrix")
    aug = np.full((n, 2 * n), 0, dtype=object)
    aug[:, :n] = mat
    for i in range(n):
        aug[i, n + i] = 1
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return red[:, n:]


def solve_in_image(A: np.ndarray, b: np.ndarray, rel_tol: float = 1e-10):
    """Return True when every column of b lies in the column space of A."""
    if b.size == 0 or is_zero_matrix(b, tol=rel_tol * max(1.0, max_abs(b))):
        return True
    if A.size == 0:
        return False
    if is_exact(A) and is_exact(b):
        # rref takes columns left to right, so b's columns carry a pivot
        # exactly when rank([A | b]) > rank(A)
        stacked = np.concatenate([A, b.reshape(A.shape[0], -1)], axis=1)
        return all(c < A.shape[1] for c in rref(stacked)[1])
    Af, bf = to_complex(A), to_complex(b).reshape(A.shape[0], -1)
    x, *_ = np.linalg.lstsq(Af, bf, rcond=None)
    resid = Af @ x - bf
    return max_abs(resid) <= rel_tol * max(1.0, max_abs(bf))


def eval_poly(coeffs, mat: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial (low-to-high Fraction coefficients) at a square
    matrix, by Horner's rule."""
    n = mat.shape[0]
    exact = is_exact(mat)
    cs = list(coeffs) if exact else [complex(float(c)) for c in coeffs]
    if not cs:
        cs = [0]
    out = np.full((n, n), 0, dtype=object) if exact else np.zeros((n, n), complex)
    for c in reversed(cs):
        out = matmul(out, mat)
        for i in range(n):
            out[i, i] = out[i, i] + c
    return out


# -- dense polynomials over the rationals -----------------------------------

def poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_deg(p) -> int:
    return len(poly_trim(p)) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_sub(p, q):
    n = max(len(p), len(q))
    return poly_trim([(p[i] if i < len(p) else 0) - (q[i] if i < len(q) else 0)
                      for i in range(n)])


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_scale(p, c):
    return poly_trim([a * c for a in p])


def poly_divmod(p, q):
    p, q = [Fraction(a) for a in poly_trim(p)], [Fraction(a) for a in poly_trim(q)]
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    while len(rem) >= len(q) and poly_trim(rem):
        shift = len(rem) - len(q)
        f = rem[-1] / q[-1]
        quot[shift] = f
        for i, b in enumerate(q):
            rem[shift + i] -= f * b
        rem = poly_trim(rem)
        if not rem:
            break
    return poly_trim(quot), poly_trim(rem)


def poly_xgcd(p, q):
    """Extended Euclid: returns (g, u, v) with u*p + v*q = g."""
    r0, r1 = poly_trim(p), poly_trim(q)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        quot, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(quot, t1))
    return r0, s0, t0


def poly_eval(p, x):
    out = Fraction(0) if isinstance(x, Fraction) else 0
    for c in reversed(poly_trim(p)):
        out = out * x + c
    return out


def x_pow_minus_one(n: int):
    """Coefficients of x**n - 1."""
    out = [Fraction(0)] * (n + 1)
    out[0], out[-1] = Fraction(-1), Fraction(1)
    return out


def karoubi_annihilator(n: int):
    """(x**n - 1)(x**(n+1) - 1): annihilates the cyclic rotation in degree n >= 1."""
    return poly_mul(x_pow_minus_one(n), x_pow_minus_one(n + 1))


def harmonic_crt_poly(n: int):
    """Polynomial r with r = 1 mod (x-1)**2 and r = 0 mod q, where the degree-n
    annihilator factors as (x-1)**2 * q and q(1) = n(n+1) != 0.  Evaluating r at
    the rotation operator yields the spectral projection onto the generalized
    eigenspace of eigenvalue 1 -- exactly, over the rationals."""
    if n < 1:
        raise ValueError("harmonic projector polynomial needs degree >= 1")
    ann = karoubi_annihilator(n)
    sq = [Fraction(1), Fraction(-2), Fraction(1)]  # (x-1)**2
    q, rem = poly_divmod(ann, sq)
    if rem:
        raise AssertionError("annihilator not divisible by (x-1)^2")
    g, u, v = poly_xgcd(sq, q)
    if poly_deg(g) != 0:
        raise AssertionError("(x-1)^2 and cofactor are not coprime")
    r = poly_scale(poly_mul(v, q), 1 / g[0])
    return r
