"""Linear algebra over exact scaled-integer matrices and complex floats.

An exact matrix is a :class:`ScaledArray`: integer numpy arrays ``num``
and ``im`` (the imaginary part over Q(i); ``None`` when it is zero, and then
no imaginary arithmetic runs) over one Python-int denominator ``den > 0``,
kept canonical: the gcd of ``den`` and every entry is 1.  The canonical
form is unique, so :func:`equal` compares shape, ``den``, ``num`` and
``im`` and runs no arithmetic.

Entries are int64 while no step can overflow: a product while max|a| max|b|
(inner dim) < 2**63, twice that with two imaginary parts; a sum while the
rescaled operands stay below 2**63; an elimination step while its
intermediates do.  Past a bound the same numpy code runs on
``dtype=object`` Python ints, and a result that fits goes back to int64.
The guards read no entries while they can help it: each array carries a
cap on max|num| from the operation that made it (the product or sum bound
above, divided by the gcd the result is reduced by; moves and sign flips
keep it), and the exact largest entry is read, once, only when the caps
reach 2**63.  The int64/object choice is therefore always the one the
exact bounds make.

Elimination is fraction-free (Bareiss 1968, *Sylvester's identity and
multistep integer-preserving Gaussian elimination*): a Gauss-Jordan pass
whose step at pivot ``p = A_rc`` is one whole-matrix update ``A <- (p A -
A[:, c] A[r]) / p_prev``, dividing exactly (every entry is a minor of the
input), after which row r, which the update zeroes, is put back.  Over Q(i)
it runs on Gaussian integers, where the division is exact too.  Before each
step, with M the largest entry, it widens to object ints for good once
2 M**2 (over Z) or 8 M**3 (over Z[i], the division multiplying 4 M**2 by a
conjugate pivot) reaches 2**63.  Exact ranks are therefore exact integers.
Elimination serves :func:`rref`, :func:`rank` and :func:`left_null`.

Exact image membership goes through a left null basis (cokernel):
:func:`left_null` reads integer rows ``Y`` with ``Y A = 0`` off one
elimination of ``A^T``, and ``b`` lies in Im A exactly when ``Y b = 0``.
A caller that tests many vectors against one fixed ``A`` keeps ``Y`` and
eliminates once.

Float matrices are ``complex128`` (``float64`` for a real Hodge complex)
and go to numpy and LAPACK; every helper takes a ScaledArray or a float
array and dispatches on which, and :func:`to_complex` refuses an object
array instead of rounding it.  Exact
matrices enter at the field edge only: ``ScalarField.matrix_from_json``
parses JSON pairs (:func:`from_pairs`), ``ScalarField.array`` converts raw
scalars (:func:`from_object`); ``np.asarray`` reads one out as objects.

Also hosts the closed-form Karoubi CRT polynomials (Fraction coefficients,
low to high) that give P and G as polynomials in k.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational

_LIMIT = 2 ** 63        # int64 holds magnitudes below this
_FLOAT_EXACT = 2 ** 53  # and float64 holds integers below this exactly
IMAGE_TOL = 1e-10       # relative least squares residual of a float image member


def _opt(fn, part, *args):
    """``fn(part, *args)`` for an imaginary part that may be None (zero)."""
    return None if part is None else fn(part, *args)


class ScaledArray:
    """Exact array ``(num + i im) / den`` in canonical form.

    ``_bound`` caches the exact largest numerator magnitude; ``_cap`` is an
    upper bound on it carried from the operation that made the array (None
    when unknown), so the overflow guards need no pass over the entries."""

    __slots__ = ("num", "im", "den", "_bound", "_cap")
    __array_ufunc__ = None       # numpy operators defer to the reflected ones here
    __hash__ = None
    # dtype, __array__ and elementwise != serve numpy callers such as perfbench's tracer
    dtype = np.dtype(object)     # as np.asarray gives it: exact scalar entries

    def __init__(self, num, im=None, den=1, cap=None):
        num, den = np.asarray(num), int(den)
        im = np.asarray(im) if im is not None and np.count_nonzero(im) else None
        if den < 0:
            num, im, den = -num, _opt(np.negative, im), -den
        g = 1 if den == 1 else _gcd(den, num)
        if im is not None and g != 1:
            g = _gcd(g, im)
        if g != 1:
            num, im = _widen(num, im, g >= _LIMIT)       # a zero over a huge den
            num, im, den = num // g, _opt(operator.floordiv, im, g), den // g
            cap = _opt(operator.floordiv, cap, g)
        self.num, self.im, self.den, self._bound, self._cap = num, im, den, None, cap
        if num.dtype != np.int64 or (im is not None and im.dtype != np.int64):
            self.num, self.im = _widen(num, im, True, np.int64 if self._below(_LIMIT) else object)

    @classmethod
    def _of(cls, num, im, den, bound, cap):
        """Wrap arrays that are already canonical."""
        out = object.__new__(cls)
        out.num, out.im, out.den, out._bound, out._cap = num, im, den, bound, cap
        return out

    def _map(self, fn):
        """``fn`` applied to both parts; it moves entries or flips their signs,
        so the bound and the cap carry over."""
        return ScaledArray._of(fn(self.num), _opt(fn, self.im), self.den, self._bound, self._cap)

    @property
    def bound(self) -> int:
        """The largest numerator magnitude, real or imaginary (cached)."""
        if self._bound is None:
            self._bound = self._cap = max(_absmax(self.num), _absmax(self.im))
        return self._bound

    @property
    def cap(self) -> int:
        """An upper bound on :attr:`bound`: the carried cap, or the exact
        bound when none was carried."""
        return self.bound if self._cap is None else self._cap

    def _below(self, limit) -> bool:
        """``bound < limit``, decided by the cap when it can be."""
        return self.cap < limit or self.bound < limit

    shape = property(lambda self: self.num.shape)
    ndim = property(lambda self: self.num.ndim)
    size = property(lambda self: self.num.size)
    T = property(lambda self: self._map(np.transpose))

    def reshape(self, *shape):
        im = None if self.im is None else self.im.reshape(*shape)
        return ScaledArray._of(self.num.reshape(*shape), im, self.den, self._bound, self._cap)

    def __neg__(self):
        return self._map(np.negative)

    def __getitem__(self, key):
        num, im = self.num[key], _opt(operator.getitem, self.im, key)
        if np.ndim(num):
            return ScaledArray(num, im, self.den, self._cap)
        re = Fraction(int(num), self.den)
        return re if im is None else GaussianRational(re, Fraction(int(im), self.den))

    def __array__(self, dtype=None, copy=None):
        """Object array of Fraction entries, GaussianRational ones when the
        value has an imaginary part."""
        vals = [Fraction(v, self.den) for v in self.num.reshape(-1).tolist()]
        if self.im is not None:
            vals = [GaussianRational(r, Fraction(i, self.den))
                    for r, i in zip(vals, self.im.reshape(-1).tolist())]
        out = np.empty(len(vals), dtype=object)
        out[:] = vals
        out = out.reshape(self.shape)
        return out if dtype is None else out.astype(dtype)

    def __repr__(self):
        return f"ScaledArray({self.num!r}, im={self.im!r}, den={self.den})"

    def _combine(self, other, op):
        """``op`` (add or sub) of two ScaledArrays over the lcm of their
        denominators; equal denominators need no rescaling."""
        if type(other) is not ScaledArray:
            return NotImplemented
        if self.den == other.den:
            den, sa, sb = self.den, 1, 1
        else:
            den = math.lcm(self.den, other.den)
            sa, sb = den // self.den, den // other.den
        cap, wide = _guard(self, other, 0, sa, sb)
        (ar, ai), (br, bi) = _widen(self.num, self.im, wide), _widen(other.num, other.im, wide)
        if sa != 1 or sb != 1:
            ar, ai, br, bi = ar * sa, _opt(operator.mul, ai, sa), br * sb, _opt(operator.mul, bi, sb)
        im = ai if bi is None else op(0 if ai is None else ai, bi)
        return ScaledArray(op(ar, br), im, den, cap)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __mul__(self, other):
        """Product with an int, Fraction or GaussianRational scalar."""
        if not isinstance(other, (int, Fraction, GaussianRational)):
            return NotImplemented
        parts = (other.re, other.im) if isinstance(other, GaussianRational) else (other, 0)
        den = math.lcm(*(x.denominator for x in parts))
        cr, ci = (x.numerator * (den // x.denominator) for x in parts)
        cap, wide = _guard(self, self, 0, 2 * max(abs(cr), abs(ci)))
        re, im = _cprod(operator.mul, *_widen(self.num, self.im, wide), cr, ci or None)
        return ScaledArray(re, im, self.den * den, cap)

    __rmul__ = __mul__

    def __ne__(self, other):
        """Elementwise, as numpy arrays compare, against 0 or a ScaledArray."""
        if type(other) is ScaledArray:
            return (self - other) != 0
        if not (isinstance(other, int) and other == 0):
            raise TypeError(f"a ScaledArray compares with 0 or a ScaledArray, "
                            f"not {type(other).__name__}")
        return (self.num != 0) | (_imag_or_zeros(self) != 0)

    def __eq__(self, other):
        return ~self.__ne__(other)

    def to_json(self, gaussian=False):
        """Nested lists of reduced ``[num, den]`` pairs, one per entry
        (``[[re_num, re_den], [im_num, im_den]]`` when ``gaussian``), the
        JSON scalars that ``ScalarField.matrix_from_json`` reads back."""
        def pairs(num):
            g = np.gcd(_widen(num, None, self.den >= _LIMIT)[0], self.den)
            return np.stack([num // g, self.den // g], axis=-1)

        out = pairs(self.num)
        if gaussian:
            out = np.stack([out, pairs(_imag_or_zeros(self))], axis=-2)
        return out.tolist()


def _guard(a, b, terms, sa=0, sb=0):
    """``(c, c >= 2**63)`` for ``c = terms x y + sa max(x, 1) + sb max(y, 1)``,
    which bounds a product of ``a`` and ``b`` (``terms`` products an entry) or
    a sum of multiples of them, ``x`` and ``y`` read on the carried caps first
    and on the exact bounds (one pass each, cached) only when that reaches the
    limit, so the int64/object choice is the one the exact bounds make."""
    for attr in ("cap", "bound"):
        x, y = getattr(a, attr), getattr(b, attr)
        c = terms * x * y + sa * max(x, 1) + sb * max(y, 1)
        if c < _LIMIT:
            break
    return c, c >= _LIMIT


def _gcd(g, a) -> int:
    """gcd of ``g`` and every entry of ``a``; ``math.gcd`` over the entries
    up to 32 of them (and on Python ints), where np.gcd.reduce costs more."""
    if a.size > 32 and a.dtype != object:
        return math.gcd(g, int(np.gcd.reduce(a, axis=None)))
    return math.gcd(g, *a.ravel().tolist())


def _absmax(a) -> int:
    # a[None] is never 0-d: np.abs of a 0-d object array is a bare int
    return int(np.abs(a[None]).max()) if a is not None and a.size else 0


def _widen(re, im, wide, dtype=object):
    """(re, im) as ``dtype`` arrays when ``wide``."""
    return (re.astype(dtype), _opt(np.ndarray.astype, im, dtype)) if wide else (re, im)


def _imag_or_zeros(mat):
    return np.zeros_like(mat.num) if mat.im is None else mat.im


def _cprod(op, ar, ai, br, bi):
    """The bilinear product ``op`` of ar + i ai and br + i bi as a (re, im)
    pair; a None part is zero."""
    if bi is None:
        return op(ar, br), _opt(op, ai, br)
    if ai is None:
        return op(ar, br), op(ar, bi)
    return op(ar, br) - op(ai, bi), op(ar, bi) + op(ai, br)


def is_exact(mat) -> bool:
    return type(mat) is ScaledArray


def from_object(arr) -> ScaledArray:
    """The exact array of an object array (or scalar) of int, Fraction and
    GaussianRational entries."""
    arr = np.asarray(arr, dtype=object)
    return from_pairs([(v.re, v.im) if isinstance(v, GaussianRational) else (v, 0)
                       for v in arr.reshape(-1).tolist()], arr.shape)


def from_pairs(pairs, shape) -> ScaledArray:
    """The exact array of ``shape`` whose entries, row-major, are the
    ``(re, im)`` pairs of ints and Fractions ``pairs``, over the lcm of
    their denominators."""
    index = [i for i, (re, im) in enumerate(pairs) if re or im]
    parts = [pairs[i] for i in index]
    den = math.lcm(*(x.denominator for pair in parts for x in pair))
    ints = [[x.numerator * (den // x.denominator) for x in part] for part in zip(*parts)]
    top = max(map(abs, sum(ints, [])), default=0)
    out = [np.zeros(len(pairs), dtype=object if top >= _LIMIT else np.int64) for _ in range(2)]
    for part, terms in zip(out, ints):
        part[index] = terms
    return ScaledArray(out[0].reshape(shape), out[1].reshape(shape), den, top)


def eye_like(mat):
    """The identity matching square ``mat`` in size and kind."""
    n, one = mat.shape[0], min(mat.shape[0], 1)
    return ScaledArray._of(np.eye(n, dtype=np.int64), None, 1, one, one) if is_exact(mat) \
        else np.eye(n, dtype=np.complex128)


def matmul(a, b):
    """Matrix product ``a b``; a 1-D operand gives a 1-D (or 0-d) result.

    Exact operands multiply their numerators with ``np.dot`` and their
    denominators as Python ints.  Float and mixed input goes to ``np.dot``.
    """
    if not (is_exact(a) and is_exact(b)):
        return np.dot(np.asarray(a), np.asarray(b))
    terms = (2 if a.im is not None and b.im is not None else 1) * a.num.shape[-1]
    cap, wide = _guard(a, b, terms)
    re, im = _cprod(np.dot, *_widen(a.num, a.im, wide), *_widen(b.num, b.im, wide))
    return ScaledArray(re, im, a.den * b.den, cap)


def _to_float(num, den, small) -> np.ndarray:
    """num / den correctly rounded to float64, as ``float(Fraction)`` is;
    ``small`` says that every numerator is below 2**53."""
    if small and den < _FLOAT_EXACT:
        return num.astype(np.float64) / den     # one IEEE division: rounded once
    return np.array([v / den for v in num.reshape(-1).tolist()],
                    dtype=np.float64).reshape(num.shape)


def to_complex(mat) -> np.ndarray:
    if not is_exact(mat):
        if np.asarray(mat).dtype.kind not in "biufc":     # an object array would round
            raise TypeError(f"to_complex needs a numeric dtype, not {np.asarray(mat).dtype}")
        return np.asarray(mat, dtype=np.complex128)
    out = np.empty(mat.shape, dtype=np.complex128)
    small = mat._below(_FLOAT_EXACT)
    out.real = _to_float(mat.num, mat.den, small)
    out.imag = 0.0 if mat.im is None else _to_float(mat.im, mat.den, small)
    return out


def _float_array(mat) -> np.ndarray:
    """A float64 array as it is, so that it keeps the real LAPACK drivers;
    anything else through :func:`to_complex`."""
    if type(mat) is np.ndarray and mat.dtype == np.float64:
        return mat
    return to_complex(mat)


def max_abs(mat) -> float:
    if mat.size == 0:
        return 0.0
    if is_exact(mat) and mat.im is None:
        return mat.bound / mat.den      # Python int division: correctly rounded
    # np.abs, not abs(complex): their hypot can differ in the last bit.  Of a
    # real x, np.abs is hypot(x, 0) = |x|, so float64 needs no complex copy
    return float(np.max(np.abs(_float_array(mat))))


def is_zero_matrix(mat, tol: float = 0.0) -> bool:
    if is_exact(mat):
        return mat.im is None and not np.count_nonzero(mat.num)
    if mat.size == 0:
        return True
    return max_abs(mat) <= tol


def equal(a, b, tol: float = 0.0) -> bool:
    """Whether ``a`` and ``b`` hold the same values.  Exact arrays compare
    their canonical fields, shape, ``den``, ``num`` and ``im``, with no
    arithmetic; float ones test ``max_abs(a - b) <= tol``.  Arrays of
    different shapes are never equal."""
    if a.shape != b.shape:
        return False
    if not (is_exact(a) and is_exact(b)):
        return max_abs(a - b) <= tol
    if a.den != b.den or (a.im is None) != (b.im is None):
        return False
    return _same(a.num, b.num) and (a.im is None or _same(a.im, b.im))


def _same(x, y) -> bool:
    """Whether integer arrays of one shape hold the same entries."""
    return x.tobytes() == y.tobytes() if x.dtype == y.dtype == np.int64 else bool((x == y).all())


def _eliminate(re, im):
    """Fraction-free Gauss-Jordan elimination of the Gaussian-integer matrix
    ``re + i im``.  Returns (re, im, pivot columns, last pivot as a (real,
    imaginary) pair); every pivot entry of the result equals the last
    pivot, so dividing by it gives the reduced form."""
    m, n = re.shape
    re, im = re.copy(), _opt(np.copy, im)
    prev, pivots = (1, None), []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        live = re[r:, c] if im is None else re[r:, c] | im[r:, c]     # 0 where both parts are
        hits = live.nonzero()[0]
        if not hits.size:
            continue
        for part in (re, im) if hits[0] else ():
            if part is not None:
                part[[r, r + hits[0]]] = part[[r + hits[0], r]]
        if re.dtype != object:      # the widening rule of the module docstring
            top = max(_absmax(re), _absmax(im))
            re, im = _widen(re, im, (2 * top ** 2 if im is None else 8 * top ** 3) >= _LIMIT)
        row = re[r].copy(), None if im is None else im[r].copy()
        piv = (int(re[r, c]), None if im is None else int(im[r, c]))
        f = _cprod(operator.mul, re[:, c, None], None if im is None else im[:, c, None], *row)
        if im is None:      # A <- (p A - f A_r) / p_prev in place, on the copy
            re *= piv[0]
            re -= f[0]
            re //= prev[0]
        else:
            pa = _cprod(operator.mul, *piv, re, im)
            re, im = _divide(pa[0] - f[0], pa[1] - f[1], prev)
            im[r] = row[1]
        re[r] = row[0]      # the step zeroes the pivot row: put it back
        prev = piv
        pivots.append(c)
    return re, im, pivots, prev


def _divide(re, im, q):
    """Exact quotient of the Gaussian-integer array re + i im by q = (real,
    imaginary)."""
    qr, qi = q
    if not qi:
        return re // qr, _opt(operator.floordiv, im, qr)
    re, im = _cprod(operator.mul, re, im, qr, -qi)
    return re // (qr * qr + qi * qi), im // (qr * qr + qi * qi)


def rref(mat):
    """Reduced row echelon form of an exact matrix.  Returns (R, pivot_cols)."""
    re, im, pivots, (pr, pi) = _eliminate(mat.num, mat.im)
    if pi:      # R = A / p = A conj(p) / |p|^2
        wide = 2 * max(_absmax(re), _absmax(im)) * max(abs(pr), abs(pi)) >= _LIMIT
        (re, im), pr = _cprod(operator.mul, *_widen(re, im, wide), pr, -pi), pr * pr + pi * pi
    return ScaledArray(re, im, pr), pivots


def rank(mat, rel_tol: float = 1e-10) -> int:
    if mat.size == 0:
        return 0
    if is_exact(mat):
        return len(rref(mat)[1])
    return rank_of_singular_values(np.linalg.svd(_float_array(mat), compute_uv=False),
                                   rel_tol)


def rank_of_singular_values(s, rel_tol: float) -> int:
    """The numerical rank from descending singular values ``s``: how many
    exceed ``rel_tol`` times the largest; an all-zero list has rank 0."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def left_null(A) -> ScaledArray:
    """Integer rows Y spanning the left null space {y : y A = 0} of an exact
    m x n matrix, so rank Y = m - rank A and b lies in Im A exactly when
    Y b = 0 (over Q and over Q(i): the pairing is bilinear, no conjugate).

    One elimination of A^T gives R = (num + i im) / den; the free column f
    yields the row with den at f and -num[i, f] - i im[i, f] at the i-th
    pivot column, read straight off the integers."""
    red, pivots = rref(A.T)
    m = A.shape[0]
    taken = set(pivots)
    free = [i for i in range(m) if i not in taken]
    rows = np.arange(len(free))

    def part(src, diag):
        wide = src.dtype == object or diag >= _LIMIT
        out = np.zeros((len(free), m), dtype=object if wide else np.int64)
        out[rows, free] = diag
        out[:, pivots] = -src[:len(pivots), free].T
        return out

    return ScaledArray(part(red.num, red.den), _opt(part, red.im, 0))


def solve_in_image(A, b):
    """Return True when every column of the float matrix b lies in the column
    space of A, to ``IMAGE_TOL``; exact callers test ``left_null(A) b = 0``."""
    if b.size == 0 or is_zero_matrix(b, tol=IMAGE_TOL * max(1.0, max_abs(b))):
        return True
    if A.size == 0:
        return False
    Af, bf = to_complex(A), to_complex(b).reshape(A.shape[0], -1)
    x, *_ = np.linalg.lstsq(Af, bf, None)      # cutoff eps * max(shape) on numpy 1 and 2
    resid = Af @ x - bf
    return max_abs(resid) <= IMAGE_TOL * max(1.0, max_abs(bf))


def eval_poly(coeffs, mat):
    """Evaluate a polynomial (low-to-high Fraction coefficients) at a square
    exact matrix, by Horner's rule on integers: with ``mat = K / d`` and
    coefficients ``R_i / D``, ``H <- H K + R_i d^(m-i) I`` from the top
    degree m down ends at ``H = D d^m p(mat)``."""
    n = mat.shape[0]
    cs = [Fraction(c) for c in coeffs] or [Fraction(0)]
    scale, top = math.lcm(*(c.denominator for c in cs)), len(cs) - 1
    k, h = (mat.num, mat.im), (np.zeros((n, n), dtype=mat.num.dtype), None)
    h_cap = 0       # carried bound on H's entries, as in the ScaledArray guards
    for i in range(top, -1, -1):
        c = cs[i].numerator * (scale // cs[i].denominator) * mat.den ** (top - i)
        h_cap = 2 * h_cap * mat.cap * n + abs(c)
        if h[0].dtype != object and h_cap >= _LIMIT:
            h_cap = 2 * max(_absmax(h[0]), _absmax(h[1])) * mat.bound * n + abs(c)
            if h_cap >= _LIMIT:
                h, k = _widen(*h, True), _widen(*k, True)
        h = _cprod(np.dot, *h, *k)
        h[0].flat[::n + 1] += c
    return ScaledArray(h[0], h[1], scale * mat.den ** top)


# -- the Karoubi CRT polynomials ---------------------------------------------
#
# In degree n the rotation k satisfies ann(k) = 0 with ann = (x^n - 1)(x^(n+1) - 1)
# = (x-1)^2 q, q = S_n S_(n+1) and S_m = 1 + x + ... + x^(m-1).  The spectral
# projection onto Ker (1-k)^2 is P = r(k) and the Green's operator G = s(k) for
# the unique r, s of degree <= 2n below (Chinese remainder theorem mod (x-1)^2 q).
# All three depend on the degree alone; they are formed once per process and
# shared, so they are returned as tuples of Fractions, low to high.

def _mul(p, q):
    """Product of two coefficient sequences (np.convolve on Fraction objects)."""
    return np.convolve(np.array(p, dtype=object), np.array(q, dtype=object))


def _mod_ann(p, n):
    """p reduced mod the degree-n annihilator (x^(2n+1) = x^(n+1) + x^n - 1),
    trailing zeros trimmed."""
    p = list(p)
    for i in range(len(p) - 1, 2 * n, -1):
        c = p.pop()
        p[i - n] += c
        p[i - n - 1] += c
        p[i - 2 * n - 1] -= c
    while p and p[-1] == 0:
        p.pop()
    return p


@functools.cache
def karoubi_annihilator(n: int):
    """(x**n - 1)(x**(n+1) - 1) = x**(2n+1) - x**(n+1) - x**n + 1: annihilates
    the cyclic rotation in degree n >= 1."""
    if n < 1:
        raise ValueError("the Karoubi annihilator needs degree >= 1")
    out = [Fraction(0)] * (2 * n + 2)
    out[0], out[n], out[n + 1], out[-1] = Fraction(1), Fraction(-1), Fraction(-1), Fraction(1)
    return tuple(out)


@functools.cache
def harmonic_crt_poly(n: int):
    """r = q ((2n+1) - (2n-1) x) / (2n(n+1)): r = 1 mod (x-1)**2, as q(1) =
    n(n+1) and q'(1)/q(1) = (2n-1)/2, and r = 0 mod q.  Evaluating r at the
    rotation operator yields the spectral projection onto the generalized
    eigenspace of eigenvalue 1 -- exactly, over the rationals."""
    if n < 1:
        raise ValueError("harmonic projector polynomial needs degree >= 1")
    lin = [Fraction(2 * n + 1, 2 * n * (n + 1)), Fraction(1 - 2 * n, 2 * n * (n + 1))]
    return tuple(_mul(_mul([Fraction(1)] * n, [Fraction(1)] * (n + 1)), lin))


@functools.cache
def green_crt_poly(n: int):
    """s = (1-r) u mod ann, with u = t_n S_(n+1) - x t_(n+1) S_n and t_m =
    -(1/m) sum_(j<m) j x**j.  t_m (1-x) = 1 mod S_m and S_(n+1) - x S_n = 1,
    so u (1-x) = 1 mod q: s = 0 mod (x-1)**2 and s*(1-x) = 1 - r modulo ann,
    and s*r = 0 modulo it, so G = s(k) inverts 1-k on the complement of
    P = r(k) and vanishes on Im(P): the Green's operator, exactly, with no
    matrix inverse."""
    one_minus_r = -np.array(harmonic_crt_poly(n), dtype=object)
    one_minus_r[0] += 1

    def t(m):
        return [Fraction(-j, m) for j in range(m)]

    u = (np.append(_mul(t(n), [Fraction(1)] * (n + 1)), Fraction(0))
         - np.insert(_mul(t(n + 1), [Fraction(1)] * n), 0, Fraction(0)))
    return tuple(_mod_ann(_mul(one_minus_r, u), n))
