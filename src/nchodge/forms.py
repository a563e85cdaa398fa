"""Graded window of noncommutative differential forms with operator blocks.

Degree ``n`` over an algebra ``A`` of dimension ``d`` is spanned by tensors
``f_{i0} (x) fbar_{i1} (x) ... (x) fbar_{in}`` in the unit-first basis: the
leading index runs over the whole basis and each bar index over the
complement ``1..d-1``, so the degree has dimension ``d*(d-1)**n``.  A basis
element is stored as the index word ``(i0, ..., in)`` and the basis is
ordered lexicographically in that word.  In the familiar notation the word
is the form ``a0*da1*...*dan``.

Each operator is defined once, on basis words, and assembled into one
block per degree; the blocks are the only way operators act on forms, one
matrix product per component.  Exact blocks and form vectors are
scaled-integer arrays (``exactla.ScaledArray``); float ones are
``complex128``.

* ``d``      -- ``a0 da1..dan  ->  1 da0 da1..dan`` (dies when a0 = 1),
* ``b``      -- Hochschild boundary
  ``sum_{j<n} (-1)^j (a0,..,aj*a{j+1},..,an) + (-1)^n (an*a0, a1,..,a{n-1})``,
* ``k``      -- cyclic rotation
  ``(-1)^n (an, a0,..,a{n-1}) + (-1)^{n-1} (1, an*a0, a1,..,a{n-1})``,
  the identity on degree 0,
* ``bd``, ``db`` -- b*d and d*b, formed once per degree below the top,
* ``one_minus_k`` -- I - k; on degrees below the window top it equals
  bd + db (``window_identity_residuals`` reports the residual),
* ``L``      -- the rescaled Laplacian  b(Nd) + (Nd)b = (n+1) bd + n db,
  where N multiplies degree n by n.

The product needs only right multiplication by the basis (Cuntz-Quillen
1995).  Write a degree-q form as ``v = sum_j e_j dv_j``; a form times
``1 da1..daq`` just appends ``a1..aq`` to its words, so
``u * v = sum_j (u * e_j)(1 dv_j)``, and by the graded Leibniz rule
``(a0 da1..dan) * e_j = sum_{i<=n} (-1)^{n-i} (s0,..,s_i*s_{i+1},..,s{n+1})``
over ``s = (a0, .., an, j)``.  The block ``R[p]`` of shape
``(d*dims[p], dims[p])``, built per degree by the first product that needs
it, holds a word's product with ``e_j`` at rows ``(image, j)``.  As
``v.reshape(d, -1)`` lists ``v`` by leading index, the degree-(p+q)
product is ``(R[p] u).reshape(-1, d) @ v.reshape(d, -1)``, flattened.

Identities involving only degree-preserving operators hold on every window
degree; identities that pass through ``d`` hold on degrees up to
``n_max - 1``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import exactla
from .algebra import Algebra
from .errors import DegreeOutOfWindow, WindowTooLarge

DEFAULT_DIM_CAP = 20000
_CAP_ENV = "NCHODGE_CAP"


def dimension_cap() -> int:
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError:
        raise WindowTooLarge(f"cannot parse {_CAP_ENV}={raw!r} as an integer")


@dataclass
class Form:
    """Finitely supported graded vector: degree -> coefficient vector.

    Exact vectors are held as ``exactla.ScaledArray`` (object arrays of the
    field's scalars are converted once, here); float ones are complex128."""

    components: dict

    def __post_init__(self):
        self.components = {n: exactla.asexact(v) for n, v in self.components.items()}

    def component(self, n, window=None):
        if n in self.components:
            return self.components[n]
        if window is not None:
            return window.zero_vector(n)
        raise KeyError(n)

    def __add__(self, other):
        out = dict(self.components)
        for n, v in other.components.items():
            out[n] = out[n] + v if n in out else v
        return Form(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Form({n: -v for n, v in self.components.items()})

    def scale(self, c):
        """Multiply by a scalar of the field (in float mode, by any number)."""
        return Form({n: v * (c if exactla.is_exact(v) else complex(c))
                     for n, v in self.components.items()})

    def is_zero(self, tol=0.0):
        return all(exactla.is_zero_matrix(v, tol) for v in self.components.values())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self - other).is_zero()


@dataclass
class GradedOperator:
    """Degree-homogeneous operator: one matrix block per source degree."""

    name: str
    degree_shift: int
    blocks: dict


class FormsWindow:
    """Degrees ``0..n_max`` of the form algebra over one algebra."""

    def __init__(self, algebra: Algebra, n_max: int, cap=None):
        if n_max < 1:
            raise DegreeOutOfWindow(f"window needs n_max >= 1, got {n_max}")
        cap = dimension_cap() if cap is None else int(cap)
        d = algebra.dim
        dims = [d * (d - 1) ** n for n in range(n_max + 1)]
        worst = max(dims)
        if worst > cap:
            raise WindowTooLarge(
                f"degree dimension {worst} exceeds cap {cap} "
                f"(dim {d}, n_max {n_max}); raise {_CAP_ENV} to override",
                dims=dims, cap=cap)
        self.algebra = algebra
        self.field = algebra.field
        self.n_max = n_max
        self.degree_dims = dims
        self.bases = []
        self.index = []
        for n in range(n_max + 1):
            words = [(i0,) + rest
                     for i0 in range(d)
                     for rest in itertools.product(range(1, d), repeat=n)]
            self.bases.append(words)
            self.index.append({w: i for i, w in enumerate(words)})
        self._ops = None
        self._spectral_cache = {}
        self._right = {}        # degree -> R block of multiply_forms

    # -- bookkeeping -----------------------------------------------------------

    def check_degree(self, n, *, top=None):
        top = self.n_max if top is None else top
        if not 0 <= n <= top:
            raise DegreeOutOfWindow(f"degree {n} outside window 0..{top}")

    def zero_vector(self, n):
        self.check_degree(n)
        return exactla.asexact(np.zeros(self.degree_dims[n], dtype=self.field.dtype))

    def basis_form(self, n, idx) -> Form:
        self.check_degree(n)
        vec = np.zeros(self.degree_dims[n], dtype=self.field.dtype)
        vec[idx] = 1
        return Form({n: vec})

    def word_label(self, word) -> str:
        labels = self.algebra.norm_labels
        if len(word) == 1:
            return labels[word[0]]
        head = "" if word[0] == 0 else labels[word[0]] + " "
        return head + " ".join("d" + labels[i] for i in word[1:])

    def form_from_element(self, x) -> Form:
        """Degree-0 form from original-basis algebra coordinates."""
        return Form({0: exactla.matmul(self.algebra.change_inv, self.algebra._check_vec(x))})

    # -- basis-word expansions ---------------------------------------------------

    def _d_word(self, word):
        if word[0] == 0:
            return []
        return [(self.field.one, (0,) + word)]

    def _b_word(self, word):
        n = len(word) - 1
        if n == 0:
            return []
        one = self.field.one
        alg = self.algebra
        d = alg.dim
        out = []
        for j in range(n):
            sign = one if j % 2 == 0 else -one
            prod = alg.norm_mul(word[j], word[j + 1])
            head, tail = word[:j], word[j + 2:]
            start = 0 if j == 0 else 1       # bar slots kill the unit component
            for m in range(start, d):
                cm = prod[m]
                if cm != 0:
                    out.append((sign * cm, head + (m,) + tail))
        sign = one if n % 2 == 0 else -one
        prod = alg.norm_mul(word[n], word[0])
        for m in range(d):                    # wrap-around lands in the A slot
            cm = prod[m]
            if cm != 0:
                out.append((sign * cm, (m,) + word[1:n]))
        return out

    def _k_word(self, word):
        n = len(word) - 1
        one = self.field.one
        if n == 0:
            return [(one, word)]
        alg = self.algebra
        sign1 = one if n % 2 == 0 else -one
        out = []
        if word[0] != 0:
            out.append((sign1, (word[n], word[0]) + word[1:n]))
        prod = alg.norm_mul(word[n], word[0])
        for m in range(1, alg.dim):
            cm = prod[m]
            if cm != 0:
                out.append((-sign1 * cm, (0, m) + word[1:n]))
        return out

    def _r_word(self, word, j):
        n = len(word) - 1
        s = word + (j,)
        one = self.field.one
        alg = self.algebra
        d = alg.dim
        out = []
        for i in range(n + 1):
            # e_j stays in a bar position unless it is the one being merged;
            # the unit dies there
            if i < n and j == 0:
                continue
            sign = one if (n - i) % 2 == 0 else -one
            prod = alg.norm_mul(s[i], s[i + 1])
            head, tail = s[:i], s[i + 2:]
            start = 0 if i == 0 else 1
            for m in range(start, d):
                cm = prod[m]
                if cm != 0:
                    out.append((sign * cm, head + (m,) + tail))
        return out


def build_window(algebra: Algebra, n_max: int, cap=None) -> FormsWindow:
    return FormsWindow(algebra, n_max, cap=cap)


def _apply(window, name, form, *, top=None):
    op = operator_matrices(window)[name]
    out = {}
    for n, vec in form.components.items():
        window.check_degree(n, top=top)
        if n + op.degree_shift >= 0:
            out[n + op.degree_shift] = exactla.matmul(op.blocks[n], vec)
    return Form(out)


def apply_d(window: FormsWindow, form: Form) -> Form:
    return _apply(window, "d", form, top=window.n_max - 1)


def apply_b(window: FormsWindow, form: Form) -> Form:
    return _apply(window, "b", form)


def apply_k(window: FormsWindow, form: Form) -> Form:
    return _apply(window, "k", form)


def _right_block(window, p):
    """R[p]: a degree-p word's column holds its product with e_j at rows (image, j)."""
    block = window._right.get(p)
    if block is None:
        d, dim, target = window.algebra.dim, window.degree_dims[p], window.index[p]
        index, values = [], []
        for col, word in enumerate(window.bases[p]):
            for j in range(d):
                for val, image in window._r_word(word, j):
                    index.append((target[image] * d + j) * dim + col)
                    values.append(val)
        block = window._right[p] = _block(window, (d * dim, dim), index, values)
    return block


def multiply_forms(window: FormsWindow, u: Form, v: Form) -> Form:
    if not (u.components and v.components):
        return Form({})
    top = max(u.components) + max(v.components)
    if top > window.n_max:
        raise DegreeOutOfWindow(f"product degree {top} exceeds window top {window.n_max}")
    d = window.algebra.dim
    out = {}
    for p, up in u.components.items():
        ue = exactla.matmul(_right_block(window, p), up).reshape(-1, d)
        for q, vq in v.components.items():
            res = exactla.matmul(ue, vq.reshape(d, -1)).reshape(-1)
            out[p + q] = out[p + q] + res if p + q in out else res
    return Form(out)


def _assemble_blocks(window, expand, shift, degrees):
    blocks = {}
    for n in degrees:
        m = n + shift
        shape = (window.degree_dims[m], window.degree_dims[n])
        target = window.index[m]
        index, values = [], []
        for col, word in enumerate(window.bases[n]):
            for val, image in expand(word):
                index.append(target[image] * shape[1] + col)
                values.append(val)
        blocks[n] = _block(window, shape, index, values)
    return blocks


def _block(window, shape, index, values):
    """The block of ``shape`` summing ``values`` at their flat ``index``."""
    if window.field.exact:
        return exactla.from_terms(shape, index, values)
    block = np.zeros(shape, dtype=np.complex128)
    np.add.at(block.reshape(-1), index, values)
    return block


def operator_matrices(window: FormsWindow) -> dict:
    """Assemble and cache the named operator blocks for the whole window."""
    if window._ops is not None:
        return window._ops
    n_max = window.n_max
    d_blocks = _assemble_blocks(window, window._d_word, +1, range(n_max))
    b_blocks = _assemble_blocks(window, window._b_word, -1, range(1, n_max + 1))
    k_blocks = _assemble_blocks(window, window._k_word, 0, range(n_max + 1))
    # formed once; L, the identity residuals and the spectral report read
    # them.  Not on the window top: db there serves one residual only, and
    # forming it would slow every spectral run, which never needs it.
    bd_blocks = {n: exactla.matmul(b_blocks[n + 1], d_blocks[n]) for n in range(n_max)}
    db_blocks = {n: exactla.matmul(d_blocks[n - 1], b_blocks[n]) for n in range(1, n_max)}

    omk_blocks, l_blocks = {}, {}
    for n in range(n_max + 1):
        omk_blocks[n] = exactla.eye_like(k_blocks[n]) - k_blocks[n]
        if n < n_max:
            lnd = bd_blocks[n] * (n + 1)
            if n >= 1:
                lnd = lnd + db_blocks[n] * n
            l_blocks[n] = lnd

    window._ops = {
        "d": GradedOperator("d", +1, d_blocks),
        "b": GradedOperator("b", -1, b_blocks),
        "k": GradedOperator("k", 0, k_blocks),
        "one_minus_k": GradedOperator("one_minus_k", 0, omk_blocks),
        "bd": GradedOperator("bd", 0, bd_blocks),
        "db": GradedOperator("db", 0, db_blocks),
        "L": GradedOperator("L", 0, l_blocks),
    }
    return window._ops


def window_identity_residuals(window: FormsWindow) -> dict:
    """Residuals of the defining operator identities, per degree.

    Keys map to lists of (degree, exact_zero, max_abs) triples.  In the exact
    modes every residual must be literally zero; in float mode the caller
    compares against a tolerance.
    """
    ops = operator_matrices(window)
    D, B, K = ops["d"].blocks, ops["b"].blocks, ops["k"].blocks
    OMK, BD, DB = ops["one_minus_k"].blocks, ops["bd"].blocks, ops["db"].blocks
    n_max = window.n_max
    out = {}

    def record(name, degree, mat):
        entry = (degree, exactla.is_zero_matrix(mat), exactla.max_abs(mat))
        out.setdefault(name, []).append(entry)

    for n in range(n_max - 1):
        record("d_squared", n, exactla.matmul(D[n + 1], D[n]))
    for n in range(2, n_max + 1):
        record("b_squared", n, exactla.matmul(B[n - 1], B[n]))
    for n in range(n_max):
        lap = BD[n]
        if n >= 1:
            lap = lap + DB[n]
        record("laplacian_is_one_minus_k", n, lap - OMK[n])
        record("kd_commute", n, exactla.matmul(K[n + 1], D[n]) - exactla.matmul(D[n], K[n]))
    for n in range(1, n_max + 1):
        record("kb_commute", n, exactla.matmul(K[n - 1], B[n]) - exactla.matmul(B[n], K[n]))

    # powers of k, reused across the degree-local relations
    for n in range(n_max + 1):
        eye = exactla.eye_like(K[n])
        kp = {0: eye}
        p = eye
        for e in range(1, n + 2):
            p = exactla.matmul(p, K[n])
            kp[e] = p
        if n < n_max:
            eye_up = exactla.eye_like(K[n + 1])
            kup = eye_up
            for _ in range(n + 1):
                kup = exactla.matmul(kup, K[n + 1])
            record("k_pow_fixes_d", n, exactla.matmul(kup, D[n]) - D[n])
            kup_n = eye_up
            for _ in range(n):
                kup_n = exactla.matmul(kup_n, K[n + 1])
            bknd = exactla.matmul(B[n + 1], exactla.matmul(kup_n, D[n]))
            record("k_pow_n", n, kp[n] - eye - bknd)
        m = kp[n + 1] - eye
        if n >= 1:
            # the only relation that needs db on the window top
            m = m + (DB[n] if n < n_max else exactla.matmul(D[n - 1], B[n]))
        record("k_pow_n_plus_one", n, m)
        record("cyclic_annihilator", n, exactla.matmul(kp[n] - eye, kp[n + 1] - eye))
    return out
