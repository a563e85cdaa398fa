"""Graded window of noncommutative differential forms with operator blocks.

Degree ``n`` over an algebra ``A`` of dimension ``d`` is spanned by tensors
``f_{i0} (x) fbar_{i1} (x) ... (x) fbar_{in}`` in the unit-first basis: the
leading index runs over the whole basis and each bar index over the
complement ``1..d-1``, so the degree has dimension ``d*(d-1)**n``.  A basis
element is stored as the index word ``(i0, ..., in)`` and the basis is
ordered lexicographically in that word.  In the familiar notation the word
is the form ``a0*da1*...*dan``.

Each operator and the product are defined once, on basis words; one loop
extends them linearly to forms, and one assembles the blocks, one per
degree.  Exact blocks go straight from the word expansions into
scaled-integer arrays (``exactla.ScaledArray``); float blocks are
``complex128``.  Form vectors are object arrays of the field's scalars.

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

The product of forms follows the graded Leibniz pattern of moving the left
factor's trailing differential across the right factor:

    (a0 da1..dan) * (a{n+1} da{n+2}..dam)
        = sum_{i=0..n} (-1)^{n-i} (a0, .., a_i*a_{i+1}, .., am),

expanded over the nonzero coefficient pairs of the factors; the window
keeps each pair of basis words' expansion once it is formed.

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
from .scalars import GAUSSIAN

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
    """Finitely supported graded vector: degree -> coefficient vector."""

    components: dict

    def degrees(self):
        return sorted(self.components)

    def component(self, n, window=None):
        if n in self.components:
            return self.components[n]
        if window is not None:
            return window.zero_vector(n)
        raise KeyError(n)

    def copy(self):
        return Form({n: v.copy() for n, v in self.components.items()})

    def _binary(self, other, op):
        out = {}
        for n in set(self.components) | set(other.components):
            a, b = self.components.get(n), other.components.get(n)
            if a is None:
                out[n] = op(np.zeros_like(b), b)
            elif b is None:
                out[n] = op(a, np.zeros_like(a))
            else:
                out[n] = op(a, b)
        return Form(out)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self):
        return Form({n: -v for n, v in self.components.items()})

    def scale(self, c):
        return Form({n: v * c for n, v in self.components.items()})

    def is_zero(self, tol=0.0):
        return all(exactla.is_zero_matrix(v, tol) for v in self.components.values())

    def max_abs(self) -> float:
        vals = [exactla.max_abs(v) for v in self.components.values()]
        return max(vals, default=0.0)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self - other).is_zero()


@dataclass
class GradedOperator:
    """Degree-homogeneous operator: one matrix block per source degree.

    Missing blocks act as zero."""

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
        self._products = {}     # (left word, right word) -> _mul_words expansion

    # -- bookkeeping -----------------------------------------------------------

    def check_degree(self, n, *, top=None):
        top = self.n_max if top is None else top
        if not 0 <= n <= top:
            raise DegreeOutOfWindow(f"degree {n} outside window 0..{top}")

    def zero_vector(self, n) -> np.ndarray:
        self.check_degree(n)
        return self.field.zeros((self.degree_dims[n],))

    def basis_form(self, n, idx) -> Form:
        vec = self.zero_vector(n)
        vec[idx] = self.field.one
        return Form({n: vec})

    def word_label(self, word) -> str:
        labels = self.algebra.norm_labels
        if len(word) == 1:
            return labels[word[0]]
        head = "" if word[0] == 0 else labels[word[0]] + " "
        return head + " ".join("d" + labels[i] for i in word[1:])

    def form_from_element(self, x) -> Form:
        """Degree-0 form from original-basis algebra coordinates."""
        vec = exactla.matmul(self.algebra.change_inv, self.algebra._check_vec(x))
        return Form({0: exactla.to_object(vec, self.field.mode == GAUSSIAN)})

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

    def _mul_words(self, left, right):
        out = self._products.get((left, right))
        if out is not None:
            return out
        n = len(left) - 1
        s = left + right
        one = self.field.one
        alg = self.algebra
        d = alg.dim
        out = []
        for i in range(n + 1):
            # a term keeps the right factor's A slot in a bar position unless
            # it is the one being merged; the unit dies there
            if i < n and right[0] == 0:
                continue
            sign = one if (n - i) % 2 == 0 else -one
            prod = alg.norm_mul(s[i], s[i + 1])
            head, tail = s[:i], s[i + 2:]
            start = 0 if i == 0 else 1
            for m in range(start, d):
                cm = prod[m]
                if cm != 0:
                    out.append((sign * cm, head + (m,) + tail))
        self._products[left, right] = out
        return out

    # -- linear extension ----------------------------------------------------------

    def _accumulate(self, m, terms):
        """Degree-m vector: the sum of ``coeff * val`` at ``word`` over
        ``terms``, an iterable of (coeff, [(val, word), ...]) pairs."""
        vec = self.zero_vector(m)
        target_index = self.index[m]
        for coeff, expansion in terms:
            for val, word in expansion:
                vec[target_index[word]] += coeff * val
        return vec

    def _apply_words(self, form, expand, shift, *, top=None):
        out = {}
        for n, vec in form.components.items():
            self.check_degree(n, top=top)
            m = n + shift
            if m >= 0:
                words = self.bases[n]
                out[m] = self._accumulate(m, ((coeff, expand(words[col]))
                                              for col, coeff in enumerate(vec)
                                              if coeff != 0))
        return Form(out)


def build_window(algebra: Algebra, n_max: int, cap=None) -> FormsWindow:
    return FormsWindow(algebra, n_max, cap=cap)


def apply_d(window: FormsWindow, form: Form) -> Form:
    return window._apply_words(form, window._d_word, +1, top=window.n_max - 1)


def apply_b(window: FormsWindow, form: Form) -> Form:
    return window._apply_words(form, window._b_word, -1)


def apply_k(window: FormsWindow, form: Form) -> Form:
    return window._apply_words(form, window._k_word, 0)


def multiply_forms(window: FormsWindow, u: Form, v: Form) -> Form:
    degs_u, degs_v = u.degrees(), v.degrees()
    if degs_u and degs_v and degs_u[-1] + degs_v[-1] > window.n_max:
        raise DegreeOutOfWindow(
            f"product degree {degs_u[-1] + degs_v[-1]} exceeds window top {window.n_max}")
    out = {}
    for p in degs_u:
        up, left = u.components[p], window.bases[p]
        for q in degs_v:
            vq, right = v.components[q], window.bases[q]
            pairs = ((ui * vj, window._mul_words(left[i], right[j]))
                     for i, ui in enumerate(up) if ui
                     for j, vj in enumerate(vq) if vj)
            m = p + q
            res = window._accumulate(m, pairs)
            out[m] = out[m] + res if m in out else res
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
        if window.field.exact:
            blocks[n] = exactla.from_terms(shape, index, values)
        else:
            blk = np.zeros(shape, dtype=np.complex128)
            np.add.at(blk.reshape(-1), index, values)
            blocks[n] = blk
    return blocks


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
