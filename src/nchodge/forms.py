"""Graded window of noncommutative differential forms with operator blocks.

Degree ``n`` over an algebra ``A`` of dimension ``d`` is ``A (x) Abar^(x)n``
(``Abar = A / scalars``), spanned by tensors ``f_{i0} (x) fbar_{i1} (x) ...
(x) fbar_{in}`` in the unit-first basis: the leading index runs over the
whole basis and each bar index over the complement ``1..d-1``, so with
``e = d - 1`` the degree has dimension ``d*e**n``.  A basis element is stored
as the index word ``(i0, ..., in)`` and the basis is ordered
lexicographically in that word.  In the familiar notation the word is the
form ``a0*da1*...*dan``.  The operators are defined on basis words:

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
over ``s = (a0, .., an, j)``.  The block ``R[p]``, built per degree by the
first product that needs it, holds a word's product with ``e_j`` at rows
``(image, j)``.  As ``v.reshape(d, -1)`` lists ``v`` by leading index, the
degree-(p+q) product is ``(R[p] u).reshape(-1, d) @ v.reshape(d, -1)``.

The operators act on forms only through their blocks, one matrix product per
component.  A block inserts the unit, merges neighbouring slots or moves the
last slot to the front, so it is built from Kronecker products of identities
with slices of the unit-first structure tensor ``c[i, j, m]`` read as (out,
in) maps: ``full = c[:, 1:, :]``, ``bar = c[1:, 1:, 1:]``, ``wrap = c[1:, :, :]``
and ``last = c[1:, :, 1:]``.  With ``Pi`` dropping coordinate 0, ``iota`` its
inclusion, ``e0`` the unit vector and ``rho_n`` permuting columns by
``(a0, .., an) -> (an, a0, ..)``, and the rows of ``R_p`` regrouped to
``(image, j)``::

    D_n = e0 (x) Pi (x) I,   inner_1 = full,
    inner_n = inner_{n-1} (x) I_e + (-1)^{n-1} I (x) bar,
    B_n = inner_n + (-1)^n (wrap (x) I) rho_n,
    K_n = (-1)^n ((iota (x) Pi - e0 (x) Pi wrap) (x) I) rho_n,
    R_p = (-1)^p (inner_p (x) I_e)(I (x) Pi) + I (x) last,  R_0 = c.

Exact blocks are ``exactla.ScaledArray``s built on the integer numerators of
``c``.  Float ones are ``complex128``, their terms added in the order of the
word formulas, so each is bit for bit the sum those give.  Identities of
degree-preserving operators hold on every window degree; identities that
pass through ``d`` hold on degrees up to ``n_max - 1``.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import exactla
from .algebra import Algebra
from .errors import DegreeOutOfWindow, WindowTooLarge

DEFAULT_DIM_CAP = 1024     # z3 at n_max 8 and m2 at n_max 5 fit; exact reports take seconds
MAX_N_MAX = 64             # the exact spectral cost grows with the degree even at dim 2
FLOAT_IDENTITY_TOL = 1e-12  # float windows: an identity residual below this passes
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
    """Finitely supported graded vector: degree -> coefficient vector, an
    ``exactla.ScaledArray`` on exact windows and complex128 on float ones.

    Two forms are equal when they agree in every degree, a missing degree
    standing for a zero component: exact components compare their canonical
    forms (``exactla.equal``), float ones at zero tolerance."""

    components: dict

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
        out = dict(self.components)
        for n, v in other.components.items():
            out[n] = out[n] - v if n in out else -v
        return Form(out)

    def __neg__(self):
        return Form({n: -v for n, v in self.components.items()})

    def scale(self, c):
        """Multiply by a scalar of the field (in float mode, by any number)."""
        return Form({n: v * (c if exactla.is_exact(v) else complex(c))
                     for n, v in self.components.items()})

    def is_zero(self):
        return all(exactla.is_zero_matrix(v) for v in self.components.values())

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        mine, theirs, zero = self.components, other.components, exactla.is_zero_matrix
        return (all(exactla.equal(v, theirs[n]) if n in theirs else zero(v)
                    for n, v in mine.items())
                and all(zero(v) for n, v in theirs.items() if n not in mine))


@dataclass
class GradedOperator:
    """Degree-homogeneous operator: one matrix block per source degree."""

    degree_shift: int
    blocks: dict


class FormsWindow:
    """Degrees ``0..n_max`` of the form algebra over one algebra."""

    def __init__(self, algebra: Algebra, n_max: int):
        if n_max < 1:
            raise DegreeOutOfWindow(f"window needs n_max >= 1, got {n_max}")
        if n_max > MAX_N_MAX:
            raise WindowTooLarge(f"n_max {n_max} exceeds {MAX_N_MAX}",
                                 n_max=n_max, cap=MAX_N_MAX)
        cap = dimension_cap()
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
        self.bases = [[(i0,) + rest
                       for i0 in range(d)
                       for rest in itertools.product(range(1, d), repeat=n)]
                      for n in range(n_max + 1)]
        self._ops = None
        self._spectral_cache = {}
        self._right = {}        # degree -> R block of multiply_forms
        self._merges = {}       # _lift's unit (one per part) -> inner_1, .. built so far
        self._cokernels = {}    # (name, degree) -> left null basis of that block

    # -- bookkeeping -----------------------------------------------------------

    def check_degree(self, n, *, top=None):
        top = self.n_max if top is None else top
        if not 0 <= n <= top:
            raise DegreeOutOfWindow(f"degree {n} outside window 0..{top}")

    def zero_vector(self, n):
        self.check_degree(n)
        zeros = np.zeros(self.degree_dims[n], np.int64 if self.field.exact else complex)
        return exactla.ScaledArray._of(zeros, None, 1, 0, 0) if self.field.exact else zeros

    def basis_form(self, n, idx) -> Form:
        self.check_degree(n)
        vec = np.zeros(self.degree_dims[n], np.int64 if self.field.exact else complex)
        vec[idx] = 1
        return Form({n: exactla.ScaledArray(vec) if self.field.exact else vec})

    def word_label(self, word) -> str:
        labels = self.algebra.norm_labels
        if len(word) == 1:
            return labels[word[0]]
        head = "" if word[0] == 0 else labels[word[0]] + " "
        return head + " ".join("d" + labels[i] for i in word[1:])

    def form_from_element(self, x) -> Form:
        """Degree-0 form from original-basis algebra coordinates."""
        return Form({0: exactla.matmul(self.algebra.change_inv, self.algebra._check_vec(x))})


def build_window(algebra: Algebra, n_max: int) -> FormsWindow:
    return FormsWindow(algebra, n_max)


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


def multiply_forms(window: FormsWindow, u: Form, v: Form) -> Form:
    if not (u.components and v.components):
        return Form({})
    top = max(u.components) + max(v.components)
    if top > window.n_max:
        raise DegreeOutOfWindow(f"product degree {top} exceeds window top {window.n_max}")
    d = window.algebra.dim
    out = {}
    for p, up in u.components.items():
        if p not in window._right:
            window._right[p] = _lift(window, lambda c, one: {
                p: _right_block(c, p, window._merges.setdefault(one, []))})[p]
        ue = exactla.matmul(window._right[p], up).reshape(-1, d)
        for q, vq in v.components.items():
            res = exactla.matmul(ue, vq.reshape(d, -1)).reshape(-1)
            out[p + q] = out[p + q] + res if p + q in out else res
    return Form(out)


# -- blocks from the slots of the structure tensor ------------------------------

def _kron(a, b):
    """np.kron of two 2-D arrays: the same products, without its per-call
    overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _rotate(block, e, rest):
    """``block`` rho_n: its columns (a_n, a_0, .., a_{n-1}) read at (a_0, .., a_n)."""
    rows = block.shape[0]
    return block.reshape(rows, e, rest).transpose(0, 2, 1).reshape(rows, e * rest)


def _merges(c, top, out):
    """inner_1 .. inner_top, the slot merges of b, added in ascending slot
    order to ``out``, which holds the first ones when they were built before."""
    d, e = c.shape[0], c.shape[0] - 1
    bar = c[1:, 1:, 1:].reshape(e * e, e).T
    if not out:
        out.append(c[:, 1:].reshape(-1, d).T)
    for n in range(len(out) + 1, top + 1):
        out.append(_kron(out[-1], np.eye(e, dtype=c.dtype))
                   + _kron(np.eye(d * e ** (n - 2), dtype=c.dtype), (-1) ** (n - 1) * bar))
    return out


def _operator_blocks(c, one, n_max, merges):
    """The d, b and k blocks of degrees 0..n_max, keyed (name, degree), from the
    unit-first structure tensor ``c``; ``one`` is the value of the unit, and
    ``merges`` the window's slot merges for this part (see ``_merges``)."""
    d, e = c.shape[0], c.shape[0] - 1
    unit = np.eye(d, dtype=c.dtype)
    proj, e0 = unit[1:], unit[:, :1]
    wrap = c[1:].reshape(-1, d).T
    turn = _kron(unit[:, 1:], proj) * one - _kron(e0, wrap[1:])
    insert = _kron(e0 * one, proj)
    blocks = {("k", 0): unit * one}
    for n, inner in enumerate(_merges(c, n_max, merges)[:n_max], start=1):
        sign, eye, rest = (-1) ** n, np.eye(e ** (n - 1), dtype=c.dtype), d * e ** (n - 1)
        blocks["d", n - 1] = _kron(insert, eye)
        blocks["b", n] = inner + _rotate(_kron(sign * wrap, eye), e, rest)
        blocks["k", n] = _rotate(_kron(sign * turn, eye), e, rest)
    return blocks


def _right_block(c, p, merges):
    """R[p] from the structure tensor; its j >= 1 columns are (-1)^p inner_{p+1},
    read from (and added to) ``merges``, the slot merges built so far."""
    d, e = c.shape[0], c.shape[0] - 1
    dim = d * e ** p
    block = np.zeros((dim, dim, d), dtype=c.dtype)
    block[:, :, 1:] = ((-1) ** p * _merges(c, p + 1, merges)[p]).reshape(dim, dim, e)
    block[:, :, 0] = c[:, 0].T if p == 0 else _kron(
        np.eye(d * e ** (p - 1), dtype=c.dtype), c[1:, 0, 1:].T)
    return block.transpose(0, 2, 1).reshape(dim * d, dim)


def _lift(window, build):
    """The blocks ``build(c, one)`` returns, evaluated on the window's
    structure tensor: complex128 in float mode; in the exact modes built on
    the integer numerators and wrapped as ScaledArrays over its denominator."""
    c = window.algebra.norm_structure
    if not window.field.exact:
        # x + 0.0 is x, except that it turns the -0.0 of (-1) * 0.0 into 0.0
        return {key: block + 0.0 for key, block in build(c, 1.0).items()}
    # a block entry sums at most n_max + 1 terms, and the unit is den
    wide = max(c.bound, c.den) * (window.n_max + 2) >= 2 ** 63
    re = build(c.num.astype(object) if wide else c.num, c.den)
    ims = {} if c.im is None else build(c.im.astype(object) if wide else c.im, 0)
    return {key: exactla.ScaledArray(block, ims.get(key), c.den) for key, block in re.items()}


def operator_matrices(window: FormsWindow) -> dict:
    """Assemble and cache the named operator blocks for the whole window."""
    if window._ops is not None:
        return window._ops
    n_max = window.n_max
    blocks = _lift(window, lambda c, one: _operator_blocks(
        c, one, n_max, window._merges.setdefault(one, [])))
    d_blocks = {n: blocks["d", n] for n in range(n_max)}
    b_blocks = {n: blocks["b", n] for n in range(1, n_max + 1)}
    k_blocks = {n: blocks["k", n] for n in range(n_max + 1)}
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
        "d": GradedOperator(+1, d_blocks),
        "b": GradedOperator(-1, b_blocks),
        "k": GradedOperator(0, k_blocks),
        "one_minus_k": GradedOperator(0, omk_blocks),
        "bd": GradedOperator(0, bd_blocks),
        "db": GradedOperator(0, db_blocks),
        "L": GradedOperator(0, l_blocks),
    }
    return window._ops


def window_identity_residuals(window: FormsWindow) -> dict:
    """Residuals of the defining operator identities, per degree.

    Keys map to lists of (degree, exact_zero, max_abs) triples.  In the exact
    modes every residual must be literally zero; in float mode the caller
    compares against ``FLOAT_IDENTITY_TOL``.
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

    # powers k^0 .. k^(n+1) of each block, reused across the degree-local
    # relations: degree n reads those of K[n] and K[n+1]
    pows = []
    for n in range(n_max + 1):
        kp = [exactla.eye_like(K[n])]
        for _ in range(n + 1):
            kp.append(exactla.matmul(kp[-1], K[n]))
        pows.append(kp)
    for n, kp in enumerate(pows):
        eye = kp[0]
        if n < n_max:
            up = pows[n + 1]
            record("k_pow_fixes_d", n, exactla.matmul(up[n + 1], D[n]) - D[n])
            bknd = exactla.matmul(B[n + 1], exactla.matmul(up[n], D[n]))
            record("k_pow_n", n, kp[n] - eye - bknd)
        m = kp[n + 1] - eye
        if n >= 1:
            # the only relation that needs db on the window top
            m = m + (DB[n] if n < n_max else exactla.matmul(D[n - 1], B[n]))
        record("k_pow_n_plus_one", n, m)
        record("cyclic_annihilator", n, exactla.matmul(kp[n] - eye, kp[n + 1] - eye))
    return out
