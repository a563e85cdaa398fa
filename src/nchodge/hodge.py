"""Finite-dimensional cochain complexes with metrics, and their Hodge data.

A complex is a list of dimensions ``n_0..n_m``, differentials
``D_k : C^k -> C^{k+1}`` with ``D_{k+1} D_k = 0``, and a Hermitian
positive-definite Gram matrix per degree.  The adjoint is taken with
respect to the Gram inner products, ``D*_k = G_k^{-1} D_k^H G_{k+1}``,
and the Laplacian is ``Delta_k = D*_k D_k + D_{k-1} D*_{k-1}``.

The Laplacian is self-adjoint for the Gram product but not Hermitian as a
raw matrix, so spectra are taken in a Cholesky frame: ``G = L L^H`` turns
the Gram product into the standard one via ``u = L^H v``, and there
``S_k = L^H Delta_k L^{-H} = W_k^H W_k + W_{k-1} W_{k-1}^H`` with the
Gram-weighted differential ``W_k = L_{k+1}^H D_k L_k^{-H}`` (the up/down
split of Lim, "Hodge Laplacians on graphs", SIAM Review 62, 2020).  So
the spectrum of degree k is read off one SVD per differential, with no
tolerance: the ``n_k`` largest of sigma(W_k)^2 and sigma(W_{k-1})^2, each
padded with zeros to length ``n_k``; its small eigenvalues are as accurate
as the differentials, where an eigensolve of the formed Laplacian squares
their condition number.  Each complex builds its frames and singular
values once, on first use.  A unit Gram (decided once per complex) has the
known frame ``L = I``, and with unit Grams on both ends ``W_k = D_k`` and
the adjoint is ``D^H``; neither is factored, and the results are the
factored ones bit for bit.

One rule decides the near-kernel: ``r_k``, the numerical rank of ``W_k``
(Golub and Van Loan, *Matrix Computations*).  Its rank--nullity count
``b_k = n_k - r_k - r_{k-1}`` is the Betti number, the number of smallest
eigenvalues a regularized determinant drops, and the number of harmonic
vectors a partial eigensolve (LAPACK's MRRR driver) of ``S`` returns;
``decompose`` keeps ``r_{k-1}`` and ``r_k`` singular vectors.  ``S`` is
formed only for the harmonic vectors and for one of the two Betti
cross-checks, which disagree only on a real defect: the rank of each raw
``D_k`` that is not ``W_k``, and the eigenvalues of ``S`` counted by
inertia (Sylvester's law).

A complex stores all its matrices in one dtype: float64 when no
differential and no Gram has a nonzero imaginary entry, else complex128.
Every step dispatches on it, so a real complex (a real leaf and its Witten
deformations among them) runs the real LAPACK drivers throughout: the SVD,
the Cholesky frames, the inertia count by ``L D L^T`` in place of
``L D L^H``, and the partial eigensolve.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import exactla
from .errors import BadGram, NotAComplex, OutOfFloatRange
from .scalars import FLOAT, field_for, float_span

# relative rank cuts sigma > tol * sigma_max of each W_k
HODGE_TOL = 1e-9    # for the hodge report and decompose
DET_TOL = 1e-10     # for torsion and the CS partition


@dataclass(frozen=True)
class HodgeFrame:
    """Degree-k Cholesky frame: ``G = L L^H`` (``chol``), its inverse, and
    the ascending spectrum of ``S = L^H Delta L^{-H}`` (``eigvals``), read
    off the singular values of ``W_k`` and ``W_{k-1}``; the frame's one
    spectrum.  Arrays are read-only."""

    chol: np.ndarray
    chol_inv: np.ndarray
    eigvals: np.ndarray


@dataclass
class CochainComplex:
    """Assumed immutable once built: its Hodge frames, singular values,
    symmetrized Laplacians, harmonic vectors and which of its Grams are the
    identity are cached on it."""

    dims: tuple
    diffs: list          # D_k, k = 0..m-1, shape (dims[k+1], dims[k])
    grams: list          # G_k, k = 0..m, Hermitian positive definite
    name: str = "complex"
    _frames: list = dc_field(default=None, init=False, repr=False, compare=False)
    _singular: list = dc_field(default=None, init=False, repr=False, compare=False)
    _syms: list = dc_field(default=None, init=False, repr=False, compare=False)
    _harmonic: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _units: tuple = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def top(self):
        return len(self.dims) - 1

    def euler_characteristic(self):
        return int(sum((-1) ** k * n for k, n in enumerate(self.dims)))

    def frame(self, k) -> HodgeFrame:
        """The degree-k Hodge frame; all degrees, and the singular values
        of every ``W_k``, are built on first use."""
        if self._frames is None:
            self._frames, self._singular = _build_frames(self)
        return self._frames[k]

    def singular_values(self, k) -> np.ndarray:
        """Descending singular values of ``W_k = L_{k+1}^H D_k L_k^{-H}``."""
        self.frame(0)
        return self._singular[k]

    def sym(self, k) -> np.ndarray:
        """``S_k = L^H Delta_k L^{-H}``, symmetrized after a Hermitian check;
        all degrees are formed on first use, from one ``laplacians`` call."""
        if self._syms is None:
            self._syms = [_symmetrize(self, j, lap) for j, lap in enumerate(laplacians(self))]
        return self._syms[k]

    def harmonic_vectors(self, k, rel_tol) -> np.ndarray:
        """Orthonormal basis (in the symmetric frame) of the near-kernel of
        ``S_k``: eigenvectors of its ``b_k`` smallest eigenvalues, and of
        no others, from a partial eigensolve; cached per degree and
        ``rel_tol``."""
        if (k, rel_tol) not in self._harmonic:
            m = _harmonic_dims(self, rel_tol)[k]
            if m:
                import scipy.linalg
                out = scipy.linalg.eigh(self.sym(k), subset_by_index=[0, m - 1])[1]
            else:
                out = np.zeros((self.dims[k], 0), self.grams[k].dtype)
            out.setflags(write=False)
            self._harmonic[k, rel_tol] = out
        return self._harmonic[k, rel_tol]

    def unit_gram(self, k) -> bool:
        """Whether the degree-k Gram is the identity bit for bit; all
        degrees are decided on first use."""
        if self._units is None:
            self._units = tuple(_is_unit(g) for g in self.grams)
        return self._units[k]


def _is_list_of(value, n):
    return isinstance(value, (list, tuple)) and len(value) == n


def _float_matrix(m):
    """``m`` as a float64 array when no entry has a nonzero imaginary part
    (a -0.0 one counts as zero), else as complex128."""
    m = np.asarray(m)
    if m.dtype.kind in "biuf":
        return m.astype(float, copy=False)
    m = m.astype(complex, copy=False)
    return m if m.imag.any() else np.ascontiguousarray(m.real)


def make_complex(dims, diffs, grams=None, name="complex", tol=1e-12) -> CochainComplex:
    """Validate and pack a complex.  ``grams`` entries may be matrices,
    positive scalars (meaning scale * identity), or None (identity).  All
    matrices are stored float64 when no entry of any is imaginary (a -0.0
    imaginary part counts as zero), else all complex128."""
    dims = tuple(int(n) for n in dims)
    if not dims or any(n < 0 for n in dims):
        raise NotAComplex(f"bad dimension list {dims}")
    m = len(dims) - 1
    if len(diffs) != m:
        raise NotAComplex(f"expected {m} differentials for {m + 1} degrees, got {len(diffs)}")
    mats = []
    for k, d in enumerate(diffs):
        d = _float_matrix(d)
        if d.shape != (dims[k + 1], dims[k]):
            raise NotAComplex(f"differential {k} has shape {d.shape}, expected "
                              f"{(dims[k + 1], dims[k])}", degree=k)
        if not np.all(np.isfinite(d)):
            raise NotAComplex(f"differential {k} has non-finite entries", degree=k)
        mats.append(d)
    gs = []     # a matrix, or the scale of an identity Gram
    if grams is None:
        grams = [None] * (m + 1)
    if len(grams) != m + 1:
        raise BadGram(f"expected {m + 1} Gram matrices, got {len(grams)}")
    for k, g in enumerate(grams):
        n = dims[k]
        if g is None or np.isscalar(g):
            # abs first: float() of an int past the float range raises
            if g is not None and not (abs(g) <= sys.float_info.max and float(np.real(g)) > 0):
                raise BadGram(f"Gram scale {k} must be positive and finite, got {g}", degree=k)
            gs.append(1.0 if g is None else float(np.real(g)))
            continue
        g = _float_matrix(g)
        if g.shape != (n, n):
            raise BadGram(f"Gram {k} has shape {g.shape}, expected {(n, n)}", degree=k)
        if not np.all(np.isfinite(g)):
            raise BadGram(f"Gram at degree {k} has non-finite entries", degree=k)
        gs.append(g)
    dtype = complex if any(np.iscomplexobj(g) for g in mats + gs) else float
    mats = [d.astype(dtype, copy=False) for d in mats]
    for k, g in enumerate(gs):
        if not np.isscalar(g):
            gs[k] = g.astype(dtype, copy=False)
            continue
        try:
            eye = np.eye(dims[k], dtype=dtype)
        except MemoryError:
            raise NotAComplex(f"no memory for a {dims[k]} x {dims[k]} Gram",
                              key="dims", degree=k) from None
        gs[k] = np.multiply(eye, g, out=eye)
    cx = CochainComplex(dims=dims, diffs=mats, grams=gs, name=str(name))
    validate_complex(cx, tol)
    return cx


def validate_complex(cx: CochainComplex, tol=1e-12):
    for k in range(cx.top - 1):
        with np.errstate(over="ignore", invalid="ignore"):
            comp = cx.diffs[k + 1] @ cx.diffs[k]
        scale = max(1.0, exactla.max_abs(cx.diffs[k]) * exactla.max_abs(cx.diffs[k + 1]))
        residual = exactla.max_abs(comp)
        if not (math.isfinite(scale) and math.isfinite(residual)):
            raise NotAComplex(f"differentials {k} and {k + 1} overflow when composed", degree=k)
        if residual > tol * scale:
            raise NotAComplex(
                f"composition of differentials {k + 1} after {k} is nonzero",
                degree=k, residual=residual)
    for k, g in enumerate(cx.grams):
        if cx.unit_gram(k):
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            herm = exactla.max_abs(g - g.conj().T)
        if herm > tol * max(1.0, exactla.max_abs(g)):
            raise BadGram(f"Gram at degree {k} is not Hermitian", degree=k, residual=herm)
        if g.shape[0]:
            try:
                np.linalg.cholesky(g)
            except np.linalg.LinAlgError:
                raise BadGram(f"Gram at degree {k} is not positive definite",
                              degree=k) from None


def _parse_matrix(node, shape, error, key, k):
    """Matrix ``k`` under ``key``; a parse failure is ``error`` naming both."""
    if type(node) is np.ndarray and node.shape == shape:    # read by complex_source
        return node
    try:
        return field_for(FLOAT).matrix_from_json(node, shape)
    except TypeError as exc:
        raise error(f"{key}[{k}]: {exc}", key=key, degree=k) from None


def _valid_dims(dims):
    # one or more, each n x n complex matrix within numpy's size limit
    return isinstance(dims, (list, tuple)) and dims and all(
        type(n) is int and n >= 0 and 16 * n * n <= np.iinfo(np.intp).max for n in dims)


def _bulk_source(text):
    """``json.loads(text)`` of a complex file's text with every matrix under
    ``differentials`` and ``gram`` already a complex128 array, each read from
    its own span of the text by ``scalars.float_span``, so without a Python
    list per entry; None when the reader cannot prove that ``load_complex``
    would read the same from the full parse.

    A matrix is an array two brackets deep.  Each is cut out of the text
    and replaced by a placeholder string, and the small rest is parsed by
    ``json``.  The reader declines on text that is not ASCII (a BOM among
    it), holds an escape or more than one brace, or has a bracket or brace
    inside a string; on dims that ``load_complex`` rejects; on a matrix
    that no differentials or gram slot claims (one under a duplicate key,
    say); and on any matrix that ``float_span`` declines.  The strings and
    braces are looked for in the rest alone: ``float_span`` declines a
    matrix that holds a quote or a brace."""
    if not text.isascii() or "\\" in text:
        return None
    raw = text.encode("ascii")
    chars = np.frombuffer(raw, np.uint8)
    at = np.flatnonzero((chars == ord("[")) | (chars == ord("]")))
    opens = chars[at] == ord("[")
    depth = np.cumsum(np.where(opens, 1, -1))
    if depth.size and (depth.min() < 0 or depth[-1]):
        return None
    pieces, spans, last = [], [], 0
    for i, (start, end) in enumerate(zip(at[opens & (depth == 2)].tolist(),
                                         (at[~opens & (depth == 1)] + 1).tolist())):
        pieces += [text[last:start], f'"\\u0000{i}"']
        spans.append(raw[start:end])
        last = end
    pieces.append(text[last:])
    rest = "".join(pieces)
    strings = '"'.join(rest.split('"')[1::2])
    if rest.count("{") != 1 or any(c in strings for c in "[]{}"):
        return None
    try:
        source = json.loads(rest)
    except ValueError:
        return None
    dims = source.get("dims") if type(source) is dict else None
    if not _valid_dims(dims):
        return None
    claimed = 0
    for key, up in (("differentials", 1), ("gram", 0)):     # shape (dims[k + up], dims[k])
        nodes = source.get(key)
        for k, node in enumerate(nodes if type(nodes) is list else ()):
            if type(node) is str and node[:1] == "\0":
                mat = float_span(spans[int(node[1:])], (dims[k + up], dims[k])) \
                    if k + up < len(dims) else None
                if mat is None:
                    return None
                nodes[k] = mat
                claimed += 1
    return source if claimed == len(spans) else None


def complex_source(text):
    """``json.loads(text)`` for the text of a complex file, with the float
    matrices read in bulk where ``_bulk_source`` proves that gives what
    ``load_complex`` reads from the full parse."""
    source = _bulk_source(text)
    return json.loads(text) if source is None else source


def load_complex(source) -> CochainComplex:
    """Read a complex from a dict or a JSON file path; a Gram entry is null
    (identity), a number (scale * identity) or a matrix of float scalars."""
    if isinstance(source, (str, Path)):
        source = complex_source(Path(source).read_text())
    if not isinstance(source, dict):
        raise NotAComplex(f"expected a mapping, got {type(source).__name__}")
    stray = [key for key in source if key not in ("dims", "differentials", "gram", "name")]
    if stray:
        raise NotAComplex(f"unknown complex key {stray[0]!r}", key=stray[0])
    dims = source.get("dims")
    if not _valid_dims(dims):
        raise NotAComplex(f"dims must list one or more non-negative integers: {dims!r}", key="dims")
    m = len(dims) - 1
    raw_diffs = source.get("differentials")
    if not _is_list_of(raw_diffs, m):
        raise NotAComplex(f"expected a list of {m} differentials", key="differentials")
    diffs = [_parse_matrix(raw_diffs[k], (dims[k + 1], dims[k]), NotAComplex,
                           "differentials", k) for k in range(m)]
    grams = source.get("gram")
    if grams is not None:
        if not _is_list_of(grams, len(dims)):
            raise BadGram(f"expected a list of {len(dims)} Gram entries", key="gram")
        grams = [g if g is None or type(g) in (int, float)
                 else _parse_matrix(g, (dims[k], dims[k]), BadGram, "gram", k)
                 for k, g in enumerate(grams)]
    name = source.get("name", "complex")
    if not isinstance(name, str):
        raise NotAComplex(f"complex 'name' is not a string: {name!r}", key="name")
    return make_complex(dims, diffs, grams, name=name)


def complex_to_json(cx: CochainComplex) -> dict:
    to_json = field_for(FLOAT).matrix_to_json
    return {"name": cx.name, "dims": list(cx.dims),
            "differentials": [to_json(d) for d in cx.diffs],
            "gram": [to_json(g) for g in cx.grams]}


_ONE_BITS = np.float64(1.0).view(np.uint64)


def _is_unit(g):
    """True when the Gram is the identity bit for bit (no -0.0 entries):
    exactly n nonzero 64-bit words, the n real diagonal ones equal to 1.0."""
    n = g.shape[0]
    step = 2 if np.iscomplexobj(g) else 1
    bits = np.ascontiguousarray(g).view(np.uint64)      # complex: (n, 2n), re, im interleaved
    diag = np.arange(n)
    return int(np.count_nonzero(bits)) == n and bool(np.all(bits[diag, step * diag] == _ONE_BITS))


def adjoints(cx: CochainComplex) -> list:
    """D*_k = G_k^{-1} D_k^H G_{k+1}, one per differential."""
    out = []
    for k, d in enumerate(cx.diffs):
        if cx.unit_gram(k) and cx.unit_gram(k + 1):
            out.append(np.ascontiguousarray(d.conj().T))
            continue
        rhs = d.conj().T @ cx.grams[k + 1]
        out.append(np.linalg.solve(cx.grams[k], rhs) if cx.dims[k] else rhs)
    return out


def laplacians(cx: CochainComplex) -> list:
    adj = adjoints(cx)
    out = []
    for k in range(cx.top + 1):
        lap = np.zeros((cx.dims[k], cx.dims[k]), dtype=cx.grams[k].dtype)
        if k < cx.top:
            lap += adj[k] @ cx.diffs[k]
        if k >= 1:
            lap += cx.diffs[k - 1] @ adj[k - 1]
        out.append(lap)
    return out


def _cholesky(cx: CochainComplex, k):
    """(L, L^{-1}) of the degree-k Gram; a unit Gram (every 0 x 0 one among
    them) is not factored."""
    n, dtype = cx.dims[k], cx.grams[k].dtype
    if cx.unit_gram(k):
        eye = np.eye(n, dtype=dtype).T      # scipy's Fortran layout
        return eye, eye
    import scipy.linalg  # on first use: the form operators never need scipy
    L = scipy.linalg.cholesky(cx.grams[k], lower=True)
    return L, scipy.linalg.solve_triangular(L, np.eye(n, dtype=dtype), lower=True)


def _spectrum(s_out, s_in, n):
    """Ascending spectrum of ``S_k`` from the singular values of ``W_k``
    (``s_out``) and ``W_{k-1}`` (``s_in``): the n largest of their squares,
    each list padded with zeros to length n.  No tolerance: the two ranks
    add up to at most n, so the zeros fill the kernel."""
    both = np.zeros(2 * n)
    both[:len(s_out)] = np.square(s_out)
    both[n:n + len(s_in)] = np.square(s_in)
    both.sort()
    return both[n:]


def _build_frames(cx: CochainComplex):
    """Every degree's frame, and the singular values of every ``W_k``: with
    unit Grams on both ends ``W_k`` is ``D_k``, else it is formed from the
    Cholesky factors.  A squared singular value must be a float."""
    factors = [_cholesky(cx, k) for k in range(cx.top + 1)]
    singular = []
    for k, d in enumerate(cx.diffs):
        w = d
        if not (cx.unit_gram(k) and cx.unit_gram(k + 1)):
            with np.errstate(over="ignore", invalid="ignore"):
                w = factors[k + 1][0].conj().T @ d @ factors[k][1].conj().T
        s = np.zeros(0)
        if w.size and np.isfinite(w).all():
            s = np.linalg.svd(w, compute_uv=False)
        # D is finite: a W entry (and so sigma_max) past the float range is inf or nan
        top = float(s[0]) if s.size else math.inf if w.size else 0.0
        if math.isinf(top * top):
            raise OutOfFloatRange(f"eigenvalue sigma_max(W_{k})^2 is past the float range",
                                  quantity="eigenvalue", degree=k, log_value=2 * math.log(top))
        s.setflags(write=False)
        singular.append(s)
    frames = []
    for k, (L, linv) in enumerate(factors):
        eigs = _spectrum(singular[k] if k < cx.top else (),
                         singular[k - 1] if k else (), cx.dims[k])
        for arr in (L, linv, eigs):
            arr.setflags(write=False)
        frames.append(HodgeFrame(chol=L, chol_inv=linv, eigvals=eigs))
    return frames, singular


def _symmetrize(cx: CochainComplex, k, lap):
    """``S = L^H Delta L^{-H}`` of degree k, checked Hermitian and
    symmetrized; read-only."""
    S = lap
    if not cx.unit_gram(k):
        frame = cx.frame(k)
        S = frame.chol.conj().T @ lap @ frame.chol_inv.conj().T
    s_h = S.conj().T
    herm = exactla.max_abs(S - s_h)
    if herm > 1e-8 * max(1.0, exactla.max_abs(S)):
        raise BadGram(f"symmetrized Laplacian at degree {k} is not Hermitian",
                      degree=k, residual=herm)
    S = (S + s_h) / 2
    S.setflags(write=False)
    return S


def _count_at_most(sym, cut):
    """How many eigenvalues of the Hermitian ``sym`` are at most ``cut``,
    by Sylvester's law of inertia: the non-positive pivots of one
    Bunch--Kaufman factorization ``sym - cut I = P L D L^H P^T`` (LAPACK
    ``zhetrf``), or ``P L D L^T P^T`` for a real ``sym`` (``dsytrf``).  A
    2x2 pivot block is read by its determinant (negative: one eigenvalue of
    each sign); an exact zero pivot is at the cut."""
    n = sym.shape[0]
    if not n:
        return 0
    from scipy.linalg.lapack import dsytrf, zhetrf
    factor = zhetrf if np.iscomplexobj(sym) else dsytrf
    ldu, ipiv, _ = factor(sym - cut * np.eye(n), lower=1, overwrite_a=1)
    diag = ldu.diagonal().real
    pairs = np.flatnonzero(ipiv < 0)[::2]       # first rows of the 2x2 blocks
    a, c = diag[pairs], diag[pairs + 1]
    det = a * c - np.abs(ldu[pairs + 1, pairs]) ** 2
    trace = a + c
    blocks = np.where(det < 0, 1, np.where(det > 0, 2 * (trace < 0), 1 + (trace <= 0)))
    return int(np.count_nonzero(diag[ipiv > 0] <= 0) + blocks.sum())


def laplacian_spectra(cx: CochainComplex) -> list:
    """Ascending real eigenvalues of each degree's Laplacian."""
    return [cx.frame(k).eigvals for k in range(cx.top + 1)]


def _ranks(cx: CochainComplex, rel_tol):
    """``[0, r_0, ..., r_{m-1}, 0]``, the numerical rank of each ``W_k`` (the
    one near-kernel rule), padded so that r_{k-1} and r_k sit at k and k + 1.
    The square of a kept singular value must be a float: one that underflows
    to 0 would be a kept eigenvalue of 0."""
    ranks = [0]
    for k in range(cx.top):
        s = cx.singular_values(k)
        r = exactla.rank_of_singular_values(s, rel_tol)
        low = float(s[r - 1]) if r else 1.0
        if low * low == 0.0:
            raise OutOfFloatRange(f"eigenvalue sigma_{r}(W_{k})^2 underflows to 0",
                                  quantity="eigenvalue", degree=k, log_value=2 * math.log(low))
        ranks.append(r)
    return ranks + [0]


def _harmonic_dims(cx: CochainComplex, rel_tol):
    """``b_k = n_k - r_k - r_{k-1}`` per degree."""
    ranks = _ranks(cx, rel_tol)
    return tuple(n - ranks[k] - ranks[k + 1] for k, n in enumerate(cx.dims))


def betti_numbers(cx: CochainComplex, rel_tol=HODGE_TOL):
    """``b_k`` from the ranks of the ``W_k``, checked against the rank of
    each raw ``D_k`` that is not ``W_k``, and against the eigenvalues of the
    formed ``S_k`` at or below the midpoint of the gap between its b_k-th
    and next eigenvalue, counted by inertia.  Forming ``S_k`` moves its
    eigenvalues by up to ``16 n_k eps lambda_max`` (the bound the spectra
    test states), so ``S_k`` cannot resolve a smaller gap, which the
    singular values still can: there the check does not run."""
    ranks = _ranks(cx, rel_tol)
    for k, d in enumerate(cx.diffs):
        if cx.unit_gram(k) and cx.unit_gram(k + 1):
            continue                                # W_k is D_k
        plain = exactla.rank(d, rel_tol)
        if plain != ranks[k + 1]:
            raise AssertionError(f"Betti routes disagree at differential {k}: "
                                 f"rank {ranks[k + 1]} of W, {plain} of D")
    betti = _harmonic_dims(cx, rel_tol)
    for k, (n, b) in enumerate(zip(cx.dims, betti)):
        eigs = cx.frame(k).eigvals
        low = eigs[b - 1] if b else 0.0
        if b < n and eigs[b] - low > 16 * n * np.finfo(float).eps * eigs[-1]:
            harmonic = _count_at_most(cx.sym(k), (low + eigs[b]) / 2)
            if harmonic != b:
                raise AssertionError(f"Betti routes disagree at degree {k}: "
                                     f"rank-nullity {b}, harmonic kernel {harmonic}")
    return betti


def decompose(cx: CochainComplex, k, v):
    """Hodge decomposition of a cochain v at degree k into
    (harmonic, exact, coexact), orthogonal for the Gram product; the exact
    and coexact pieces are spanned by the first r_{k-1} left singular
    vectors of ``L^H D_{k-1}`` and the first r_k of ``W_k^H``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape[0] != cx.dims[k]:
        raise NotAComplex(f"cochain length {v.shape[0]} != dim {cx.dims[k]} at degree {k}")
    import scipy.linalg
    ranks = _ranks(cx, HODGE_TOL)
    L = cx.frame(k).chol
    u = L.conj().T @ v
    hvecs = cx.harmonic_vectors(k, HODGE_TOL)
    proj_h = hvecs @ (hvecs.conj().T @ u)
    proj_e = np.zeros_like(u)
    if ranks[k]:
        q = scipy.linalg.svd(L.conj().T @ cx.diffs[k - 1], full_matrices=False)[0][:, :ranks[k]]
        proj_e = q @ (q.conj().T @ u)
    proj_c = np.zeros_like(u)
    if ranks[k + 1]:
        N = scipy.linalg.solve_triangular(L, cx.diffs[k].conj().T @ cx.frame(k + 1).chol,
                                          lower=True)
        q = scipy.linalg.svd(N, full_matrices=False)[0][:, :ranks[k + 1]]
        proj_c = q @ (q.conj().T @ u)
    resid = exactla.max_abs(proj_h + proj_e + proj_c - u)
    if resid > 1e-8 * max(1.0, exactla.max_abs(u)):
        raise AssertionError(f"Hodge pieces do not re-sum at degree {k} (residual {resid})")
    # not frame.chol_inv: the two inverses differ in the last bits, and the
    # selftest report prints residuals of these pieces
    linvh = np.linalg.inv(L.conj().T)
    return linvh @ proj_h, linvh @ proj_e, linvh @ proj_c


def _in_float_range(quantity, log_value):
    """``log_value``, unless the exponential of it is past the float range
    or underflows to 0."""
    if log_value > math.log(sys.float_info.max):
        raise OutOfFloatRange(f"{quantity} = exp({log_value}) is past the float range",
                              quantity=quantity, log_value=log_value)
    if math.exp(log_value) == 0.0:
        raise OutOfFloatRange(f"{quantity} = exp({log_value}) underflows to 0",
                              quantity=quantity, log_value=log_value)
    return log_value


def _log_det(eigs, harmonic):
    """(log det', det') of one ascending spectrum: the sum of the logs of
    the eigenvalues above its ``harmonic`` smallest, and its exponential,
    cross-checked against their plain product.  Empty or all-harmonic
    spectra give (0, 1)."""
    positive = eigs[harmonic:]
    if positive.size == 0:
        return 0.0, 1.0
    log_det = float(np.sum(np.log(positive)))
    det = float(np.exp(_in_float_range("det_prime", log_det)))
    with np.errstate(over="ignore"):
        direct = float(np.prod(positive))
    if not math.isclose(direct, det, rel_tol=1e-9):
        raise AssertionError(f"determinant routes disagree: {direct} vs {det}")
    return log_det, det


def rs_torsion(cx: CochainComplex) -> dict:
    """Analytic torsion from the Laplacian spectra:
    log T = (1/2) * sum_k (-1)^k * k * log det' Delta_k."""
    betti = betti_numbers(cx, DET_TOL)
    log_dets, dets = map(list, zip(*map(_log_det, laplacian_spectra(cx), betti)))
    log_t = 0.5 * sum((-1) ** k * k * ld for k, ld in enumerate(log_dets))
    return {"log_torsion": log_t,
            "torsion": math.exp(_in_float_range("torsion", log_t)),
            "log_det_prime": log_dets,
            "det_prime": dets,
            "zeta_prime_at_zero": log_dets,
            "betti": list(betti)}


def abelian_cs_partition(cx: CochainComplex) -> dict:
    """One-loop abelian Chern-Simons partition function from the degree-0
    and degree-1 Laplacians: Z = det' Delta_1 ^ (-1/4) * det' Delta_0 ^ (3/4)."""
    if cx.top < 1:
        raise NotAComplex("partition function needs degrees 0 and 1")
    betti = _harmonic_dims(cx, DET_TOL)
    (ld0, d0), (ld1, d1) = map(_log_det, laplacian_spectra(cx)[:2], betti)
    log_z = -0.25 * ld1 + 0.75 * ld0
    return {"log_Z": float(log_z), "Z": math.exp(_in_float_range("Z", log_z)),
            "log_det_prime": [ld0, ld1], "det_prime": [d0, d1]}


def hodge_package(cx: CochainComplex) -> dict:
    """Betti numbers, spectra and determinants."""
    spectra = laplacian_spectra(cx)
    betti = betti_numbers(cx)
    return {"name": cx.name,
            "dims": list(cx.dims),
            "betti": list(betti),
            "euler_characteristic": cx.euler_characteristic(),
            "spectra": [[float(v) for v in s] for s in spectra],
            "det_prime": [_log_det(s, b)[1] for s, b in zip(spectra, betti)],
            "harmonic_dims": list(betti)}


def direct_sum(a: CochainComplex, b: CochainComplex) -> CochainComplex:
    """Degreewise direct sum, the shorter complex padded with zero-dimensional
    degrees; spectra concatenate, so torsion and partition logs add."""
    import scipy.linalg
    top = max(a.top, b.top)

    def dim(cx, k):
        return cx.dims[k] if k <= cx.top else 0

    def diff(cx, k):
        return cx.diffs[k] if k < cx.top else np.zeros((dim(cx, k + 1), dim(cx, k)), complex)

    def gram(cx, k):
        return cx.grams[k] if k <= cx.top else np.zeros((0, 0), complex)

    dims = tuple(dim(a, k) + dim(b, k) for k in range(top + 1))
    diffs = [scipy.linalg.block_diag(diff(a, k), diff(b, k)) for k in range(top)]
    grams = [scipy.linalg.block_diag(gram(a, k), gram(b, k)) for k in range(top + 1)]
    return make_complex(dims, diffs, grams, name=f"{a.name}+{b.name}")


def twisted_circle_complex(n, alpha, gram_scale=1.0) -> CochainComplex:
    """Combinatorial circle with n vertices and a holonomy twist alpha on
    the closing edge: D0 = shift - identity, with the wrap entry scaled by
    alpha.  For alpha != 1 the complex is acyclic and
    det' Delta_0 = |1 - alpha|^2."""
    if n < 2:
        raise NotAComplex("circle needs at least 2 sites")
    alpha = complex(alpha)
    shift = np.zeros((n, n), complex)
    for j in range(n - 1):
        shift[j, j + 1] = 1.0
    shift[n - 1, 0] = alpha
    d0 = shift - np.eye(n, dtype=complex)
    return make_complex((n, n), [d0], [gram_scale, gram_scale],
                        name=f"circle(n={n}, alpha={alpha})")


def random_complex(rng, max_degree=3, max_dim=8) -> CochainComplex:
    """Random complex with known Betti numbers: a canonical rank pattern
    conjugated by random invertible changes of basis per degree.  The
    construction pins betti_k = dims[k] - r_k - r_{k-1}."""
    top = int(rng.integers(1, max_degree + 1))
    dims = [int(rng.integers(1, max_dim + 1)) for _ in range(top + 1)]
    ranks = []
    prev = 0
    for k in range(top):
        cap = min(dims[k] - prev, dims[k + 1])
        r = int(rng.integers(0, cap + 1)) if cap > 0 else 0
        ranks.append(r)
        prev = r
    diffs = []
    for k in range(top):
        d = np.zeros((dims[k + 1], dims[k]), complex)
        start = ranks[k - 1] if k >= 1 else 0
        for i in range(ranks[k]):
            d[i, start + i] = 1.0
        diffs.append(d)
    changes = []
    for k in range(top + 1):
        while True:
            p = rng.normal(size=(dims[k], dims[k])) + 1j * rng.normal(size=(dims[k], dims[k]))
            if dims[k] == 0 or np.linalg.cond(p) < 1e3:
                changes.append(p)
                break
    diffs = [changes[k + 1] @ diffs[k] @ np.linalg.inv(changes[k]) for k in range(top)]
    grams = []
    for k in range(top + 1):
        a = rng.normal(size=(dims[k], dims[k])) + 1j * rng.normal(size=(dims[k], dims[k]))
        grams.append(a @ a.conj().T + dims[k] * np.eye(dims[k]))
    expected = []
    for k in range(top + 1):
        r_out = ranks[k] if k < top else 0
        r_in = ranks[k - 1] if k >= 1 else 0
        expected.append(dims[k] - r_out - r_in)
    cx = make_complex(dims, diffs, grams, name="random", tol=1e-9)
    return cx, tuple(expected)
