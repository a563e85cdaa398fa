"""Spectral decomposition of the cyclic rotation on a forms window.

On degree ``n`` the rotation ``k`` satisfies ``(k^n - 1)(k^(n+1) - 1) = 0``,
with 1 a (possibly defective) double root and every other root of unity
simple.  The harmonic projection ``P`` is the spectral projection onto the
generalized eigenspace of eigenvalue 1, i.e. ``Ker (1-k)^2``.

Two routes compute it:

* exact -- the annihilator factors as ``(x-1)^2 q(x)`` with ``q(1) != 0``;
  the polynomial ``r`` with ``r = 1`` mod ``(x-1)^2`` and ``r = 0`` mod
  ``q`` has a closed form (``exactla.harmonic_crt_poly``), and ``P = r(k)``.
  Over the exact scalar modes this is rounding-free, so ``P`` is literally
  idempotent and its trace is its rank: :func:`spectral_report` reads rank
  ``P`` and rank ``1-P`` off it and eliminates only ``(1-k)^2``.
* float -- a sorted complex Schur form: cluster the eigenvalues at 1, solve
  the Sylvester equation for the coupling block, and conjugate back.

The Green's operator ``G`` inverts ``1 - k`` on the complement of the
harmonic space and annihilates the harmonic space: since ``P`` commutes with
``k`` and ``1 - k`` is nilpotent on Im(P), the combination ``(1-k) + P`` is
invertible and ``G = (1 - P) * ((1-k) + P)^{-1}``.  Exactly, ``G`` is a
polynomial in ``k`` as ``P`` is (Cuntz-Quillen 1995): ``G = s(k)`` with
``s = 0`` mod ``(x-1)^2`` and ``s (1-x) = 1`` mod ``q``, evaluated by the
same Horner rule on the integer block, with no matrix inverse.  Float
windows invert ``(1-k) + P`` with LAPACK.

``G`` splits the complement into the complementary idempotent split
projectors ``X = (G db) P_perp`` (image inside Im d, zero at degree 0) and
``Y = (G bd) P_perp`` (image inside Im b), formed and cached with ``P`` and
``G``.  :func:`hodge_split` splits a form as ``P v + X v + Y v``: three
products per degree (two at degree 0), on exact windows all between
``exactla.ScaledArray`` values.  On exact windows :func:`hodge_split`, on
every call, and :func:`spectral_report` prove that the d-part lies in Im d
and the b-part in Im b by ``C v = 0``, with ``C`` the block's left null
basis (``exactla.left_null``); each block's ``C`` is eliminated on its
first nonzero test and then kept on the window, so later tests on that
block are one integer product.  Float windows solve least
squares per test (``exactla.solve_in_image``).  The rescaled
Laplacian ``L = b(Nd) + (Nd)b`` vanishes on the harmonic space and is
invertible on the complement, which is what makes the split well posed.

:func:`spectral_report` writes ``P_idempotent`` and ``green_left_inverse`` from
the residuals the checks formed (``SpectralData.checks``), the rest afresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactla
from .errors import (NonUnitRootEigenvalue, NumericalRankAmbiguous,
                     PolynomialRelationViolated, SingularOnComplement)
from .exactla import (green_crt_poly, harmonic_crt_poly, karoubi_annihilator,
                      matmul, to_complex)
from .forms import Form, FormsWindow, operator_matrices

CLUSTER_TOL = 1e-8      # |eig - 1| below this is harmonic; up to 100x it is ambiguous
ROOT_TOL = 1e-6         # each eigenvalue lies this close to an admissible root of unity
RANK_TOL = 1e-10        # relative singular value cut of the report's float ranks
CRT_VS_EIG_TOL = 1e-10  # exact P against the independent float eigenprojection
RESIDUAL_TOL = 1e-10    # float residuals and |L P|; exact windows need exact zeros
FLOAT_CHECK_TOL = 1e-9  # relative: float P^2 = P, G(1-k) = 1-P and the split's re-sum
UNIT_ROOT_TOL = 1e-9    # a clustered root this close to 1 counts as harmonic
MIN_SINGULAR_TOL = 1e-8  # L's smallest singular value on the complement must exceed this


@dataclass
class SpectralData:
    """One degree's ``P``, ``P_perp = 1 - P``, ``G`` and the split projectors
    ``X = (G db) P_perp`` and ``Y = (G bd) P_perp``: ``v = P v + X v + Y v``;
    ``checks`` holds the report rows of the residuals its checks formed."""

    degree: int
    P: np.ndarray
    P_perp: np.ndarray
    checks: dict
    G: np.ndarray = None
    X: np.ndarray = None
    Y: np.ndarray = None


def _k_block(window, degree):
    return operator_matrices(window)["k"].blocks[degree]


def _residual(mat) -> dict:
    """The report row of a residual: whether it is exactly zero, its largest |entry|."""
    return {"exact_zero": bool(exactla.is_zero_matrix(mat)), "max_abs": exactla.max_abs(mat)}


def _holds(row, exact, tol) -> bool:
    return row["exact_zero"] if exact else row["max_abs"] <= tol


def harmonic_projection(window: FormsWindow, degree: int) -> SpectralData:
    """Projection onto Ker (1-k)^2 at one degree (degree < window top): r(k)
    on exact windows, the Schur route on float ones."""
    window.check_degree(degree, top=window.n_max - 1)
    exact = window.field.exact
    K = _k_block(window, degree)
    if degree == 0:
        P = exactla.eye_like(K)
    elif exact:
        pk = exactla.eval_poly(karoubi_annihilator(degree), K)
        if not exactla.is_zero_matrix(pk):
            raise PolynomialRelationViolated(
                f"(k^{degree} - 1)(k^{degree + 1} - 1) != 0 at degree {degree}; "
                "the rotation block is wrong upstream",
                degree=degree, residual=exactla.max_abs(pk))
        P = exactla.eval_poly(harmonic_crt_poly(degree), K)
    else:
        P = eigenprojection_float(window, degree)
    tol = 0.0 if exact else FLOAT_CHECK_TOL * max(1.0, exactla.max_abs(P)) ** 2
    row = _residual(matmul(P, P) - P)
    if not _holds(row, exact, tol):
        raise AssertionError(f"projection not idempotent at degree {degree}")
    return SpectralData(degree, P, exactla.eye_like(P) - P, {"P_idempotent": row})


def _eigvals(K: np.ndarray) -> np.ndarray:
    return np.linalg.eigvals(K) if K.size else np.array([])


def eigenprojection_float(window: FormsWindow, degree: int) -> np.ndarray:
    """Float spectral projector for eigenvalue 1, independent of the exact
    route: sorted complex Schur form plus a Sylvester solve.  It is P on
    float windows and the reference P is compared against on exact ones."""
    K = to_complex(_k_block(window, degree))
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0), complex)
    import scipy.linalg  # on first use: the form operators never need scipy
    T, Z, sdim = scipy.linalg.schur(K, output="complex",
                                    sort=lambda z: abs(z - 1.0) < CLUSTER_TOL)
    if sdim == 0:
        return np.zeros((n, n), complex)
    if sdim == n:
        return np.eye(n, dtype=complex)
    T11, T12, T22 = T[:sdim, :sdim], T[:sdim, sdim:], T[sdim:, sdim:]
    Y = scipy.linalg.solve_sylvester(T11, -T22, T12)
    Pi = np.zeros((n, n), complex)
    Pi[:sdim, :sdim] = np.eye(sdim)
    Pi[:sdim, sdim:] = Y
    return Z @ Pi @ Z.conj().T


def greens_operator(window: FormsWindow, degree: int) -> SpectralData:
    """Inverse of 1-k on the complement of the harmonic space, zero on it."""
    data = harmonic_projection(window, degree)
    field = window.field
    ops = operator_matrices(window)
    M = ops["one_minus_k"].blocks[degree]
    if not field.exact:
        try:
            G = matmul(data.P_perp, np.linalg.inv(M + data.P))
        except np.linalg.LinAlgError as exc:
            raise SingularOnComplement(
                f"1-k is singular on the complement at degree {degree}: {exc}",
                degree=degree) from None
    elif degree:
        G = exactla.eval_poly(green_crt_poly(degree), _k_block(window, degree))
    else:
        G = 0 * M       # k is the identity on degree 0
    tol = 0.0 if field.exact else FLOAT_CHECK_TOL * max(1.0, exactla.max_abs(G))
    row = data.checks["green_left_inverse"] = _residual(matmul(G, M) - data.P_perp)
    if not _holds(row, field.exact, tol):
        raise SingularOnComplement(
            f"Green's operator fails G(1-k) = 1-P at degree {degree}",
            degree=degree, residual=row["max_abs"])
    data.G = G
    data.X = matmul(matmul(G, ops["db"].blocks[degree]), data.P_perp) if degree \
        else exactla.eye_like(data.P_perp) * 0
    data.Y = matmul(matmul(G, ops["bd"].blocks[degree]), data.P_perp)
    return data


def spectral_data(window: FormsWindow, degree: int) -> SpectralData:
    """Cached harmonic projection + Green's operator for one degree."""
    cached = window._spectral_cache.get(degree)
    if cached is None:
        cached = greens_operator(window, degree)
        window._spectral_cache[degree] = cached
    return cached


def _in_image(window: FormsWindow, name: str, degree: int, vecs) -> bool:
    """Whether every column of ``vecs`` lies in the image of the ``name``
    block of source degree ``degree``.  Exact windows test ``C vecs = 0``
    against the block's left null basis ``C``, eliminated on the first
    nonzero test and kept on the window; float ones solve least squares."""
    block = operator_matrices(window)[name].blocks[degree]
    if not window.field.exact:
        return exactla.solve_in_image(block, vecs)
    if exactla.is_zero_matrix(vecs):
        return True
    coker = window._cokernels.get((name, degree))
    if coker is None:
        coker = window._cokernels[name, degree] = exactla.left_null(block)
    return exactla.is_zero_matrix(matmul(coker, vecs))


def hodge_split(window: FormsWindow, form: Form, verify: bool = True):
    """Split a form, degree by degree, into harmonic + d-part + b-part.

    Valid on degrees up to the window top minus one.  Returns the forms
    ``P v``, ``X v`` and ``Y v``, whose sum is the input; the d-part lies in
    Im ``d`` and the b-part in Im ``b`` (checked when ``verify`` is set).
    """
    exact = window.field.exact
    harm, dpart, bpart = {}, {}, {}
    for n, vec in form.components.items():
        window.check_degree(n, top=window.n_max - 1)
        data = spectral_data(window, n)
        harm[n] = matmul(data.P, vec)
        dpart[n] = dn = matmul(data.X, vec) if n else window.zero_vector(0)
        bpart[n] = bn = matmul(data.Y, vec)
        if verify:
            tol = 0.0 if exact else FLOAT_CHECK_TOL * max(1.0, exactla.max_abs(vec))
            if not exactla.equal(harm[n] + dn + bn, vec, tol):
                raise AssertionError(f"split does not re-sum at degree {n}")
            if n >= 1 and not _in_image(window, "d", n - 1, dn):
                raise AssertionError(f"d-part escapes Im(d) at degree {n}")
            elif n == 0 and not exactla.is_zero_matrix(dn):
                raise AssertionError("degree-0 d-part must vanish")
            if not _in_image(window, "b", n + 1, bn):
                raise AssertionError(f"b-part escapes Im(b) at degree {n}")
    return Form(harm), Form(dpart), Form(bpart)


def rescaled_laplacian_check(window: FormsWindow, degree: int, rank_perp: int):
    """Returns (norm of L restricted to the harmonic space, smallest singular
    value of L on the complement; None when the complement is trivial).
    ``rank_perp`` is the rank of P_perp at ``degree``."""
    window.check_degree(degree, top=window.n_max - 1)
    ops = operator_matrices(window)
    L = ops["L"].blocks[degree]
    data = spectral_data(window, degree)
    norm_on_p = exactla.max_abs(matmul(L, data.P))
    if rank_perp == 0:
        return norm_on_p, None
    basis = np.linalg.svd(to_complex(data.P_perp))[0][:, :rank_perp]
    restricted = basis.conj().T @ to_complex(L) @ basis
    return norm_on_p, float(np.linalg.svd(restricted, compute_uv=False).min())


def admissible_roots(degree: int) -> np.ndarray:
    """Roots of unity of order dividing degree or degree + 1 (dedup, sorted by
    angle).  Degree 0 only admits 1."""
    angles = {round(j / m, 12) % 1.0 for m in (degree, degree + 1) for j in range(m)}
    return np.array([np.exp(2j * np.pi * a) for a in sorted(angles)])


def spectrum_report(window: FormsWindow, degree: int, eigs=None):
    """Eigenvalues of the rotation block clustered onto the admissible roots
    of unity, as a list of (root, multiplicity) pairs.  ``eigs`` are the
    block's eigenvalues when the caller already has them."""
    window.check_degree(degree)
    if eigs is None:
        eigs = _eigvals(to_complex(_k_block(window, degree)))
    if eigs.size == 0:
        return []
    roots = admissible_roots(degree)
    counts = np.zeros(len(roots), dtype=int)
    for lam in eigs:
        dists = np.abs(roots - lam)
        best = int(np.argmin(dists))
        if dists[best] > ROOT_TOL:
            raise NonUnitRootEigenvalue(
                f"eigenvalue {lam} at degree {degree} is not near any root of "
                f"unity of order dividing {degree} or {degree + 1}",
                degree=degree, value=complex(lam), distance=float(dists[best]))
        counts[best] += 1
    return [(complex(r), int(c)) for r, c in zip(roots, counts) if c]


def spectral_report(window: FormsWindow) -> dict:
    """Full per-degree report: spectra, ranks, and residuals of every
    invariant the decomposition is supposed to satisfy.  On exact windows
    rank P is the trace of P (an integer in [0, dim], or AssertionError) and
    rank (1-P) = dim - rank P; rank (1-k)^2 still comes from elimination, so
    ``rank_split_ok`` compares two routes.  Float windows take SVD ranks.
    Exact windows pass only when every residual and L P are exactly zero."""
    ops = operator_matrices(window)
    D, B, K = ops["d"].blocks, ops["b"].blocks, ops["k"].blocks
    n_max = window.n_max
    exact = window.field.exact
    zero_tol = 0.0 if exact else RESIDUAL_TOL
    rows = []
    all_ok = True
    for n in range(n_max):
        data = spectral_data(window, n)
        P, Pp, G, Xc, Yc = data.P, data.P_perp, data.G, data.X, data.Y
        dim = window.degree_dims[n]
        omk = ops["one_minus_k"].blocks[n]
        omk2 = matmul(omk, omk)

        if exact:   # P P = P holds exactly, and the trace of an idempotent is its rank
            rank_p, rem = divmod(sum(P.num.diagonal().tolist()), P.den)
            if rem or not 0 <= rank_p <= dim or P.im is not None and sum(P.im.diagonal().tolist()):
                raise AssertionError(f"trace of P is not a rank at degree {n}")
            rank_pp = dim - rank_p
        else:
            rank_p, rank_pp = exactla.rank(P, RANK_TOL), exactla.rank(Pp, RANK_TOL)
        rank_omk2 = exactla.rank(omk2, RANK_TOL)

        eigs = _eigvals(to_complex(K[n]))
        gaps = np.abs(eigs - 1.0)
        ambiguous = (gaps > CLUSTER_TOL) & (gaps < 100 * CLUSTER_TOL)
        if np.any(ambiguous):
            raise NumericalRankAmbiguous(
                f"eigenvalues sit inside the cluster tolerance band at degree {n}",
                degree=n, values=[complex(v) for v in eigs[ambiguous]])
        eig_p = eigenprojection_float(window, n) if exact else P
        crt_vs_eig = exactla.max_abs(to_complex(P) - eig_p)

        residuals = {   # P_idempotent and green_left_inverse, as the checks formed them
            **data.checks,
            "P_commutes_k": _residual(matmul(P, K[n]) - matmul(K[n], P)),
            "harmonic_kernel": _residual(matmul(omk2, P)),
            "green_on_harmonic": _residual(matmul(G, P)),
            "green_right_inverse": _residual(matmul(omk, G) - Pp),
            "split_partition": _residual(Xc + Yc - Pp),
            "d_piece_idempotent": _residual(matmul(Xc, Xc) - Xc),
            "b_piece_idempotent": _residual(matmul(Yc, Yc) - Yc),
            "pieces_orthogonal": _residual(matmul(Xc, Yc)),
        }
        membership = {
            "d_piece_in_image_d": bool(n == 0 or _in_image(window, "d", n - 1, Xc)),
            "b_piece_in_image_b": bool(_in_image(window, "b", n + 1, Yc)),
        }
        norm_on_p, min_sing = rescaled_laplacian_check(window, n, rank_pp)
        spectrum = spectrum_report(window, n, eigs)

        row = {
            "degree": n,
            "dim": dim,
            "eigenvalues": [[r.real, r.imag, m] for r, m in spectrum],
            "rank_P": rank_p,
            "rank_P_perp": rank_pp,
            "rank_one_minus_k_squared": rank_omk2,
            "rank_split_ok": bool(rank_p + rank_omk2 == dim),
            "harmonic_multiplicity_matches": bool(
                sum(m for r, m in spectrum if abs(r - 1) < UNIT_ROOT_TOL) == rank_p),
            "crt_vs_eig": crt_vs_eig,
            "residuals": residuals,
            "membership": membership,
            "rescaled_laplacian": {"norm_on_P": norm_on_p,
                                   "min_singular_on_complement": min_sing},
        }
        if 1 <= n <= n_max - 2:
            dP = matmul(D[n - 1], spectral_data(window, n - 1).P)
            bP = matmul(B[n + 1], spectral_data(window, n + 1).P)
            dbP = np.concatenate([to_complex(dP), to_complex(bP)], axis=1)
            span = exactla.rank(dbP, RANK_TOL)
            contained = exactla.rank(np.concatenate([to_complex(Pp), dbP], axis=1),
                                     RANK_TOL) == rank_pp
            row["harmonic_complement_as_dP_plus_bP"] = {
                "span_rank": span,
                "complement_rank": rank_pp,
                "contained_in_complement": bool(contained),
                "equals_complement": bool(contained and span == rank_pp),
            }
        ok = (row["rank_split_ok"]
              and row["harmonic_multiplicity_matches"]
              and crt_vs_eig <= CRT_VS_EIG_TOL
              and all(_holds(r, exact, zero_tol) for r in residuals.values())
              and all(membership.values())
              and norm_on_p <= zero_tol
              and (min_sing is None or min_sing > MIN_SINGULAR_TOL))
        row["passed"] = bool(ok)
        all_ok = all_ok and ok
        rows.append(row)
    return {"algebra": window.algebra.name,
            "scalars": window.field.mode,
            "n_max": n_max,
            "degree_dims": list(window.degree_dims),
            "degrees": rows,
            "passed": bool(all_ok)}
