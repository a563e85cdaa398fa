"""Godbillon-Vey quadrature for codimension-one foliations of the flat
3-torus given by a nowhere-zero 1-form.

Fields are sampled on an n x n x n periodic grid over [0,1)^3, components
indexed "x", "y", "z".  Derivatives are spectral (FFT, Nyquist mode
zeroed) or central differences; either way the grid mean of a derivative
is exactly zero, so discrete integrals of exact forms vanish to roundoff
and the gauge invariance of the final number is a sharp test, not a
fuzzy one.

Pipeline: check integrability (the coefficient of omega ^ d omega must
vanish pointwise), solve d omega = theta ^ omega for the connection form
theta by a batched pseudoinverse (the coefficient matrix has omega in its
kernel, so the minimal-norm solution is the one orthogonal to omega
pointwise), then integrate theta ^ d theta over the torus as a grid
mean.  d omega is formed once, with one FFT per component when spectral.
The pseudoinverse is taken once per distinct slice: along a grid axis on
which omega is bitwise constant (dz on all three, sin-z on x and y) only
the first slice is solved and broadcast back, bit for bit what the full
stack gives.  Custom fields are checked for shape and finiteness first.
Replacing theta by theta + h omega changes the integrand by an
exact form only, so the reported gauge residual should sit at roundoff
level for band-limited fields.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import (GridTooCoarse, GridTooLarge, InputError, NotIntegrable,
                     VanishingOmega, lookup)

COMPONENTS = ("x", "y", "z")
AXIS = {"x": 0, "y": 1, "z": 2}
INTEGRABILITY_TOL = 1e-8    # largest |omega ^ d omega| that still defines a foliation
GAUGE_TOL = 1e-6            # largest change of GV under theta -> theta + h omega
MAX_GRID = 128              # points per axis; 128^3 takes about 0.6 GB and 3 s


def grid(n):
    """Coordinate arrays for the n^3 periodic grid over [0,1)^3."""
    t = np.arange(n) / n
    return np.meshgrid(t, t, t, indexing="ij")


def _spectral_partials(f):
    """One forward FFT of f; the returned function gives df/d(axis)."""
    f = np.asarray(f, dtype=float)
    fk = np.fft.fftn(f)

    def partial(axis):
        n = f.shape[axis]
        k = np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0          # odd-derivative Nyquist mode is spurious
        shape = [1, 1, 1]
        shape[axis] = n
        return np.real(np.fft.ifftn(fk * (2j * np.pi * k.reshape(shape))))
    return partial


def spectral_derivative(f, axis):
    return _spectral_partials(f)(axis)


def central_derivative(f, axis):
    f = np.asarray(f, dtype=float)
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) * (f.shape[axis] / 2.0)


def _central_partials(f):
    return lambda axis: central_derivative(f, axis)


DERIVATIVES = {"spectral": _spectral_partials, "central": _central_partials}


def exterior_derivative(omega, derivative="spectral"):
    """d of a 1-form: components keyed "xy", "xz", "yz".  Each component
    is prepared once (one FFT when spectral) for both partials it enters."""
    partials = lookup(DERIVATIVES, derivative, "derivative scheme")
    d = {c: partials(omega[c]) for c in COMPONENTS}
    return {a + b: d[b](AXIS[a]) - d[a](AXIS[b])
            for a, b in (("x", "y"), ("x", "z"), ("y", "z"))}


def wedge_12(theta, two_form):
    """Coefficient of dx^dy^dz in theta ^ (2-form)."""
    return (theta["x"] * two_form["yz"]
            - theta["y"] * two_form["xz"]
            + theta["z"] * two_form["xy"])


def _coefficient_matrices(wx, wy, wz):
    """Per grid point, the 3x3 map theta -> theta ^ omega in (xy, xz, yz)."""
    zero = np.zeros_like(wx)
    return np.stack([
        np.stack([wy, -wx, zero], axis=-1),
        np.stack([wz, zero, -wx], axis=-1),
        np.stack([zero, wz, -wy], axis=-1),
    ], axis=-2)


def _distinct_slices(fields):
    """Index keeping only the first slice along each axis on which every
    field is bitwise constant.  Compared as int64 views: -0.0 and 0.0 stay
    apart, and NaN matches only its own bits."""
    bits = [f.view(np.int64) for f in fields]
    return tuple(slice(0, 1) if all((b == np.take(b, [0], axis=a)).all() for b in bits)
                 else slice(None) for a in range(bits[0].ndim))


def connection_form(omega, derivative="spectral"):
    """Solve d omega = theta ^ omega pointwise (minimal-norm theta).

    Raises NotIntegrable when omega ^ d omega is not numerically zero, and
    VanishingOmega when the defining form degenerates somewhere."""
    w = [np.asarray(omega[c], dtype=float) for c in COMPONENTS]
    norms = np.sqrt(sum(f ** 2 for f in w))
    min_norm = float(norms.min())
    if min_norm < 1e-6:
        raise VanishingOmega(
            "the defining 1-form degenerates on the grid", min_norm=min_norm)
    dw = exterior_derivative(omega, derivative)
    max_defect = float(np.max(np.abs(wedge_12(omega, dw))))
    if max_defect > INTEGRABILITY_TOL:
        raise NotIntegrable(
            "omega ^ d omega does not vanish: the plane field is not a foliation",
            max_abs=max_defect, tolerance=INTEGRABILITY_TOL)
    shape = w[0].shape
    mats = _coefficient_matrices(*w).reshape(-1, 3, 3)
    # one pseudoinverse per distinct slice: along an axis on which omega is
    # constant every slice has the same matrices, so solve the first only
    keep = _distinct_slices(w)
    pinv = np.linalg.pinv(_coefficient_matrices(*(f[keep] for f in w)))
    pinv = np.broadcast_to(pinv, shape + (3, 3)).reshape(-1, 3, 3)
    rhs = np.stack([dw["xy"].reshape(-1), dw["xz"].reshape(-1),
                    dw["yz"].reshape(-1)], axis=-1)[..., None]
    sol = pinv @ rhs
    theta = {c: sol[:, i, 0].reshape(shape) for i, c in enumerate(COMPONENTS)}
    resid = np.max(np.abs((mats @ sol)[..., 0] - rhs[..., 0]))
    return theta, {"solve_residual": float(resid),
                   "integrability_max_abs": max_defect,
                   "min_omega_norm": min_norm}


def godbillon_vey(omega, derivative="spectral"):
    """The invariant as a grid mean of theta ^ d theta, plus diagnostics."""
    theta, info = connection_form(omega, derivative)
    dtheta = exterior_derivative(theta, derivative)
    gv = float(np.mean(wedge_12(theta, dtheta)))
    # gauge check: theta + h*omega must give the same number
    xs, _, _ = grid(np.asarray(omega["x"]).shape[0])
    h = np.cos(2 * np.pi * xs)
    shifted = {c: theta[c] + h * np.asarray(omega[c], dtype=float)
               for c in COMPONENTS}
    gv2 = float(np.mean(wedge_12(shifted, exterior_derivative(shifted, derivative))))
    info = dict(info)
    info["gauge_residual"] = abs(gv2 - gv)
    return gv, theta, info


# named defining forms, built from the x and z grid coordinates and the
# zero and one fields
BUILTIN_OMEGAS = {
    "dz": lambda xs, zs, zero, one: {"x": zero, "y": zero, "z": one},
    "sin-z": lambda xs, zs, zero, one: {"x": np.sin(2 * np.pi * zs), "y": zero, "z": one},
    "x-dy": lambda xs, zs, zero, one: {"x": zero, "y": xs, "z": one},
}


def _check_grid(n):
    if n < 8:
        raise GridTooCoarse(f"need at least an 8^3 grid, got {n}^3", n=n)
    if n > MAX_GRID:
        raise GridTooLarge(f"need at most a {MAX_GRID}^3 grid, got {n}^3", n=n,
                           cap=MAX_GRID)


def builtin_omega(name, n):
    """Named defining forms on the n^3 grid."""
    _check_grid(n)
    build = lookup(BUILTIN_OMEGAS, name, "form")
    xs, _, zs = grid(n)
    return build(xs, zs, np.zeros_like(xs), np.ones_like(xs))


def _custom_omega(fields):
    """The x/y/z fields as float arrays on one n^3 grid, checked before any
    derivative or LAPACK call sees them."""
    if not isinstance(fields, Mapping):
        raise InputError(f"defining form is a {type(fields).__name__}, not a mapping",
                         key="omega")
    omega = {}
    for c in COMPONENTS:
        try:
            f = np.asarray(fields[c], dtype=float)
        except KeyError:
            raise InputError(f"defining form lacks component {c!r}", key=c) from None
        except (TypeError, ValueError, OverflowError):
            raise InputError(f"component {c!r} is not an array of numbers",
                             key=c) from None
        n = f.shape[0] if f.ndim else 0
        want = omega["x"].shape if omega else (n, n, n)
        if f.shape != want:
            raise InputError(f"component {c!r} has shape {f.shape}, expected "
                             f"{want if omega else 'an n x n x n grid'}",
                             key=c, shape=list(f.shape))
        bad = np.argwhere(~np.isfinite(f))
        if bad.size:
            raise InputError(f"component {c!r} has non-finite entries",
                             key=c, index=[int(i) for i in bad[0]])
        omega[c] = f
    return omega


def gv_report(name_or_fields, n=32, derivative="spectral") -> dict:
    if isinstance(name_or_fields, str):
        label = name_or_fields
        omega = builtin_omega(name_or_fields, n)
    else:
        label = "custom"
        omega = _custom_omega(name_or_fields)
        n = omega["x"].shape[0]
        _check_grid(n)
    gv, _, info = godbillon_vey(omega, derivative)
    passed = (info["integrability_max_abs"] <= INTEGRABILITY_TOL
              and info["solve_residual"] <= 1e-6
              and info["gauge_residual"] <= GAUGE_TOL)
    return {"omega": label, "n": int(n), "derivative": derivative,
            "gv": gv,
            "integrability_max_abs": info["integrability_max_abs"],
            "solve_residual": info["solve_residual"],
            "gauge_residual": info["gauge_residual"],
            "min_omega_norm": info["min_omega_norm"],
            "tolerance": INTEGRABILITY_TOL,
            "passed": bool(passed)}
