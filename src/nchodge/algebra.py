"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is described by a basis ``e_0 .. e_{d-1}``, a structure tensor
``c[i, j, k]`` with ``e_i e_j = sum_k c[i, j, k] e_k``, and the coordinates of
the unit.  Construction validates associativity and the two-sided unit law
and reports a witness on failure.

Besides the user's original basis, each algebra carries a fixed "unit-first"
basis: the unit becomes basis vector 0 (choosing the first basis vector with
a nonzero unit coordinate as the pivot to swap out), and the remaining
original basis vectors, in order, represent a complement of the scalar line.
Reduction modulo scalars then simply drops coordinate 0, which is the
convention the differential-form machinery builds on.

The basis change ``I[:, order] + (u - e_p) e_0^T``, ``order = (p, complement)``,
has the closed-form inverse ``I[order] + (e_0 - u[order]) e_p^T / u_p``, with
``u_p != 0`` (float mode calls LAPACK).

The structure tensor, the unit, the basis change, its inverse and the
unit-first structure constants are held as the field's arrays
(``exactla.ScaledArray`` in the exact modes, ``complex128`` in float mode),
from JSON parse to report; products run through ``exactla``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exactla
from .errors import (AssociativityViolation, DimMismatch, NonFiniteEntry,
                     ShapeMismatch, UnitViolation, lookup)
from .scalars import GAUSSIAN, MODES, RATIONAL, GaussianRational, ScalarField, field_for


@dataclass
class Algebra:
    """Validated structure-constant algebra plus its unit-first basis data."""

    dim: int
    basis_labels: tuple
    field: ScalarField
    structure: object            # (dim, dim, dim), original basis
    unit: object                 # (dim,), original coordinates
    pivot: int                   # original basis index replaced by the unit
    complement_indices: tuple    # original indices spanning the complement
    change: object               # columns: unit-first basis in original coords
    change_inv: object
    norm_structure: object       # structure constants in the unit-first basis
    norm_labels: tuple
    name: str = "algebra"

    # -- elements -------------------------------------------------------------

    def element(self, spec):
        """Coefficient vector from a basis label, a {label: coeff} dict, or a
        coefficient sequence (original basis)."""
        if isinstance(spec, (str, dict)):
            coeffs = [0] * self.dim
            for label, coeff in ({spec: 1} if isinstance(spec, str) else spec).items():
                if label not in self.basis_labels:
                    raise DimMismatch(f"unknown basis label {label!r}",
                                      labels=list(self.basis_labels))
                coeffs[self.basis_labels.index(label)] = coeff
            spec = coeffs
        return self._check_vec(spec)

    def _check_vec(self, x):
        x = self.field.array(x)
        if x.shape != (self.dim,):
            raise DimMismatch(f"element has shape {x.shape}, algebra dim is {self.dim}")
        return x

    def multiply(self, x, y):
        x, y = self._check_vec(x), self._check_vec(y)
        d = self.dim
        tmp = exactla.matmul(x, self.structure.reshape(d, d * d)).reshape(d, d)
        return exactla.matmul(y, tmp)

    def to_json(self) -> dict:
        f = self.field
        return {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "scalars": f.mode,
            "unit": f.matrix_to_json(self.unit),
            "mul": f.matrix_to_json(self.structure),
        }


def _first_nonzero(field: ScalarField, vec):
    if field.exact:
        live = vec != 0
    else:
        mags = np.abs(vec)
        live = mags > 1e-12 * mags.max()
    return int(np.argmax(live)) if live.any() else None


def _reciprocal(x):
    """1 / x for a nonzero Fraction or GaussianRational (conj x / |x|^2)."""
    if not isinstance(x, GaussianRational):
        return 1 / x
    norm = x.re ** 2 + x.im ** 2
    return GaussianRational(x.re / norm, -x.im / norm)


def make_algebra(dim, basis_labels, structure, unit, scalar_mode=RATIONAL, *,
                 name="algebra") -> Algebra:
    field = field_for(scalar_mode)
    if dim < 1:
        raise ShapeMismatch(f"algebra dimension must be >= 1, got {dim}", key="dim")
    labels = tuple(str(x) for x in basis_labels)
    if len(labels) != dim or len(set(labels)) != dim:
        raise ShapeMismatch(f"need {dim} distinct basis labels, got {labels}")

    c = field.array(structure)
    if c.shape != (dim, dim, dim):
        raise ShapeMismatch(f"structure tensor has shape {c.shape}, expected {(dim,) * 3}")
    u = field.array(unit)
    if u.shape != (dim,):
        raise ShapeMismatch(f"unit has shape {u.shape}, expected ({dim},)")
    if not field.exact:
        # the checks multiply three entries (their tolerance scales as the
        # cube of the largest), so every cube must be finite as well
        for key, arr in (("unit", u), ("mul", c)):
            bad = np.argwhere(~(np.abs(arr) < 2.0 ** 340)).tolist()
            if bad:
                raise NonFiniteEntry(f"algebra {key} has an entry at {bad[0]} that is not "
                                     "finite or whose cube is not",
                                     key=key, index=bad[0])

    _check_unit(field, c, u, labels)
    _check_associativity(field, c, labels)

    pivot = _first_nonzero(field, u)
    if pivot is None:
        raise UnitViolation("unit vector is zero")
    complement = tuple(i for i in range(dim) if i != pivot)
    order = [pivot, *complement]
    # columns: the unit, then the original basis vectors of the complement
    eye = exactla.eye_like(c[0])
    change = eye[:, order]
    if field.exact:     # column 0 is e_pivot + (u - e_pivot) = u, exactly
        change = change + exactla.matmul((u - eye[pivot]).reshape(dim, 1), eye[:1])
        shift = (eye[0] - u[order]) * _reciprocal(u[pivot])
        change_inv = eye[order] + exactla.matmul(shift.reshape(dim, 1), eye[pivot:pivot + 1])
    else:
        change[:, 0] = u
        change_inv = np.linalg.inv(change)

    # unit-first products in unit-first coords, norm[a, b, m] = sum_ijk C[i, a]
    # C[j, b] c[i, j, k] Cinv[m, k], one axis per product; transposing an
    # (x, y*z) reshape turns the axes (x, y, z) into (y, z, x)
    ct = change.T
    t = exactla.matmul(ct, c.reshape(dim, dim * dim))                # (a, j, k)
    t = exactla.matmul(t.reshape(dim * dim, dim), change_inv.T)      # (a, j, m)
    t = exactla.matmul(ct, t.reshape(dim, dim * dim).T.reshape(dim, dim * dim))  # (b, m, a)
    norm = t.reshape(dim * dim, dim).T.reshape(dim, dim, dim)

    norm_labels = ("1",) + tuple(labels[i] for i in complement)
    return Algebra(dim=dim, basis_labels=labels, field=field, structure=c,
                   unit=u, pivot=pivot, complement_indices=complement,
                   change=change, change_inv=change_inv, norm_structure=norm,
                   norm_labels=norm_labels, name=name)


def _check_unit(field, c, u, labels):
    dim = u.shape[0]
    tol = 0.0 if field.exact else 1e-12 * max(1.0, exactla.max_abs(c))
    eye = exactla.eye_like(c)
    # row j: u e_j, and e_j u from the (i, (j, k)) -> ((k, j), i) reshuffle of c
    left = exactla.matmul(u, c.reshape(dim, dim * dim)).reshape(dim, dim)
    right = exactla.matmul(c.reshape(dim * dim, dim).T.reshape(dim * dim, dim), u)
    sides = (("left", "1*{}", left - eye), ("right", "{}*1", right.reshape(dim, dim).T - eye))
    if all(exactla.is_zero_matrix(diff, tol) for *_, diff in sides):
        return
    for j in range(dim):
        for side, product, diff in sides:
            if not exactla.is_zero_matrix(diff[j], tol):
                raise UnitViolation(f"unit fails {product.format(labels[j])} = {labels[j]}",
                                    side=side, index=j)


def _check_associativity(field, c, labels):
    dim = c.shape[0]
    tol = 0.0 if field.exact else 1e-12 * max(1.0, exactla.max_abs(c)) ** 3
    pairs = c.reshape(dim * dim, dim)   # row (j, k): e_j e_k
    right = c.reshape(dim, dim * dim)   # row l: e_l e_k over k
    for i in range(dim):
        lhs = exactla.matmul(c[i], right).reshape(dim, dim, dim)   # [j, k] = (e_i e_j) e_k
        rhs = exactla.matmul(pairs, c[i]).reshape(dim, dim, dim)   # [j, k] = e_i (e_j e_k)
        if exactla.equal(lhs, rhs, tol):
            continue
        for j in range(dim):
            for k in range(dim):
                diff = lhs[j, k] - rhs[j, k]
                if not exactla.is_zero_matrix(diff, tol):
                    coord = next(l for l in range(dim) if diff[l] != 0) \
                        if field.exact else int(np.argmax(np.abs(exactla.to_complex(diff))))
                    raise AssociativityViolation(
                        f"({labels[i]}*{labels[j]})*{labels[k]} != "
                        f"{labels[i]}*({labels[j]}*{labels[k]}) in coordinate {coord}",
                        triple=(i, j, k), coordinate=coord)


# -- JSON loading -------------------------------------------------------------

def load_algebra(source, scalar_mode=None) -> Algebra:
    """Load from a dict or a JSON file with keys dim/basis/unit/mul/scalars."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        data = json.loads(path.read_text())
        default_name = path.stem
    else:
        data, default_name = dict(source), "algebra"
    try:
        dim = data["dim"]
        basis = data["basis"]
        unit_json = data["unit"]
        mul_json = data["mul"]
    except KeyError as exc:
        raise ShapeMismatch(f"algebra file is missing key {exc}", key=exc.args[0]) from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ShapeMismatch(f"algebra key 'dim' is not an integer: {dim!r}", key="dim")
    if not isinstance(basis, list):
        raise ShapeMismatch(f"algebra key 'basis' is not a list: {basis!r}", key="basis")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise ShapeMismatch(f"algebra key 'name' is not a string: {name!r}", key="name")
    # parse with the mode the file was written in; convert afterwards, so a
    # rational [num, den] pair is never misread as a float [re, im] pair
    stored_mode = data.get("scalars", RATIONAL)
    if stored_mode not in MODES:
        raise ShapeMismatch(f"algebra key 'scalars' is not one of {MODES}", key="scalars")
    stored = field_for(stored_mode)
    mode = scalar_mode or stored_mode
    field = field_for(mode)
    unit = _parse_entries(stored, field, "unit", unit_json, (dim,))
    mul = _parse_entries(stored, field, "mul", mul_json, (dim, dim, dim))
    return make_algebra(dim, basis, mul, unit, scalar_mode=mode, name=name)


def _parse_entries(stored, field, key, node, shape):
    """Parse one tensor in the stored mode, then convert it to ``field``."""
    try:
        arr = stored.matrix_from_json(node, shape)
        if stored.mode == GAUSSIAN and field.mode == RATIONAL and arr.size:
            # as coerce rejects every GaussianRational, imaginary part 0 included
            raise TypeError("gaussian entries do not convert to rationals")
        return field.array(arr)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ShapeMismatch(f"algebra key {key!r} does not parse: {exc}", key=key) from None


# -- stock algebras ------------------------------------------------------------

def dual_numbers(scalar_mode=RATIONAL) -> Algebra:
    """k[x]/(x^2): unit plus one nilpotent generator."""
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][0] = 1
    c[0][1][1] = 1
    c[1][0][1] = 1
    # x*x = 0
    return make_algebra(2, ("1", "x"), c, [1, 0], scalar_mode, name="dual-numbers")


def two_points(scalar_mode=RATIONAL) -> Algebra:
    """Functions on two points: orthogonal idempotents p, q with unit p + q.

    The unit is not a basis vector, which exercises the pivoted basis change."""
    c = [[[0] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][0] = 1
    c[1][1][1] = 1
    return make_algebra(2, ("p", "q"), c, [1, 1], scalar_mode, name="two-points")


def matrix_units(scalar_mode=RATIONAL) -> Algebra:
    """2x2 matrices in the elementary-matrix basis E11, E12, E21, E22."""
    labels = ("E11", "E12", "E21", "E22")
    pos = {(1, 1): 0, (1, 2): 1, (2, 1): 2, (2, 2): 3}
    c = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    for (i, j), a in pos.items():
        for (k, l), b in pos.items():
            if j == k:
                c[a][b][pos[(i, l)]] = 1
    return make_algebra(4, labels, c, [1, 0, 0, 1], scalar_mode, name="m2")


def cyclic_group_algebra(order=3, scalar_mode=RATIONAL) -> Algebra:
    """Group algebra of Z/order in the group-element basis."""
    labels = tuple(f"g{r}" for r in range(order))
    c = [[[0] * order for _ in range(order)] for _ in range(order)]
    for i in range(order):
        for j in range(order):
            c[i][j][(i + j) % order] = 1
    unit = [1] + [0] * (order - 1)
    return make_algebra(order, labels, c, unit, scalar_mode, name=f"z{order}")


BUILTIN_ALGEBRAS = {
    "dual-numbers": dual_numbers,
    "two-points": two_points,
    "m2": matrix_units,
    "z3": lambda mode=RATIONAL: cyclic_group_algebra(3, mode),
}


def builtin_algebra(name: str, scalar_mode=RATIONAL) -> Algebra:
    return lookup(BUILTIN_ALGEBRAS, name, "stock algebra")(scalar_mode)
