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

The structure tensor, the unit, the basis change and the unit-first
structure constants are held as the user's scalars (object arrays in the
exact modes); products run through ``exactla`` on scaled-integer copies,
and ``change_inv`` is an ``exactla`` matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import exactla
from .errors import (AssociativityViolation, DimMismatch, NonFiniteEntry,
                     ShapeMismatch, UnitViolation)
from .scalars import GAUSSIAN, RATIONAL, ScalarField, field_for


@dataclass
class Algebra:
    """Validated structure-constant algebra plus its unit-first basis data."""

    dim: int
    basis_labels: tuple
    field: ScalarField
    structure: np.ndarray        # (dim, dim, dim), original basis
    unit: np.ndarray             # (dim,), original coordinates
    pivot: int                   # original basis index replaced by the unit
    complement_indices: tuple    # original indices spanning the complement
    change: np.ndarray           # columns: unit-first basis in original coords
    change_inv: np.ndarray
    norm_structure: np.ndarray   # structure constants in the unit-first basis
    norm_labels: tuple
    name: str = "algebra"
    _mul_flat: np.ndarray = dc_field(default=None, repr=False)

    # -- elements -------------------------------------------------------------

    def element(self, spec) -> np.ndarray:
        """Coefficient vector from a basis label, a {label: coeff} dict, or a
        coefficient sequence (original basis)."""
        if isinstance(spec, str):
            if spec not in self.basis_labels:
                raise DimMismatch(f"unknown basis label {spec!r}", labels=list(self.basis_labels))
            vec = self.field.zeros((self.dim,))
            vec[self.basis_labels.index(spec)] = self.field.one
            return vec
        if isinstance(spec, dict):
            vec = self.field.zeros((self.dim,))
            for label, coeff in spec.items():
                vec[self.basis_labels.index(label)] = self.field.coerce(coeff)
            return vec
        vec = np.asarray(spec, dtype=self.field.dtype)
        if vec.shape != (self.dim,):
            raise DimMismatch(f"expected {self.dim} coefficients, got shape {vec.shape}")
        if self.field.exact:
            vec = self.field.array(list(spec))
        return vec

    def _check_vec(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise DimMismatch(f"element has shape {x.shape}, algebra dim is {self.dim}")
        return x

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x, y = self._check_vec(x), self._check_vec(y)
        if self._mul_flat is None:
            object.__setattr__(self, "_mul_flat", exactla.asexact(
                self.structure.reshape(self.dim, self.dim * self.dim)))
        tmp = exactla.matmul(x, self._mul_flat).reshape(self.dim, self.dim)
        return exactla.to_object(exactla.matmul(y, tmp), self.field.mode == GAUSSIAN)

    def to_json(self) -> dict:
        f = self.field
        return {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.basis_labels),
            "scalars": f.mode,
            "unit": [f.to_json(v) for v in self.unit],
            "mul": f.matrix_to_json(self.structure),
        }


def _first_nonzero(field: ScalarField, vec: np.ndarray):
    if field.exact:
        return next((i for i, v in enumerate(vec) if v != 0), None)
    mags = np.abs(exactla.to_complex(vec))
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return None
    return int(np.argmax(mags > 1e-12 * top))


def make_algebra(dim, basis_labels, structure, unit, scalar_mode=RATIONAL, *,
                 name="algebra", check=True) -> Algebra:
    field = field_for(scalar_mode)
    if dim < 1:
        raise ShapeMismatch(f"algebra dimension must be >= 1, got {dim}")
    labels = tuple(str(x) for x in basis_labels)
    if len(labels) != dim or len(set(labels)) != dim:
        raise ShapeMismatch(f"need {dim} distinct basis labels, got {labels}")

    c = structure if isinstance(structure, np.ndarray) else field.array(structure)
    if c.shape != (dim, dim, dim):
        raise ShapeMismatch(f"structure tensor has shape {c.shape}, expected {(dim,) * 3}")
    if field.exact and c.dtype != object:
        c = field.array(structure)
    u = unit if isinstance(unit, np.ndarray) and unit.dtype == field.dtype else field.array(unit)
    if u.shape != (dim,):
        raise ShapeMismatch(f"unit has shape {u.shape}, expected ({dim},)")
    if not field.exact:
        for key, arr in (("unit", u), ("mul", c)):
            bad = np.argwhere(~np.isfinite(exactla.to_complex(arr))).tolist()
            if bad:
                raise NonFiniteEntry(f"algebra {key} has a non-finite entry at {bad[0]}",
                                     key=key, index=bad[0])

    cx = exactla.asexact(c)
    if check:
        _check_unit(field, cx, u, labels)
        _check_associativity(field, cx, labels)

    pivot = _first_nonzero(field, u)
    if pivot is None:
        raise UnitViolation("unit vector is zero")
    complement = tuple(i for i in range(dim) if i != pivot)
    change = field.zeros((dim, dim))
    change[:, 0] = u
    for col, idx in enumerate(complement, start=1):
        change[idx, col] = field.one
    try:
        change_inv = exactla.inverse(change)
    except (ValueError, np.linalg.LinAlgError):
        raise UnitViolation("unit cannot be pivoted into the basis",
                            unit=[str(v) for v in u])

    # unit-first products in unit-first coords, norm[a, b, m] = sum_ijk C[i, a]
    # C[j, b] c[i, j, k] Cinv[m, k], one axis per product; transposing an
    # (x, y*z) reshape turns the axes (x, y, z) into (y, z, x)
    ct = exactla.asexact(change).T
    t = exactla.matmul(ct, cx.reshape(dim, dim * dim))               # (a, j, k)
    t = exactla.matmul(t.reshape(dim * dim, dim), change_inv.T)      # (a, j, m)
    t = exactla.matmul(ct, t.reshape(dim, dim * dim).T.reshape(dim, dim * dim))  # (b, m, a)
    norm = exactla.to_object(t.reshape(dim * dim, dim).T.reshape(dim, dim, dim),
                             field.mode == GAUSSIAN)

    norm_labels = ("1",) + tuple(labels[i] for i in complement)
    return Algebra(dim=dim, basis_labels=labels, field=field, structure=c,
                   unit=u, pivot=pivot, complement_indices=complement,
                   change=change, change_inv=change_inv, norm_structure=norm,
                   norm_labels=norm_labels, name=name)


def _check_unit(field, c, u, labels):
    dim = len(u)
    tol = 0.0 if field.exact else 1e-12 * max(1.0, exactla.max_abs(c))
    u, eye = exactla.asexact(u), exactla.eye_like(c)
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
        if exactla.is_zero_matrix(lhs - rhs, tol):
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
        dim = int(data["dim"])
        basis = data["basis"]
        unit_json = data["unit"]
        mul_json = data["mul"]
    except KeyError as exc:
        raise ShapeMismatch(f"algebra file is missing key {exc}") from None
    except (TypeError, ValueError):
        raise ShapeMismatch(f"algebra key 'dim' is not an integer: {data['dim']!r}",
                            key="dim") from None
    if not isinstance(basis, list):
        raise ShapeMismatch(f"algebra key 'basis' is not a list: {basis!r}", key="basis")
    name = data.get("name", default_name)
    if not isinstance(name, str):
        raise ShapeMismatch(f"algebra key 'name' is not a string: {name!r}", key="name")
    # parse with the mode the file was written in; convert afterwards, so a
    # rational [num, den] pair is never misread as a float [re, im] pair
    stored_mode = data.get("scalars", RATIONAL)
    stored = field_for(stored_mode)
    mode = scalar_mode or stored_mode
    field = field_for(mode)
    unit = _parse_entries(stored, field, "unit", unit_json, (dim,))
    mul = _parse_entries(stored, field, "mul", mul_json, (dim, dim, dim))
    return make_algebra(dim, basis, mul, unit, scalar_mode=mode, name=name)


def _parse_entries(stored, field, key, node, shape) -> np.ndarray:
    """Parse one tensor in the stored mode, then convert it to ``field``."""
    try:
        arr = stored.matrix_from_json(node, shape)
        if field is not stored:
            arr = np.vectorize(field.coerce, otypes=[object])(arr) if field.exact \
                else exactla.to_complex(arr)
        return arr
    except (TypeError, ValueError, ZeroDivisionError) as exc:
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
    try:
        return BUILTIN_ALGEBRAS[name](scalar_mode)
    except KeyError:
        raise DimMismatch(f"unknown stock algebra {name!r}; "
                          f"available: {sorted(BUILTIN_ALGEBRAS)}") from None
