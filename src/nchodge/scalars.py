"""Scalar modes, and the exact scalars at the edges of the program.

* ``rational``  -- exact rationals,
* ``gaussian``  -- exact Gaussian rationals ``a + b*i`` with rational parts,
* ``float``     -- machine ``complex128``.

A mode's arrays -- algebra data from JSON parse to report, operator blocks,
spectral matrices and form vectors -- are scaled-integer arrays
(``exactla.ScaledArray``) in the exact modes and ``complex128`` in float
mode, and every exact operation runs on them.  ``Fraction`` and
:class:`GaussianRational` objects are single values at the edges: a scalar
given to :meth:`ScalarField.coerce` or ``Form.scale``, one entry read out of
an exact array.  :class:`ScalarField` bundles what a mode needs: coercion,
and JSON parsing and serialization ([num, den] pairs in the exact modes,
[re, im] in float mode).
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import chain

import numpy as np

from .errors import lookup

RATIONAL = "rational"
GAUSSIAN = "gaussian"
FLOAT = "float"
MODES = (RATIONAL, GAUSSIAN, FLOAT)


class GaussianRational:
    """Exact complex value with rational real and imaginary parts.

    It compares equal to Gaussian rationals, ints and Fractions of the same
    value and converts to complex; it has no arithmetic, which runs on
    ``exactla.ScaledArray``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.re == other and self.im == 0
        return NotImplemented

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    if isinstance(value, float) and float(value).is_integer():
        return Fraction(int(value))
    if isinstance(value, complex) and value.imag == 0:
        return _as_fraction(value.real)
    raise TypeError(f"cannot coerce {value!r} into an exact rational")


# -- JSON scalars: booleans are not numbers --------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_number, x))


def _rational(obj):
    """A JSON number, or a [num, den] pair of them, as an int or a Fraction;
    each number must be an integer (a float only when it is integral)."""
    if _is_pair(obj):
        return Fraction(_rational(obj[0]), _rational(obj[1]))
    if isinstance(obj, float) and not obj.is_integer():
        raise TypeError(f"{obj!r} is not an integer")
    return int(obj)


def _entry(mode, obj):
    """A JSON scalar as a complex in float mode, as (re, im) otherwise."""
    if _is_number(obj) or _is_pair(obj):
        if mode == FLOAT:
            return complex(*obj) if isinstance(obj, list) else complex(obj)
        return _rational(obj), 0
    if mode == GAUSSIAN and isinstance(obj, list) and len(obj) == 2 \
            and all(map(_is_pair, obj)):
        return _rational(obj[0]), _rational(obj[1])
    raise TypeError("not a number or a pair")


def _float_leaves(leaves):
    """All-number or all-[re, im]-pair leaves as complex128 in one C call, bit
    for bit what ``_entry`` gives; None for other leaves or an int past the float range."""
    pairs = set(map(type, leaves)) == {list} and set(map(len, leaves)) == {2}
    flat = list(chain.from_iterable(leaves)) if pairs else leaves
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        arr = np.frombuffer(array("d", flat), float)
    except OverflowError:
        return None
    return arr.view(complex) if pairs else arr.astype(complex)


class ScalarField:
    """Conversions for one scalar mode."""

    def __init__(self, mode: str):
        self.mode = lookup({m: m for m in MODES}, mode, "scalar mode")
        self.exact = mode != FLOAT

    def __repr__(self):
        return f"ScalarField({self.mode!r})"

    # -- scalar conversions -------------------------------------------------

    def coerce(self, value):
        if self.mode == RATIONAL:
            return _as_fraction(value)
        if self.mode == GAUSSIAN:
            if isinstance(value, GaussianRational):
                return value
            if isinstance(value, complex):
                return GaussianRational(_as_fraction(value.real), _as_fraction(value.imag))
            return GaussianRational(_as_fraction(value))
        return complex(value)

    # -- arrays ----------------------------------------------------------------

    def array(self, nested):
        """The field's array of (nested) raw or coerced scalars: complex128 in
        float mode, an ``exactla.ScaledArray`` in the exact modes, which is
        returned as it is when it is given one."""
        from . import exactla
        if not self.exact:
            return np.asarray(nested, dtype=np.complex128)
        if isinstance(nested, exactla.ScaledArray):
            return nested
        coerce = np.frompyfunc(self.coerce, 1, 1)
        return exactla.from_object(coerce(np.array(nested, dtype=object)))

    def matrix_from_json(self, nested, shape):
        """Parse a nested-list tensor of JSON scalars with a known shape into
        the field's array.

        A scalar is a number or a pair: [re, im] in float mode, [num, den]
        in the exact modes, and in gaussian mode also a pair of pairs
        [[re_num, re_den], [im_num, im_den]].  The shape must be given
        because a scalar may itself be a 2-list, which plain shape inference
        would read as an extra axis.  Every list length is checked, one level
        at a time, before anything is allocated.  Float entries that are all
        numbers or all [re, im] pairs convert in one C call; other input is
        parsed entry by entry, and a TypeError names the first bad entry and
        its index.  The exact modes build one ScaledArray from the entries.
        """
        from . import exactla
        leaves = [nested]
        for depth, n in enumerate(shape):
            if not all(isinstance(node, (list, tuple)) and len(node) == n for node in leaves):
                raise TypeError(f"expected a sequence of length {n} at depth {depth}")
            leaves = list(chain.from_iterable(leaves))
        if not self.exact:
            flat = _float_leaves(leaves)
            if flat is not None:
                return flat.reshape(shape)
        entries = []
        for i, obj in enumerate(leaves):
            try:
                entries.append(_entry(self.mode, obj))
            except (TypeError, OverflowError, ZeroDivisionError) as exc:
                index = tuple(int(x) for x in np.unravel_index(i, shape))
                raise TypeError(f"entry {obj!r} at index {index} is not a {self.mode} "
                                f"scalar: {exc}") from None
        if not self.exact:
            return np.array(entries, dtype=np.complex128).reshape(shape)
        return exactla.from_pairs(entries, shape)

    def matrix_to_json(self, mat):
        """Nested lists of the field's JSON scalars, one per entry."""
        if self.exact:
            return mat.to_json(self.mode == GAUSSIAN)
        return np.stack([mat.real, mat.imag], axis=-1).tolist()


_FIELDS = {mode: ScalarField(mode) for mode in MODES}


def field_for(mode: str) -> ScalarField:
    return lookup(_FIELDS, mode, "scalar mode")
