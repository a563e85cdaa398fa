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

import json
import math
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
    return _complex128(flat, pairs)


def _complex128(flat, pairs):
    """JSON ints and floats, read as [re, im] pairs or as real numbers, as
    complex128; None for an int past the float range."""
    try:
        arr = np.frombuffer(array("d", flat), float)
    except OverflowError:
        return None
    return arr.view(complex) if pairs else arr.astype(complex)


# -- JSON text of a float matrix, read without a Python list per entry -----

_NUMBER_CHARS = b"0123456789+-.eE"
_JSON_SPACE = b" \t\n\r"
_MARK_NUMBERS = bytes.maketrans(_NUMBER_CHARS, b"N" * len(_NUMBER_CHARS))


def _skeleton_length(shape, leaf_length):
    length = leaf_length
    for n in reversed(shape):
        length = 2 + n * length + max(n - 1, 0)
    return length


def _skeleton(shape, leaf):
    """The brackets and commas of a JSON tensor of ``shape`` whose entries
    each have the brackets and commas ``leaf``."""
    for n in reversed(shape):
        leaf = b"[" + b",".join([leaf] * n) + b"]"
    return leaf


def float_span(span: bytes, shape):
    """The JSON text ``span`` of a float tensor of ``shape`` as complex128,
    bit for bit what ``matrix_from_json`` gives on ``json.loads(span)``, or
    None when the text cannot be proven to be such a tensor.

    Every entry must be a number, or every entry an [re, im] pair of
    numbers.  The shape is proven by C loops over the bytes alone: the span
    holds only number characters, brackets, commas and JSON whitespace; with
    each number character marked N and whitespace deleted, no number follows
    a ``]`` or precedes a ``[``; without the N marks, the brackets and
    commas are those of ``shape``.  The values come from one ``json.loads``
    of the bracket-free text, so from the parser ``json.loads(span)`` uses,
    and their count must match the shape."""
    if span.translate(None, _NUMBER_CHARS + b"[]," + _JSON_SPACE):
        return None
    marked = span.translate(_MARK_NUMBERS, _JSON_SPACE)
    # one numpy pass per test: `b"]N" in marked` took ten times as long
    chars = np.frombuffer(marked, np.uint8)
    number = chars == ord("N")
    if (number[1:] & (chars[:-1] == ord("]"))).any() \
            or (number[:-1] & (chars[1:] == ord("["))).any():
        return None
    skeleton = marked.translate(None, b"N")
    # the axes past the first empty one leave no bracket; the two lengths
    # differ unless the tensor has no entries, and then the forms agree
    seen = shape[:shape.index(0) + 1] if 0 in shape else shape
    for pairs, leaf in ((True, b"[,]"), (False, b"")):
        if _skeleton_length(seen, len(leaf)) == len(skeleton):
            break
    else:
        return None
    if skeleton != _skeleton(seen, leaf):
        return None
    try:
        flat = json.loads(b"[%s]" % span.translate(None, b"[]"))
    except ValueError:
        return None
    if len(flat) != math.prod(shape) * (2 if pairs else 1):
        return None
    arr = _complex128(flat, pairs)
    return None if arr is None else arr.reshape(shape)


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
