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
    values = _float64(flat)
    return None if values is None else _complex128(values, pairs)


def _float64(numbers):
    """JSON ints and floats as float64; None for an int past the float range."""
    try:
        return np.frombuffer(array("d", numbers), float)
    except OverflowError:
        return None


def _complex128(values, pairs):
    """float64 values, read as [re, im] pairs or as real numbers, as complex128."""
    return values.view(complex) if pairs else values.astype(complex)


# -- JSON text of a float matrix, read without a Python list per entry -----

_NUMBER_CHARS = b"0123456789+-.eE"
_JSON_SPACE = b" \t\n\r"
# an N in the text itself is no number: it becomes ?
_MARK_NUMBERS = bytes.maketrans(_NUMBER_CHARS + b"N", b"N" * len(_NUMBER_CHARS) + b"?")
# JSON skips a space faster than translate deletes a bracket
_BRACKETS_AS_SPACES = bytes.maketrans(b"[]", b"  ")
# the signed zeros, whose values need no parse, by length 1-4 ("-0" is the
# JSON int 0, so only "-0.0" is -0.0), each as the little-endian word of its
# bytes under the mask of its length; lengths 0 and past 4 match nothing
_ZERO_MASK = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF, 0], np.uint32)
_ZERO_WORD = np.array([1, *(int.from_bytes(z, "little") for z in (b"0", b"-0", b"0.0", b"-0.0")),
                       1], np.uint32)


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


def _runs(mask):
    """The number of runs of Trues in ``mask``."""
    return np.count_nonzero(mask[1:] > mask[:-1]) + int(mask[:1].sum())


def _short_run(number):
    """Whether the mask ``number`` has a run of at most four Trues, as every
    signed-zero token has: it has more runs than runs of five or more."""
    runs = _runs(number)
    # five[i]: a run of five or more covers i to i + 4
    five = np.logical_and(number[:-4], number[1:-3])
    for k in range(2, 5):
        np.logical_and(five, number[k:len(number) - 4 + k], out=five)
    return runs > np.count_nonzero(five[1:] > number[:-5]) + int(five[:1].sum())


def _json_floats(text):
    """The comma-separated JSON numbers ``text`` as float64 through one
    ``json.loads``, or None if it does not parse or an int is past the float range."""
    try:
        numbers = json.loads(b"[%s]" % text)
    except ValueError:
        return None
    return _float64(numbers)


def _flat_floats(span, slots):
    """The ``slots`` numbers of ``span``, a float tensor's text whose
    brackets and commas are proven, as float64 by the run proof and the zero
    rule of ``float_span``; None if they are not ``slots`` JSON numbers."""
    compact = span.translate(None, b"[]" + _JSON_SPACE)
    chars = np.frombuffer(compact, np.uint8)
    commas = np.flatnonzero(chars == ord(","))
    if commas.size != slots - 1:
        return None
    bounds = np.empty(slots + 1, np.int32 if len(compact) <= np.iinfo(np.int32).max else np.intp)
    bounds[0], bounds[1:-1], bounds[-1] = -1, commas, len(compact)
    del commas
    lengths = np.diff(bounds) - 1
    if not lengths.all() \
            or _runs(np.frombuffer(span.translate(_MARK_NUMBERS), np.uint8) == ord("N")) != slots:
        return None
    # each token's first four bytes, from a view of the text one byte apart;
    # take() gathers twice as fast as [] here
    words = np.ndarray(len(compact), "<u4", compact + bytes(3), strides=(1,)).take(bounds[:-1] + 1)
    width = np.minimum(lengths, 5)
    zero = (words & _ZERO_MASK.take(width)) == _ZERO_WORD.take(width)
    del words, width
    if not zero.any():
        return _json_floats(compact)
    values = np.zeros(slots)
    values[zero & (lengths == 4)] = -0.0
    other = ~zero
    if other.any():
        # the other tokens, each with the comma after it, one run of tokens
        # alike at a time
        cuts = np.flatnonzero(other[1:] != other[:-1]) + 1
        cuts = np.concatenate(([0], cuts, [slots]))
        keep = np.repeat(other.take(cuts[:-1]), np.diff(bounds.take(cuts)))[:-1]
        parsed = _json_floats(chars[keep].tobytes().removesuffix(b","))
        if parsed is None or parsed.size != np.count_nonzero(other):
            return None
        values[other] = parsed
    return values


def float_span(span: bytes, shape):
    """The JSON text ``span`` of a float tensor of ``shape`` as complex128,
    bit for bit what ``matrix_from_json`` gives on ``json.loads(span)``, or
    None when the text cannot be proven to be such a tensor.

    Every entry must be a number, or every entry an [re, im] pair of
    numbers.  The shape is proven by C loops over the bytes alone: with
    each number character marked N and whitespace deleted, no number follows
    a ``]`` or precedes a ``[``; without the N marks, only the brackets and
    commas of ``shape`` are left, so the span held nothing but those, number
    characters and JSON whitespace.

    When some run of N is four long or shorter, a signed zero may be among
    the entries, and the tokens are the comma-separated pieces of the span
    with its brackets and whitespace deleted.  The run proof: with
    whitespace kept, the N marks form exactly one run per slot, and no token
    is empty, so no token held whitespace inside it (``1 2``), which the
    deletion would hide.  The zero rule: a token spelt ``0``, ``-0``,
    ``0.0`` or ``-0.0`` is set to what ``json.loads`` gives it, -0.0 for
    ``-0.0`` and +0.0 for the others (``-0`` is the JSON int 0), without a
    parse; every other token, other spellings of zero such as ``0.00``
    among them, goes in order into one ``json.loads``, and their count must
    match.  When no run is that short, no entry is a signed zero, and the
    values come from one ``json.loads`` of the span with its brackets made
    spaces and its whitespace kept.  Either way every parsed value comes
    from the parser ``json.loads(span)`` uses."""
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
    slots = math.prod(shape) * (2 if pairs else 1)
    # fewer than five number characters a slot: some run is short
    short = len(marked) - len(skeleton) < 5 * slots or _short_run(number)
    del marked, chars, number
    flat = _flat_floats(span, slots) if short \
        else _json_floats(span.translate(_BRACKETS_AS_SPACES))
    if flat is None or flat.size != slots:
        return None
    return _complex128(flat, pairs).reshape(shape)


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
