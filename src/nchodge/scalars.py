"""Scalar arithmetic for the three supported coefficient modes.

* ``rational``  -- exact :class:`fractions.Fraction` scalars,
* ``gaussian``  -- exact Gaussian rationals ``a + b*i`` with rational parts,
* ``float``     -- machine ``complex128``.

A mode's arrays -- algebra data from JSON parse to report, operator blocks,
spectral matrices and form vectors -- are scaled-integer arrays
(``exactla.ScaledArray``) in the exact modes and ``complex128`` in float
mode.  ``Fraction`` and :class:`GaussianRational` objects are single
scalars: one JSON entry as it is parsed, one entry read out of an exact
array, a factor of ``Form.scale``.  :class:`ScalarField` bundles what a mode
needs: zero/one constants, coercion, and JSON parsing and serialization
([num, den] pairs in the exact modes, [re, im] in float mode).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RATIONAL = "rational"
GAUSSIAN = "gaussian"
FLOAT = "float"
MODES = (RATIONAL, GAUSSIAN, FLOAT)


class GaussianRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _wrap(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n2,
                                (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._wrap(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}+{self.im}i)"


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


def _ratio(obj):
    """A JSON [num, den] pair of numbers as a Fraction; None for anything else."""
    if isinstance(obj, list) and len(obj) == 2 and all(isinstance(x, (int, float)) for x in obj):
        return Fraction(_as_fraction(obj[0]), _as_fraction(obj[1]))
    return None


class ScalarField:
    """Constants and conversions for one scalar mode."""

    def __init__(self, mode: str):
        if mode not in MODES:
            raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
        self.mode = mode
        self.exact = mode != FLOAT
        self.dtype = object if self.exact else np.complex128
        if mode == RATIONAL:
            self.zero, self.one = Fraction(0), Fraction(1)
        elif mode == GAUSSIAN:
            self.zero, self.one = GaussianRational(0), GaussianRational(1)
        else:
            self.zero, self.one = complex(0.0), complex(1.0)

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

    def from_json(self, obj):
        """Parse one JSON scalar: a bare number, a [num, den] pair, or (in
        gaussian mode) a [[re_num, re_den], [im_num, im_den]] pair of pairs."""
        if self.mode == FLOAT:
            if isinstance(obj, (int, float)):
                return complex(obj)
            if isinstance(obj, list) and len(obj) == 2:
                return complex(obj[0], obj[1])
            raise TypeError(f"cannot parse float scalar from {obj!r}")
        value = _as_fraction(obj) if isinstance(obj, (int, float)) else _ratio(obj)
        if value is not None:
            return value if self.mode == RATIONAL else GaussianRational(value)
        if self.mode == GAUSSIAN and isinstance(obj, list) and len(obj) == 2:
            re, im = map(_ratio, obj)
            if re is not None and im is not None:
                return GaussianRational(re, im)
        raise TypeError(f"cannot parse {self.mode} scalar from {obj!r}")

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

        The shape must be given because a scalar may itself be a 2-list
        ([num, den] or [re, im]), which plain shape inference would read as
        an extra axis.
        """
        from . import exactla
        out = np.empty(tuple(shape), dtype=self.dtype)

        def rec(node, idx):
            if len(idx) == len(shape):
                out[idx] = self.from_json(node)
                return
            if not isinstance(node, (list, tuple)) or len(node) != shape[len(idx)]:
                raise TypeError(
                    f"expected a sequence of length {shape[len(idx)]} at depth {len(idx)}")
            for i, sub in enumerate(node):
                rec(sub, idx + (i,))

        rec(nested, ())
        return exactla.from_object(out) if self.exact else out

    def matrix_to_json(self, mat):
        """Nested lists of the field's JSON scalars, one per entry."""
        if self.exact:
            return mat.to_json(self.mode == GAUSSIAN)
        return np.stack([mat.real, mat.imag], axis=-1).tolist()


_FIELDS = {mode: ScalarField(mode) for mode in MODES}


def field_for(mode: str) -> ScalarField:
    try:
        return _FIELDS[mode]
    except (KeyError, TypeError):       # TypeError: an unhashable mode
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}") from None
