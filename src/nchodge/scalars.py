"""Scalar arithmetic for the three supported coefficient modes.

* ``rational``  -- exact :class:`fractions.Fraction` scalars,
* ``gaussian``  -- exact Gaussian rationals ``a + b*i`` with rational parts,
* ``float``     -- machine ``complex128``.

``Fraction`` and :class:`GaussianRational` objects appear where scalars
meet the outside: algebra input, JSON, and single entries read out of exact
arrays.  Exact operator blocks, spectral matrices and form vectors are
scaled-integer arrays (``exactla.ScaledArray``); float ones are
``complex128``.  :class:`ScalarField` bundles what a mode needs: zero/one
constants, coercion, and JSON parsing and serialization ([num, den] pairs
in the exact modes, [re, im] in float mode).
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
        if isinstance(obj, (int, float)):
            base = _as_fraction(obj)
            return base if self.mode == RATIONAL else GaussianRational(base)
        if isinstance(obj, list) and len(obj) == 2:
            if all(isinstance(x, (int, float)) for x in obj):
                frac = Fraction(_as_fraction(obj[0]), _as_fraction(obj[1]))
                return frac if self.mode == RATIONAL else GaussianRational(frac)
            if self.mode == GAUSSIAN and all(isinstance(x, list) for x in obj):
                re = Fraction(_as_fraction(obj[0][0]), _as_fraction(obj[0][1]))
                im = Fraction(_as_fraction(obj[1][0]), _as_fraction(obj[1][1]))
                return GaussianRational(re, im)
        raise TypeError(f"cannot parse {self.mode} scalar from {obj!r}")

    def to_json(self, value):
        if self.mode == RATIONAL:
            f = _as_fraction(value) if not isinstance(value, Fraction) else value
            return [f.numerator, f.denominator]
        if self.mode == GAUSSIAN:
            g = value if isinstance(value, GaussianRational) else GaussianRational(_as_fraction(value))
            return [[g.re.numerator, g.re.denominator],
                    [g.im.numerator, g.im.denominator]]
        c = complex(value)
        return [c.real, c.imag]

    # -- array builders ------------------------------------------------------

    def zeros(self, shape) -> np.ndarray:
        if self.exact:
            return np.full(shape, self.zero, dtype=object)
        return np.zeros(shape, dtype=np.complex128)

    def eye(self, n: int) -> np.ndarray:
        if not self.exact:
            return np.eye(n, dtype=np.complex128)
        out = self.zeros((n, n))
        for i in range(n):
            out[i, i] = self.one
        return out

    def array(self, nested) -> np.ndarray:
        """Build an array from (nested) already-coerced or raw scalars."""
        if not self.exact:
            return np.asarray(nested, dtype=np.complex128)
        arr = np.array(nested, dtype=object)
        flat = arr.reshape(-1)
        for i, v in enumerate(flat):
            flat[i] = self.coerce(v)
        return flat.reshape(arr.shape)

    def matrix_from_json(self, nested, shape) -> np.ndarray:
        """Parse a nested-list tensor of JSON scalars with a known shape.

        The shape must be given because a scalar may itself be a 2-list
        ([num, den] or [re, im]), which plain shape inference would read as
        an extra axis.
        """
        out = self.zeros(tuple(shape))

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
        return out

    def matrix_to_json(self, mat):
        if hasattr(mat, "den"):     # an exact exactla.ScaledArray
            return mat.to_json(self.mode == GAUSSIAN)
        # iterating an object array yields bare scalars, not 0-d arrays
        if not isinstance(mat, np.ndarray):
            return self.to_json(mat)
        if mat.ndim == 0:
            return self.to_json(mat.item())
        return [self.matrix_to_json(row) for row in mat]


_FIELDS = {mode: ScalarField(mode) for mode in MODES}


def field_for(mode: str) -> ScalarField:
    try:
        return _FIELDS[mode]
    except KeyError:
        raise ValueError(f"unknown scalar mode {mode!r}; expected one of {MODES}") from None
