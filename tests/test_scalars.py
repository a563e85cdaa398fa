from fractions import Fraction

import numpy as np
import pytest

from nchodge.scalars import (FLOAT, GAUSSIAN, RATIONAL, GaussianRational,
                             field_for)


def test_rational_coerce_and_json_roundtrip():
    f = field_for(RATIONAL)
    x = f.coerce("3/7")
    assert x == Fraction(3, 7)
    assert f.matrix_to_json(f.array([x])) == [[3, 7]]
    assert f.from_json([3, 7]) == x
    assert f.from_json(5) == Fraction(5)


def test_gaussian_arithmetic():
    f = field_for(GAUSSIAN)
    a = f.coerce(1 + 2j)
    b = f.coerce(3)
    assert a * b == GaussianRational(3, 6)
    assert a + b == GaussianRational(4, 2)
    assert a - a == f.zero
    # division must stay inside the field
    q = a / GaussianRational(1, 1)
    assert q * GaussianRational(1, 1) == a


def test_gaussian_json_roundtrip():
    f = field_for(GAUSSIAN)
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    (pair,) = f.matrix_to_json(f.array([a]))
    assert pair == [[1, 2], [-3, 4]]
    assert f.from_json(pair) == a
    assert complex(a) == 0.5 - 0.75j


def test_float_mode_is_complex128():
    f = field_for(FLOAT)
    assert not f.exact
    arr = f.array([[1, 2], [3, 4]])
    assert arr.dtype == np.complex128


def test_matrix_from_json_needs_shape():
    # a scalar is itself a 2-list, so shape inference alone is ambiguous
    f = field_for(RATIONAL)
    mat = f.matrix_from_json([[[1, 2], [1, 3]]], (1, 2))
    assert mat.shape == (1, 2)
    assert mat[0, 0] == Fraction(1, 2)
    with pytest.raises(TypeError):
        f.matrix_from_json([[1, 2]], (3, 3))


def test_matrix_json_roundtrip_all_modes():
    for mode in (RATIONAL, GAUSSIAN, FLOAT):
        f = field_for(mode)
        mat = f.array([[1, -2], [0, 5]])
        back = f.matrix_from_json(f.matrix_to_json(mat), mat.shape)
        assert np.array_equal(back, mat)


def test_unknown_mode_rejected():
    with pytest.raises(Exception):
        field_for("decimal")
