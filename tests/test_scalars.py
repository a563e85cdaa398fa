from fractions import Fraction

import numpy as np
import pytest

from nchodge.errors import InputError
from nchodge.scalars import (FLOAT, GAUSSIAN, MODES, RATIONAL, GaussianRational,
                             ScalarField, field_for)


def test_rational_coerce_and_json_roundtrip():
    f = field_for(RATIONAL)
    x = f.coerce("3/7")
    assert x == Fraction(3, 7)
    assert f.matrix_to_json(f.array([x])) == [[3, 7]]
    mat = f.matrix_from_json([[3, 7], 5, [6.0, -4]], (3,))
    assert [mat[0], mat[1], mat[2]] == [x, Fraction(5), Fraction(-3, 2)]


@pytest.mark.parametrize("make", [ScalarField, field_for])
@pytest.mark.parametrize("mode", ["decimal", ["float"]])
def test_unknown_scalar_mode_is_a_coded_lookup_error(make, mode):
    with pytest.raises(InputError) as exc:
        make(mode)
    assert exc.value.report_entry()["code"] == "cli/InputError"
    assert exc.value.context == {"name": mode, "available": sorted(MODES)}


def test_gaussian_rational_is_a_value_without_arithmetic():
    f = field_for(GAUSSIAN)
    a = f.coerce(1 + 2j)
    assert a == GaussianRational(1, 2) and a != GaussianRational(1, -2)
    assert f.coerce(3) == 3 == GaussianRational(3) and GaussianRational(3) != Fraction(3, 2)
    assert a != 1 and a != "1+2i"
    assert complex(a) == 1 + 2j and bool(a) and not GaussianRational(0)
    assert repr(GaussianRational(Fraction(1, 2))) == "GaussianRational(Fraction(1, 2), Fraction(0, 1))"
    for op in (lambda: a + 1, lambda: 1 - a, lambda: a * a, lambda: a / 2, lambda: -a,
               lambda: {a}):
        with pytest.raises(TypeError):
            op()


def test_gaussian_json_roundtrip():
    f = field_for(GAUSSIAN)
    a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    (pair,) = f.matrix_to_json(f.array([a]))
    assert pair == [[1, 2], [-3, 4]]
    assert f.matrix_from_json([pair], (1,))[0] == a
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
    # list lengths are checked level by level, before anything is allocated
    for mode in MODES:
        with pytest.raises(TypeError, match="length 3000000000000000 at depth 0"):
            field_for(mode).matrix_from_json([1, 0], (3 * 10 ** 15,))
        with pytest.raises(TypeError, match="length 2 at depth 1"):
            field_for(mode).matrix_from_json([[1, 0], [1]], (2, 2))


def test_matrix_json_roundtrip_all_modes():
    for mode in (RATIONAL, GAUSSIAN, FLOAT):
        f = field_for(mode)
        mat = f.array([[1, -2], [0, 5]])
        back = f.matrix_from_json(f.matrix_to_json(mat), mat.shape)
        assert np.array_equal(back, mat)
    # exact values parse into the fields that the object route builds:
    # den, both parts and their int64/object widths
    values = [Fraction(1, 3), 0, GaussianRational(Fraction(-5, 6), 2), Fraction(2 ** 70, 7), 4]
    rational = [v for v in values if not isinstance(v, GaussianRational)]
    for mode, vals in ((RATIONAL, rational), (GAUSSIAN, values), (GAUSSIAN, rational)):
        f = field_for(mode)
        want = f.array(vals)
        got = f.matrix_from_json(f.matrix_to_json(want), (len(vals),))
        assert got.den == want.den and got.num.dtype == want.num.dtype
        assert got.num.tolist() == want.num.tolist()
        assert (got.im is None) == (want.im is None)
        assert got.im is None or got.im.tolist() == want.im.tolist()


def test_unknown_mode_rejected():
    with pytest.raises(Exception):
        field_for("decimal")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("entry", [
    True, False, [True, 1], [1, False], [[1, 1], [True, 1]], [[True, 1], [0, 1]],
    None, "1", [1], [1, 2, 3]])
def test_matrix_from_json_rejects_non_numbers(mode, entry):
    """Booleans are not numbers, in any mode and at any depth of a scalar."""
    with pytest.raises(TypeError):
        field_for(mode).matrix_from_json([entry], (1,))
