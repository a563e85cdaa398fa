import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nchodge.errors import (GridTooCoarse, GridTooLarge, InputError, NCHodgeError,
                            NotIntegrable, VanishingOmega)
from nchodge.gv import (MAX_GRID, _custom_omega, builtin_omega, connection_form,
                        exterior_derivative, grid, gv_report, spectral_derivative)
from test_algebra import _JUNK, _TREES


def test_spectral_derivative_exact_on_band_limited():
    xs, _, _ = grid(16)
    f = np.sin(2 * np.pi * xs) + 0.5 * np.cos(4 * np.pi * xs)
    expect = 2 * np.pi * np.cos(2 * np.pi * xs) \
        - 2 * np.pi * np.sin(4 * np.pi * xs)
    assert np.max(np.abs(spectral_derivative(f, 0) - expect)) < 1e-12


def test_missing_component_names_its_key():
    fields = builtin_omega("dz", 8)
    del fields["z"]
    with pytest.raises(InputError) as exc:
        gv_report(fields)
    assert exc.value.context == {"key": "z"}


def test_vertical_form_trivial():
    rep = gv_report("dz", 16)
    assert rep["gv"] == 0.0
    assert rep["integrability_max_abs"] == 0.0
    assert rep["passed"]


def test_integrable_form_vanishing_invariant():
    rep = gv_report("sin-z", 32)
    assert rep["integrability_max_abs"] < 1e-8
    assert abs(rep["gv"]) <= 1e-6
    assert rep["gauge_residual"] <= 1e-6
    assert rep["passed"]


def test_grid_doubling_stable():
    a = gv_report("sin-z", 16)["gv"]
    b = gv_report("sin-z", 32)["gv"]
    assert abs(a - b) <= 1e-6


def test_contact_form_rejected():
    with pytest.raises(NotIntegrable):
        gv_report("x-dy", 16)


def test_vanishing_omega_rejected():
    zero = np.zeros((16, 16, 16))
    with pytest.raises(VanishingOmega):
        connection_form({"x": zero, "y": zero, "z": zero})


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        builtin_omega("dz", 4)


def test_grid_too_large():
    # refused before the n^3 arrays are allocated
    with pytest.raises(GridTooLarge) as info:
        builtin_omega("dz", MAX_GRID + 1)
    assert info.value.context == {"n": MAX_GRID + 1, "cap": MAX_GRID}


def test_exterior_derivative_of_gradient_vanishes():
    # d(df) = 0 for a band-limited scalar
    xs, ys, _ = grid(16)
    f = np.sin(2 * np.pi * xs) * np.cos(2 * np.pi * ys)
    df = {c: spectral_derivative(f, a) for a, c in enumerate(("x", "y", "z"))}
    ddf = exterior_derivative(df, "spectral")
    for comp in ddf.values():
        assert np.max(np.abs(comp)) < 1e-10


def test_central_derivative_route_runs():
    rep = gv_report("dz", 16, derivative="central")
    assert rep["gv"] == 0.0 and rep["passed"]


# -- the per-slice solve and one-FFT-per-component derivative ------------------

def reference_exterior_derivative(omega, derivative):
    """Two transforms per pair, as each partial was once taken."""
    from nchodge.gv import AXIS, central_derivative

    def spectral(f, axis):
        f = np.asarray(f, dtype=float)
        n = f.shape[axis]
        k = np.fft.fftfreq(n, d=1.0 / n)
        if n % 2 == 0:
            k[n // 2] = 0.0
        shape = [1, 1, 1]
        shape[axis] = n
        return np.real(np.fft.ifftn(np.fft.fftn(f) * (2j * np.pi * k.reshape(shape))))

    d = spectral if derivative == "spectral" else central_derivative
    return {a + b: d(omega[b], AXIS[a]) - d(omega[a], AXIS[b])
            for a, b in (("x", "y"), ("x", "z"), ("y", "z"))}


def reference_connection_form(omega, derivative):
    """The full-stack solve: one pseudoinverse per grid point."""
    from nchodge.gv import wedge_12
    dw = reference_exterior_derivative(omega, derivative)
    defect = float(np.max(np.abs(wedge_12(omega, dw))))
    shape = omega["x"].shape
    wx, wy, wz = (np.asarray(omega[c], dtype=float).reshape(-1) for c in "xyz")
    zero = np.zeros_like(wx)
    mats = np.stack([np.stack([wy, -wx, zero], axis=-1),
                     np.stack([wz, zero, -wx], axis=-1),
                     np.stack([zero, wz, -wy], axis=-1)], axis=-2)
    rhs = np.stack([dw["xy"].reshape(-1), dw["xz"].reshape(-1),
                    dw["yz"].reshape(-1)], axis=-1)[..., None]
    sol = np.linalg.pinv(mats) @ rhs
    theta = {c: sol[:, i, 0].reshape(shape) for i, c in enumerate("xyz")}
    resid = np.max(np.abs((mats @ sol)[..., 0] - rhs[..., 0]))
    return theta, float(resid), defect


def _gradient_form(g):
    return {c: spectral_derivative(g, a) for a, c in enumerate("xyz")}


def _test_fields(n=16):
    xs, ys, zs = grid(n)
    two_pi = 2 * np.pi
    x_only = _gradient_form(zs + 0.1 * np.sin(two_pi * ys) * np.cos(two_pi * zs))
    generic = _gradient_form(zs + 0.1 * np.sin(two_pi * xs) * np.cos(two_pi * (ys + zs))
                             + 0.05 * np.cos(2 * two_pi * xs))
    signed = {c: v.copy() for c, v in builtin_omega("sin-z", n).items()}
    signed["y"][3] = -0.0                       # one x slice differs only in sign
    return {"dz": builtin_omega("dz", n), "sin-z": builtin_omega("sin-z", n),
            "x-invariant": x_only, "generic": generic, "signed-zero": signed}


@pytest.mark.parametrize("derivative", ["spectral", "central"])
@pytest.mark.parametrize("name", ["dz", "sin-z", "x-invariant", "generic", "signed-zero"])
def test_connection_form_is_bitwise_the_full_stack_solve(name, derivative):
    omega = _test_fields()[name]
    theta, info = connection_form(omega, derivative)
    want, resid, defect = reference_connection_form(omega, derivative)
    for c in "xyz":
        assert theta[c].tobytes() == want[c].tobytes()
    assert info["solve_residual"] == resid
    assert info["integrability_max_abs"] == defect
    dw = exterior_derivative(omega, derivative)
    ref = reference_exterior_derivative(omega, derivative)
    assert all(dw[k].tobytes() == ref[k].tobytes() for k in ref)


@pytest.mark.parametrize("name,stack", [
    ("dz", 1), ("sin-z", 16), ("x-invariant", 256), ("generic", 4096),
    ("signed-zero", 256)])
def test_one_pseudoinverse_per_distinct_slice(monkeypatch, name, stack):
    sizes = []
    original = np.linalg.pinv

    def counting(a, *args, **kwargs):
        sizes.append(a.size // 9)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counting)
    connection_form(_test_fields()[name])
    assert sizes == [stack]


def test_spectral_gv_takes_27_transforms(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    gv_report("sin-z", 16)
    # three exterior derivatives (d omega, d theta, the gauge-shifted
    # d theta), each 3 forward and 6 inverse transforms
    assert len(calls) == 27


@pytest.mark.parametrize("fields,got", [([1.0, 2.0], "list"), ("sin-z", "str"),
                                        (3.5, "float"), (None, "NoneType")])
def test_custom_omega_that_is_not_a_mapping_names_the_form(fields, got):
    with pytest.raises(InputError) as exc:
        _custom_omega(fields)
    assert exc.value.context == {"key": "omega"}
    assert got in str(exc.value) and "component" not in str(exc.value)


# -- the defining-form loader on generated input ------------------------------------

def _cubes(n):
    """n x n x n nested lists of junk, of numbers, or of one repeated number."""
    def cube(entries):
        return st.lists(st.lists(st.lists(entries, min_size=n, max_size=n),
                                 min_size=n, max_size=n), min_size=n, max_size=n)
    return st.one_of(cube(_JUNK), cube(st.floats()), _JUNK.map(lambda x: [[[x] * n] * n] * n))


_OMEGAS = st.one_of(
    _TREES,
    st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({}, optional={
        c: st.one_of(_cubes(n), _cubes(n + 1), _TREES) for c in "xyzw"})))


@settings(max_examples=200, deadline=None)
@given(_OMEGAS)
def test_custom_omega_on_generated_fields_ends_in_keyed_errors(fields):
    """Generated fields load as three finite float grids of one n^3 shape,
    or fail with a package error naming the component at fault, or the
    form itself when it is not a mapping."""
    try:
        omega = _custom_omega(fields)
    except NCHodgeError as exc:
        keys = ("x", "y", "z") if isinstance(fields, dict) else ("omega",)
        assert exc.code == "cli/InputError" and exc.context["key"] in keys, exc
    else:
        n = omega["x"].shape[0]
        assert sorted(omega) == ["x", "y", "z"]
        for f in omega.values():
            assert f.dtype == float and f.shape == (n, n, n) and np.isfinite(f).all()
