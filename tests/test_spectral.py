import dataclasses
import json

import numpy as np
import pytest

import nchodge as nc
from nchodge import cli, exactla, spectral
from nchodge.scalars import GaussianRational
from nchodge.spectral import admissible_roots
from test_algebra import _bytecheck_file
from test_forms import _algebra


@pytest.fixture(scope="module")
def dual():
    return nc.build_window(nc.builtin_algebra("dual-numbers"), 3)


def test_harmonic_projection_dual_numbers(dual):
    data = nc.spectral_data(dual, 1)
    assert np.array_equal(data.P, dual.field.array([[1, 0], [0, 0]]))
    assert np.array_equal(data.G, dual.field.array([[0, 0], [0, "1/2"]]))


def test_rescaled_laplacian_dual_numbers(dual):
    L1 = nc.operator_matrices(dual)["L"].blocks[1]
    assert np.array_equal(L1, dual.field.array([[0, 0], [0, 4]]))
    from nchodge.spectral import rescaled_laplacian_check
    rank_perp = exactla.rank(nc.spectral_data(dual, 1).P_perp)
    norm_p, min_sing = rescaled_laplacian_check(dual, 1, rank_perp)
    assert norm_p == 0.0
    assert min_sing == pytest.approx(4.0)


def test_hodge_split_xdx(dual):
    xdx = dual.basis_form(1, dual.bases[1].index((1, 1)))
    harm, dpart, bpart = nc.hodge_split(dual, xdx)
    assert harm.is_zero() and dpart.is_zero()
    assert bpart == xdx


def test_split_resums_exactly():
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    rng = np.random.default_rng(11)
    for degree in (0, 1, 2):
        coords = [int(c) for c in rng.integers(-3, 4, w.degree_dims[degree])]
        form = nc.Form({degree: w.field.array(coords)})
        harm, dpart, bpart = nc.hodge_split(w, form)
        assert (harm + dpart + bpart - form).is_zero()


def test_gaussian_split_resums_exactly():
    w = nc.build_window(nc.builtin_algebra("m2", "gaussian"), 2)
    rng = np.random.default_rng(13)
    for degree in (0, 1):
        size = w.degree_dims[degree]
        form = nc.Form({degree: w.field.array([
            GaussianRational(int(a), int(b))
            for a, b in zip(rng.integers(-3, 4, size), rng.integers(-3, 4, size))])})
        harm, dpart, bpart = nc.hodge_split(w, form)
        assert harm + dpart + bpart == form
        assert degree == 0 or not (dpart + bpart).is_zero()


def test_projection_matches_float_eigensolver():
    for name in ("two-points", "m2"):
        w = nc.build_window(nc.builtin_algebra(name), 2)
        for degree in (0, 1):
            exact_p = nc.harmonic_projection(w, degree).P
            float_p = nc.eigenprojection_float(w, degree)
            assert exactla.max_abs(exactla.to_complex(exact_p) - float_p) < 1e-10


def test_rank_partition():
    w = nc.build_window(nc.builtin_algebra("m2"), 2)
    K = nc.operator_matrices(w)["k"].blocks
    for degree in (0, 1):
        data = nc.spectral_data(w, degree)
        dim = w.degree_dims[degree]
        omk = exactla.eye_like(K[degree]) - K[degree]
        omk2 = exactla.matmul(omk, omk)
        assert exactla.rank(data.P) + exactla.rank(omk2) == dim


def test_spectrum_roots_are_admissible():
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    for degree in (0, 1, 2):
        spectrum = nc.spectrum_report(w, degree)
        allowed = admissible_roots(degree)
        for root, mult in spectrum:
            assert mult >= 1
            assert min(abs(root - a) for a in allowed) < 1e-8


def test_green_inverts_on_complement(dual):
    data = nc.spectral_data(dual, 1)
    k1 = nc.operator_matrices(dual)["k"].blocks[1]
    omk = exactla.eye_like(k1) - k1
    assert np.array_equal(exactla.matmul(data.G, omk), data.P_perp)
    assert exactla.is_zero_matrix(exactla.matmul(data.G, data.P))


def test_spectral_report_passes_float_mode():
    w = nc.build_window(nc.builtin_algebra("dual-numbers", "float"), 3)
    rep = nc.spectral_report(w)
    assert rep["passed"]
    assert rep["scalars"] == "float"


def test_report_takes_k_eigenvalues_once_per_degree(monkeypatch):
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    expected = nc.spectral_report(w)
    real_eigvals, calls = np.linalg.eigvals, []

    def counting(mat):
        calls.append(mat.shape)
        return real_eigvals(mat)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    assert nc.spectral_report(w) == expected
    assert calls == [(d, d) for d in w.degree_dims[:3]]


@pytest.mark.parametrize("name,n_max", [("two-points", 6), ("z3", 4)])
def test_float_report_factors_each_degree_once(monkeypatch, name, n_max):
    import scipy.linalg
    real_schur, calls = scipy.linalg.schur, []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", counting)
    w = nc.build_window(nc.builtin_algebra(name, "float"), n_max)
    rep = nc.spectral_report(w)
    # one Schur form per degree above 0 builds P, and P is the report's
    # float eigenprojection: the degree-0 P is the identity
    assert len(calls) == n_max - 1
    assert [row["crt_vs_eig"] for row in rep["degrees"]] == [0.0] * n_max
    assert rep["passed"]
    # exact windows still compare P against an independent Schur form per degree
    calls.clear()
    assert nc.spectral_report(nc.build_window(nc.builtin_algebra(name), n_max))["passed"]
    assert calls == [(d, d) for d in w.degree_dims[:n_max]]


@pytest.mark.parametrize("name,mode,n_max", [("z3", "rational", 3), ("m2", "gaussian", 2)])
def test_image_membership_matches_rank_and_rejects(name, mode, n_max):
    w = nc.build_window(nc.builtin_algebra(name, mode), n_max)
    ops = nc.operator_matrices(w)
    rng = np.random.default_rng(17)
    seen = set()
    for op, degree in [("d", n) for n in range(n_max)] + [("b", n) for n in range(1, n_max + 1)]:
        block, target = ops[op].blocks[degree], degree + ops[op].degree_shift
        inside = exactla.matmul(block, w.field.array(
            [int(c) for c in rng.integers(-3, 4, block.shape[1])]))
        basis = [w.basis_form(target, i).component(target) for i in range(block.shape[0])]
        for vec in [inside] + basis:
            want = exactla.rank(exactla.from_object(np.concatenate(
                [np.asarray(block), np.asarray(vec).reshape(-1, 1)], axis=1))) == exactla.rank(block)
            assert spectral._in_image(w, op, degree, vec) is want
            assert spectral._in_image(w, op, degree, vec.reshape(-1, 1)) is want
            seen.add(want)
    assert seen == {True, False}


def test_second_split_at_a_degree_eliminates_nothing(monkeypatch):
    w = nc.build_window(nc.builtin_algebra("z3"), 3)
    rng = np.random.default_rng(19)
    forms = [nc.Form({2: w.field.array([int(c) for c in rng.integers(-3, 4, w.degree_dims[2])])})
             for _ in range(2)]
    real_rref, calls = exactla.rref, []

    def counting(mat):
        calls.append(mat.shape)
        return real_rref(mat)

    monkeypatch.setattr(exactla, "rref", counting)
    _, dpart, bpart = nc.hodge_split(w, forms[0])
    assert not dpart.is_zero() and not bpart.is_zero()
    dims = w.degree_dims
    assert sorted(calls) == [(dims[1], dims[2]), (dims[3], dims[2])]     # d_1^T, b_3^T
    calls.clear()
    harm, dpart, bpart = nc.hodge_split(w, forms[1])
    assert harm + dpart + bpart == forms[1]
    assert not dpart.is_zero() and not bpart.is_zero()
    assert calls == []


def _random_vector(w, rng, degree, scale=3):
    size = w.degree_dims[degree]
    re = rng.integers(-scale, scale + 1, size)
    if w.field.mode == "gaussian":
        im = rng.integers(-scale, scale + 1, size)
        return w.field.array([GaussianRational(int(a), int(b)) for a, b in zip(re, im)])
    if w.field.mode == "float":
        return re + 1j * rng.integers(-scale, scale + 1, size)
    return w.field.array([int(c) for c in re])


def _fields(mat):
    """The canonical fields of an exact array."""
    return (mat.den, mat.num.dtype, mat.num.tolist(),
            None if mat.im is None else mat.im.tolist())


def _chains(w, n, vec):
    """The split of ``vec`` through the operator chains themselves:
    P v, G D B P_perp v and G B D P_perp v."""
    ops, data, mm = nc.operator_matrices(w), nc.spectral_data(w, n), exactla.matmul
    D, B = ops["d"].blocks, ops["b"].blocks
    rest = mm(data.P_perp, vec)
    dn = mm(data.G, mm(D[n - 1], mm(B[n], rest))) if n else None
    return mm(data.P, vec), dn, mm(data.G, mm(B[n + 1], mm(D[n], rest)))


@pytest.mark.parametrize("name,mode,n_max", [
    ("z3", "rational", 4), ("m2", "rational", 2), ("t2", "gaussian", 2),
    ("two-points", "rational", 6), ("two-points", "gaussian", 6)])
def test_split_pieces_equal_the_operator_chains(name, mode, n_max):
    w = nc.build_window(_algebra(name, mode), n_max)
    rng = np.random.default_rng(23)
    nonzero = set()
    for n in range(n_max):
        vec = _random_vector(w, rng, n)
        harm, dpart, bpart = nc.hodge_split(w, nc.Form({n: vec}))
        want_h, want_d, want_b = _chains(w, n, vec)
        assert _fields(harm.components[n]) == _fields(want_h)
        assert _fields(bpart.components[n]) == _fields(want_b)
        if n:
            assert _fields(dpart.components[n]) == _fields(want_d)
        else:
            assert exactla.is_zero_matrix(dpart.components[0])
        nonzero |= {piece for piece, form in (("d", dpart), ("b", bpart)) if not form.is_zero()}
    assert "b" in nonzero and ("d" in nonzero or n_max == 2)


@pytest.mark.parametrize("name,n_max", [("z3", 4), ("m2", 2), ("two-points", 6)])
def test_float_split_resums_within_the_verify_tolerance(name, n_max):
    w = nc.build_window(nc.builtin_algebra(name, "float"), n_max)
    rng = np.random.default_rng(29)
    for n in range(n_max):
        vec = _random_vector(w, rng, n)
        tol = 1e-9 * max(1.0, exactla.max_abs(vec))
        harm, dpart, bpart = (f.components[n] for f in nc.hodge_split(w, nc.Form({n: vec})))
        assert exactla.max_abs(harm + dpart + bpart - vec) <= tol
        for got, want in zip((harm, dpart, bpart), _chains(w, n, vec)):
            assert want is None or exactla.max_abs(got - want) <= tol


def test_split_takes_three_products_per_degree(monkeypatch):
    w = nc.build_window(nc.builtin_algebra("z3"), 4)
    rng = np.random.default_rng(31)
    form = nc.Form({n: _random_vector(w, rng, n) for n in range(4)})
    nc.hodge_split(w, form)                       # spectral data and cokernels
    real, calls = spectral.matmul, []

    def counting(a, b):
        calls.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(spectral, "matmul", counting)
    nc.hodge_split(w, form, verify=False)
    assert len(calls) == 2 + 3 * 3
    calls.clear()
    _, dpart, bpart = nc.hodge_split(w, form)
    # verify adds one membership product per nonzero d- and b-piece
    pieces = list(dpart.components.values()) + list(bpart.components.values())
    assert len(calls) == 2 + 3 * 3 + sum(not exactla.is_zero_matrix(v) for v in pieces)


def test_split_of_a_form_past_int64_takes_the_object_path():
    w = nc.build_window(nc.builtin_algebra("z3"), 4)
    rng = np.random.default_rng(37)
    vec = w.field.array([int(c) * 2 ** 60 + 1 for c in rng.integers(-7, 8, w.degree_dims[2])])
    data = nc.spectral_data(w, 2)
    assert data.X.cap * vec.cap * vec.size >= 2 ** 63
    parts = [f.components[2] for f in nc.hodge_split(w, nc.Form({2: vec}))]
    assert {p.num.dtype for p in parts} == {np.dtype(object)}
    for got, proj in zip(parts, (data.P, data.X, data.Y)):
        want = exactla.from_object(np.dot(np.asarray(proj), np.asarray(vec)))
        assert _fields(got) == _fields(want)
    assert _fields(parts[0] + parts[1] + parts[2]) == _fields(vec)


def _m2_gaussian_file():
    """The m2 algebra stored gaussian in the basis (E11, i E12, E21/2, E22)
    that tools/bytecheck.py writes: its P blocks have imaginary parts."""
    return nc.load_algebra(_bytecheck_file("m2_gaussian"))


@pytest.mark.parametrize("name,mode,n_max", [
    *[(name, mode, n_max) for name, n_max in
      [("z3", 4), ("m2", 3), ("two-points", 6), ("dual-numbers", 5)]
      for mode in ("rational", "gaussian")],
    ("m2-gaussian-file", None, 3)])
def test_projection_ranks_read_off_the_trace_match_elimination(name, mode, n_max):
    algebra = _m2_gaussian_file() if mode is None else nc.builtin_algebra(name, mode)
    w = nc.build_window(algebra, n_max)
    report = spectral.spectral_report(w)
    assert report["passed"]
    for row in report["degrees"]:
        data = spectral.spectral_data(w, row["degree"])
        assert row["rank_P"] == exactla.rank(data.P)
        assert row["rank_P_perp"] == exactla.rank(data.P_perp)
    if mode is None:
        assert any(spectral.spectral_data(w, n).P.im is not None for n in range(n_max))


@pytest.mark.parametrize("name,n_max", [("z3", 4), ("two-points", 5)])
@pytest.mark.parametrize("mode", ["rational", "gaussian", "float"])
def test_report_rows_carried_from_the_checks_equal_fresh_residuals(name, n_max, mode):
    """The P_idempotent and green_left_inverse rows are the residuals that
    harmonic_projection and greens_operator formed for their checks; formed
    afresh from the window's cached data, they read the same."""
    w = nc.build_window(nc.builtin_algebra(name, mode), n_max)
    report = spectral.spectral_report(w)
    one_minus_k = nc.operator_matrices(w)["one_minus_k"].blocks
    for row in report["degrees"]:
        data = spectral.spectral_data(w, row["degree"])
        fresh = {"P_idempotent": exactla.matmul(data.P, data.P) - data.P,
                 "green_left_inverse":
                     exactla.matmul(data.G, one_minus_k[row["degree"]]) - data.P_perp}
        for key, mat in fresh.items():
            assert row["residuals"][key] == {"exact_zero": bool(exactla.is_zero_matrix(mat)),
                                             "max_abs": exactla.max_abs(mat)}


def _not_ranks(n):
    """n x n exact matrices whose trace is no rank: a half, an imaginary
    part, a trace past n and a negative one."""
    eye, first = np.eye(n, dtype=np.int64), np.diag([1] + [0] * (n - 1))
    return [exactla.ScaledArray(first, None, 2), exactla.ScaledArray(eye, first),
            exactla.ScaledArray(2 * eye), exactla.ScaledArray(-eye)]


@pytest.mark.parametrize("which", range(4))
def test_projection_trace_that_is_no_rank_fails_the_invariant(monkeypatch, capsys, which):
    real = spectral.spectral_data

    def corrupted(window, degree):
        data = real(window, degree)
        bad = _not_ranks(data.P.shape[0])[which]
        return dataclasses.replace(data, P=bad) if degree == 1 else data

    monkeypatch.setattr(spectral, "spectral_data", corrupted)
    with pytest.raises(AssertionError, match="trace of P is not a rank at degree 1"):
        spectral.spectral_report(nc.build_window(nc.builtin_algebra("z3"), 3))
    assert cli.main(["spectral", "--algebra", "z3", "--nmax", "3"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False and "trace of P is not a rank at degree 1" in report["error"]
