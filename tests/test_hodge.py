"""Classical finite-complex side: Betti numbers, torsion, determinants."""

import copy
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nchodge as nc
from nchodge.errors import BadGram, NCHodgeError, NotAComplex
from nchodge.hodge import _log_det, complex_to_json, load_complex
from nchodge.scalars import FLOAT, field_for
from test_algebra import _SCALARS, _TREES

_BUNDLED_CIRCLE = Path(nc.__file__).parent / "data" / "circle_alpha_-1_N8.json"


def test_twisted_circle_dets_and_torsion():
    for n in (3, 8, 17):
        t = nc.rs_torsion(nc.twisted_circle_complex(n, -1.0))
        assert t["det_prime"][0] == pytest.approx(4.0, abs=1e-9)
        assert t["det_prime"][1] == pytest.approx(4.0, abs=1e-9)
        assert t["torsion"] == pytest.approx(0.5, abs=1e-9)
        assert list(t["betti"]) == [0, 0]


def test_twisted_circle_alpha_i():
    # det' Delta_0 = |1 - i|^2 = 2
    t = nc.rs_torsion(nc.twisted_circle_complex(5, 1j))
    assert t["det_prime"][0] == pytest.approx(2.0, abs=1e-10)


def _block_sum(a, b):
    """The direct sum as it was assembled by hand: each complex's blocks
    placed in zero matrices, the one with the lower top padded with
    zero-dimensional degrees."""
    top = max(a.top, b.top)

    def dim(cx, k):
        return cx.dims[k] if k <= cx.top else 0

    def diff(cx, k):
        return cx.diffs[k] if k < cx.top else np.zeros((dim(cx, k + 1), dim(cx, k)), complex)

    def gram(cx, k):
        return cx.grams[k] if k <= cx.top else np.zeros((0, 0), complex)

    dims = [dim(a, k) + dim(b, k) for k in range(top + 1)]
    diffs, grams = [], []
    for k in range(top):
        da = diff(a, k)
        block = np.zeros((dims[k + 1], dims[k]), complex)
        block[:da.shape[0], :da.shape[1]] = da
        block[da.shape[0]:, da.shape[1]:] = diff(b, k)
        diffs.append(block)
    for k in range(top + 1):
        ga = gram(a, k)
        block = np.zeros((dims[k], dims[k]), complex)
        block[:ga.shape[0], :ga.shape[0]] = ga
        block[ga.shape[0]:, ga.shape[0]:] = gram(b, k)
        grams.append(block)
    return dims, diffs, grams


def test_direct_sum_of_unequal_tops_matches_block_assembly():
    rng = np.random.default_rng(3)
    tall = next(cx for cx, _ in iter(lambda: nc.random_complex(rng), None) if cx.top == 3)
    hollow = nc.make_complex((1, 0, 1), [np.zeros((0, 1)), np.zeros((1, 0))],
                             [2.0, None, 0.5])
    circle = nc.twisted_circle_complex(5, 1j, gram_scale=2.0)
    for a, b in [(tall, circle), (circle, tall), (hollow, circle), (circle, hollow),
                 (tall, hollow)]:
        got = nc.direct_sum(a, b)
        dims, diffs, grams = _block_sum(a, b)
        assert list(got.dims) == dims and got.name == f"{a.name}+{b.name}"
        for mine, ref in zip(got.diffs + got.grams, diffs + grams, strict=True):
            assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()


def test_torsion_additive_under_direct_sum():
    a = nc.twisted_circle_complex(8, -1.0)
    b = nc.twisted_circle_complex(5, 1j)
    la = nc.rs_torsion(a)["log_torsion"]
    lb = nc.rs_torsion(b)["log_torsion"]
    lsum = nc.rs_torsion(nc.direct_sum(a, b))["log_torsion"]
    assert abs(lsum - la - lb) < 1e-10


def test_partition_function_value():
    z = nc.abelian_cs_partition(nc.twisted_circle_complex(8, -1.0))
    assert z["Z"] == pytest.approx(2.0, abs=1e-10)


def test_partition_engineered_quarter_power():
    # dims (1, 2, 1) with orthogonal sqrt(2) maps:
    # det' Delta_0 = 2, det' Delta_1 = 4 => Z = 4^(-1/4) * 2^(3/4) = 2^(1/4)
    r2 = math.sqrt(2.0)
    cx = nc.make_complex((1, 2, 1),
                         [np.array([[r2], [0.0]]), np.array([[0.0, r2]])])
    z = nc.abelian_cs_partition(cx)
    assert z["Z"] == pytest.approx(2.0 ** 0.25, abs=1e-12)


def test_torsion_invariant_under_unitary_change():
    rng = np.random.default_rng(3)
    cx = nc.twisted_circle_complex(6, -1.0)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    # rotate the degree-1 basis; standard grams stay standard
    cx2 = nc.make_complex(cx.dims, [q @ cx.diffs[0]], None)
    t1 = nc.rs_torsion(cx)["log_torsion"]
    t2 = nc.rs_torsion(cx2)["log_torsion"]
    assert t1 == pytest.approx(t2, abs=1e-10)


def test_betti_routes_on_seeded_complexes():
    rng = np.random.default_rng(12)
    for _ in range(20):
        cx, expected = nc.random_complex(rng)
        assert nc.betti_numbers(cx) == expected


def _near_kernel_cases():
    """Criterion 8's seeded random complexes (drawn as it draws them), the
    twisted circles of criterion 7 and their direct sum, and both stock
    leaves."""
    rng = np.random.default_rng(101)
    for _ in range(50):
        cx, _ = nc.random_complex(rng)
        k = int(rng.integers(0, cx.top + 1))
        rng.normal(size=cx.dims[k]) + 1j * rng.normal(size=cx.dims[k])
        yield cx
    for n, alpha in ((3, -1.0), (8, -1.0), (17, -1.0), (5, 1j)):
        yield nc.twisted_circle_complex(n, alpha)
    yield nc.direct_sum(nc.twisted_circle_complex(8, -1.0), nc.twisted_circle_complex(5, 1j))
    for name in ("circle-leaves", "torus-leaves"):
        yield nc.builtin_model(name).leaf.complex


def _tolerances():
    from nchodge.foliation import SWEEP_TOL
    from nchodge.hodge import DET_TOL, HODGE_TOL
    return HODGE_TOL, DET_TOL, SWEEP_TOL


def _padded_ranks(cx, tol):
    """[0, r_0, ..., r_{m-1}, 0]: the rank of each W_k by the one rule, so
    r_{k-1} and r_k sit at k and k + 1."""
    from nchodge.exactla import rank_of_singular_values
    return [0, *(rank_of_singular_values(cx.singular_values(k), tol)
                 for k in range(cx.top)), 0]


def test_near_kernel_rule_agrees_across_its_readers():
    # one rank per W_k sizes the Betti number, the harmonic vectors and the
    # eigenvalues that det' drops: the b_k smallest, all of them positive
    from nchodge.hodge import _log_det
    for cx in _near_kernel_cases():
        for tol in _tolerances():
            betti = nc.betti_numbers(cx, tol)
            ranks = _padded_ranks(cx, tol)
            for k, n in enumerate(cx.dims):
                assert betti[k] == n - ranks[k] - ranks[k + 1]
                assert betti[k] == cx.harmonic_vectors(k, tol).shape[1]
                kept = cx.frame(k).eigvals[betti[k]:]
                assert kept.size == ranks[k] + ranks[k + 1] and np.all(kept > 0)
        report = nc.hodge_package(cx)
        torsion = nc.rs_torsion(cx)
        for k, eigs in enumerate(nc.laplacian_spectra(cx)):
            assert report["det_prime"][k] == _log_det(eigs, report["betti"][k])[1]
            assert torsion["det_prime"][k] == _log_det(eigs, torsion["betti"][k])[1]


def _harmonic_cases():
    """Seeded random complexes, both stock leaves, and a torus leaf whose
    Grams are 2**k * I (factored frames in degrees 1 and 2)."""
    from nchodge.foliation import make_model
    rng = np.random.default_rng(101)
    for _ in range(30):
        yield nc.random_complex(rng)[0]
    for name in ("circle-leaves", "torus-leaves"):
        yield nc.builtin_model(name).leaf.complex
    yield make_model({"type": "torus", "nx": 6}, [0.0], metric_scale=2.0).leaf.complex


def test_harmonic_vectors_span_the_near_kernel_and_nothing_else():
    # the b_k smallest eigenvalues of the spectrum are at most tol^2 lambda_max
    # (the largest squared singular value the rank drops, or 0); forming S
    # and eigensolving it add O(n eps lambda_max), which 32 n eps bounds
    # with the margin of the spectra test
    eps = np.finfo(float).eps
    for cx in _harmonic_cases():
        for tol in _tolerances():
            betti = nc.betti_numbers(cx, tol)
            for k, n in enumerate(cx.dims):
                eigs = cx.frame(k).eigvals
                q = cx.harmonic_vectors(k, tol)
                assert q.shape == (n, betti[k])
                assert not q.flags.writeable
                assert np.linalg.norm(q.conj().T @ q - np.eye(betti[k])) <= 1e-12
                if betti[k]:
                    assert eigs[betti[k] - 1] <= tol ** 2 * eigs[-1]
                    bound = eigs[betti[k] - 1] + 32 * n * eps * eigs[-1]
                    assert np.linalg.norm(cx.sym(k) @ q, 2) <= bound


def test_acyclic_complex_has_no_harmonic_vectors():
    from nchodge.hodge import HODGE_TOL
    cx = nc.twisted_circle_complex(8, -1.0)
    for k in (0, 1):
        q = cx.harmonic_vectors(k, HODGE_TOL)
        assert q.shape == (8, 0) and not q.flags.writeable


def test_sweep_and_decompose_run_no_full_eigensolve(monkeypatch):
    from nchodge.foliation import random_smooth_phi, witten_betti_sweep

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name in ("circle-leaves", "torus-leaves"):
        phi = random_smooth_phi(np.random.default_rng(3))
        assert witten_betti_sweep(nc.builtin_model(name), phi, (0.0, 1.0))["passed"]
    # decompose takes every piece from singular vectors: no eigensolve at all
    import scipy.linalg
    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    rng = np.random.default_rng(101)
    for _ in range(10):
        cx, _ = nc.random_complex(rng)
        for k in range(cx.top + 1):
            v = rng.normal(size=cx.dims[k]) + 1j * rng.normal(size=cx.dims[k])
            assert np.allclose(sum(nc.decompose(cx, k, v)), v)


def test_each_gram_is_tested_for_the_identity_once(monkeypatch):
    from nchodge import hodge
    from nchodge.foliation import torus_leaf
    units = _counting(monkeypatch, hodge, "_is_unit")
    cx = torus_leaf(8).complex
    for k in range(cx.top + 1):
        cx.frame(k)
    hodge.adjoints(cx)
    assert len(units) == len(cx.grams) == 3


def test_betti_numbers_do_not_depend_on_the_scale_of_the_differentials():
    rng = np.random.default_rng(101)
    for _ in range(8):
        cx, expected = nc.random_complex(rng)
        for scale in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4):
            scaled = nc.make_complex(cx.dims, [scale * d for d in cx.diffs], cx.grams)
            for tol in _tolerances():
                assert nc.betti_numbers(scaled, tol) == expected, (scale, tol)


def test_betti_numbers_do_not_depend_on_the_scale_of_each_differential():
    # each differential scaled by its own factor is still a complex with the
    # same Betti numbers; a Laplacian mixes two differentials, so a cut
    # against the larger one would call the smaller one's image harmonic.
    # The complexes: criterion 8's generator, 50 draws, two or more
    # differentials
    rng = np.random.default_rng(101)
    cases = 0
    for cx, expected in (nc.random_complex(rng) for _ in range(50)):
        if cx.top < 2:
            continue
        for scales in itertools.product((1e-3, 1.0, 1e3), repeat=cx.top):
            scaled = nc.make_complex(cx.dims, [s * d for s, d in zip(scales, cx.diffs)],
                                     cx.grams)
            for tol in _tolerances():
                assert nc.betti_numbers(scaled, tol) == expected, (scales, tol)
                cases += 1
    assert cases == 1701


@pytest.mark.parametrize("small", [1e-10, 9e-10])
def test_decompose_leaves_a_singular_value_under_the_cut_harmonic(small):
    # sigma = small is under HODGE_TOL sigma_max, so e_2 is harmonic, and
    # |W h| = small is within the check's 2 HODGE_TOL sigma_max |u|
    cx = nc.make_complex((2, 2), [np.diag([1.0, small])])
    h, e, c = nc.decompose(cx, 0, [1.0, 1.0])
    assert np.array_equal(h, [0, 1]) and np.array_equal(c, [1, 0]) and not e.any()


def test_decompose_refuses_a_rank_one_too_small(monkeypatch):
    # a singular vector of W_j that the rank drops, with sigma far above the
    # cut, leaves its component in the harmonic piece at degrees j and j + 1
    from nchodge import hodge
    from nchodge.hodge import HODGE_TOL
    rng = np.random.default_rng(101)
    cases = 0
    for _ in range(20):
        cx, _ = nc.random_complex(rng)
        ranks = hodge._ranks(cx, HODGE_TOL)
        for j in range(cx.top):
            if not ranks[j + 1]:
                continue
            low = list(ranks)
            low[j + 1] -= 1
            monkeypatch.setattr(hodge, "_ranks", lambda cx, tol, low=low: low)
            for k in (j, j + 1):
                v = rng.normal(size=cx.dims[k]) + 1j * rng.normal(size=cx.dims[k])
                with pytest.raises(AssertionError, match=f"not annihilated by W_{j} "):
                    nc.decompose(cx, k, v)
                cases += 1
            monkeypatch.undo()
    assert cases == 54


def test_decompose_orthogonal_and_resums():
    rng = np.random.default_rng(4)
    cx, _ = nc.random_complex(rng)
    k = cx.top // 2
    v = rng.normal(size=cx.dims[k]) + 1j * rng.normal(size=cx.dims[k])
    h, e, c = nc.decompose(cx, k, v)
    assert np.linalg.norm(h + e + c - v) < 1e-9 * max(1.0, np.linalg.norm(v))
    G = cx.grams[k]
    for x, y in ((h, e), (h, c), (e, c)):
        assert abs(x.conj() @ G @ y) < 1e-9 * max(1.0, np.linalg.norm(v) ** 2)


def test_not_a_complex_rejected():
    d0 = np.array([[1.0]])
    d1 = np.array([[1.0]])
    with pytest.raises(NotAComplex):
        nc.make_complex((1, 1, 1), [d0, d1])
    with pytest.raises(NotAComplex, match="differential 0") as exc:
        nc.make_complex((2, 1), [np.array([[np.nan, 1.0]])])
    assert exc.value.context["degree"] == 0
    with pytest.raises(NotAComplex, match="differential 1 has shape") as exc:
        nc.make_complex((1, 1, 1), [np.zeros((1, 1)), np.zeros((1, 2))])
    assert exc.value.context == {"degree": 1}
    # a composition that overflows is no evidence of D_{k+1} D_k = 0
    for diffs in ([[[1e300]], [[1e300]]], [[[1e300], [1e300]], [[1e300, -1e300]]]):
        with pytest.raises(NotAComplex, match="overflow") as exc:
            load_complex({"dims": [1, len(diffs[0]), 1], "differentials": diffs})
        assert exc.value.context == {"degree": 0}


def test_bad_gram_rejected():
    d0 = np.zeros((1, 2))
    with pytest.raises(BadGram):
        nc.make_complex((2, 1), [d0], [np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0])
    with pytest.raises(BadGram):
        nc.make_complex((2, 1), [d0], [np.diag([1.0, -1.0]), 1.0])
    with pytest.raises(BadGram, match="degree 1") as exc:
        nc.make_complex((2, 1), [d0], [None, np.array([[np.inf]])])
    assert exc.value.context["degree"] == 1
    # per-degree errors name the degree: a scale that is not a positive
    # finite number, and a Gram of the wrong shape
    for grams, degree in [([None, 0.0], 1), ([-1, None], 0), ([None, np.nan], 1),
                          ([None, np.inf], 1), ([-(10 ** 400), None], 0),
                          ([np.eye(3), None], 0), ([None, np.eye(2)], 1)]:
        with pytest.raises(BadGram) as exc:
            nc.make_complex((2, 1), [d0], grams)
        assert exc.value.context == {"degree": degree}, grams


def _three_degrees(**override):
    data = {"dims": [1, 2, 1], "differentials": [[[1], [0]], [[0, 1]]],
            "gram": [None, 2.0, [[1]]]}
    data.update(override)
    return data


@pytest.mark.parametrize("data,error,key,degree", [
    # booleans, strings and tuples are not float scalars, bare or in a pair
    (_three_degrees(differentials=[[[1], [0]], [[0, True]]]), NotAComplex, "differentials", 1),
    (_three_degrees(differentials=[[[1], [0]], [[0, [1, False]]]]), NotAComplex,
     "differentials", 1),
    (_three_degrees(differentials=[[["1"], [0]], [[0, 1]]]), NotAComplex, "differentials", 0),
    (_three_degrees(differentials=[[[1], [["1", 0]]], [[0, 1]]]), NotAComplex,
     "differentials", 0),
    (_three_degrees(differentials=[[[1], [0]], [[0, (1, 0)]]]), NotAComplex, "differentials", 1),
    (_three_degrees(differentials=[[[1], [0]], [[0, 1, 0]]]), NotAComplex, "differentials", 1),
    (_three_degrees(gram=[None, 2.0, [[True]]]), BadGram, "gram", 2),
    (_three_degrees(gram=[None, 2.0, [["1"]]]), BadGram, "gram", 2),
    (_three_degrees(gram=[None, 2.0, [[(1, 0)]]]), BadGram, "gram", 2),
    (_three_degrees(gram=[[[10 ** 400]], 2.0, None]), BadGram, "gram", 0),
    # a Gram entry is null, a number that is not a bool, or a matrix
    (_three_degrees(gram=[None, True, [[1]]]), BadGram, "gram", 1),
    (_three_degrees(gram=[None, "2", [[1]]]), BadGram, "gram", 1),
    (_three_degrees(gram=["abc", 2.0, None]), BadGram, "gram", 0),
    (_three_degrees(gram=[None, {}, None]), BadGram, "gram", 1),
    (_three_degrees(gram=[None, 2.0, [[1, 0]]]), BadGram, "gram", 2),
])
def test_malformed_complex_entries_name_key_and_degree(data, error, key, degree):
    with pytest.raises(error) as exc:
        load_complex(data)
    assert exc.value.context == {"key": key, "degree": degree}


def test_missing_complex_keys_are_named():
    for data, key in [({"differentials": []}, "dims"), ({"dims": [1]}, "differentials")]:
        with pytest.raises(NotAComplex) as exc:
            load_complex(data)
        assert exc.value.context == {"key": key}


def test_unknown_complex_key_is_named():
    # a misspelt "gram" must not load with identity Grams
    data = {"dims": [2, 2], "differentials": [[[1, 0], [0, 1]]], "grams": [2, 2]}
    with pytest.raises(NotAComplex) as exc:
        load_complex(data)
    assert exc.value.context == {"key": "grams"}
    del data["grams"]
    assert load_complex(data).dims == (2, 2)


def test_complex_file_gram_forms():
    """null is the identity and a number a scale of it, which must be
    positive and finite; a scale that is not ends in BadGram naming the degree."""
    cx = load_complex(_three_degrees())
    assert [g.tolist() for g in cx.grams] == [[[1]], [[2, 0], [0, 2]], [[1]]]
    for scale in (0, -1.5, 10 ** 400, -(10 ** 400)):
        with pytest.raises(BadGram) as exc:
            load_complex(_three_degrees(gram=[None, scale, None]))
        assert exc.value.context == {"degree": 1}


def _refuse_large_eye(monkeypatch, limit):
    """np.eye raises MemoryError from ``limit`` rows up, as an allocation
    past memory would, without allocating anything."""
    eye = np.eye

    def refusing(n, *args, **kwargs):
        if n >= limit:
            raise MemoryError(f"cannot allocate a {n} x {n} identity")
        return eye(n, *args, **kwargs)

    monkeypatch.setattr(np, "eye", refusing)


@pytest.mark.parametrize("gram", [None, [None, None], [None, 2], [0.5, 3.0]])
def test_identity_gram_past_memory_is_not_a_complex(monkeypatch, gram):
    """A degree without a Gram, or with a scalar one, allocates an n x n
    identity; when that fails, the dim that asked for it is named."""
    _refuse_large_eye(monkeypatch, 6000)
    data = {"dims": [0, 6000], "differentials": [[[]] * 6000]}
    if gram is not None:
        data["gram"] = gram
    with pytest.raises(NotAComplex) as exc:
        load_complex(data)
    assert exc.value.context == {"key": "dims", "degree": 1}


def test_det_prime_guards():
    # det' drops the b_k smallest eigenvalues: an empty or all-harmonic
    # degree gives 1, and the spectrum is of squares, so never negative
    from nchodge.hodge import _log_det
    assert _log_det(np.zeros(4), 4) == (0.0, 1.0)
    assert _log_det(np.zeros(0), 0) == (0.0, 1.0)
    assert _log_det(np.array([0.0, 2.0, 3.0]), 1)[1] == pytest.approx(6.0)
    for cx, betti, det in [
            (nc.make_complex((2, 2), [np.zeros((2, 2))]), [2, 2], [1.0, 1.0]),
            (nc.make_complex((0, 3, 3), [np.zeros((3, 0)), np.eye(3)]), [0, 0, 0],
             [1.0, 1.0, 1.0]),
            (nc.make_complex((2, 2), [np.diag([2.0 ** 0.5, 3.0 ** 0.5])]), [0, 0],
             [6.0, 6.0])]:
        report = nc.hodge_package(cx)
        assert report["betti"] == betti and all(min(s, default=0) >= 0 for s in report["spectra"])
        assert report["det_prime"] == pytest.approx(det)
        assert nc.rs_torsion(cx)["det_prime"] == pytest.approx(det)
        assert nc.abelian_cs_partition(cx)["det_prime"] == pytest.approx(det[:2])


def test_gram_weighted_differential_past_the_float_range_is_a_coded_error():
    # W_0 = 1e150 * 1e300 * 1e150 overflows, so sigma_max^2 has no finite
    # log; the CLI test covers a finite one
    import warnings
    from nchodge.errors import OutOfFloatRange
    data = {"dims": [1, 1], "differentials": [[[1e300]]], "gram": [1e-300, 1e300]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfFloatRange) as exc:
            nc.laplacian_spectra(load_complex(data))
    assert exc.value.context == {"quantity": "eigenvalue", "degree": 0, "log_value": math.inf}


def test_complex_json_roundtrip(tmp_path):
    cx = nc.twisted_circle_complex(4, 1j, gram_scale=2.0)
    path = tmp_path / "cx.json"
    path.write_text(json.dumps(complex_to_json(cx)))
    back = load_complex(str(path))
    assert tuple(back.dims) == tuple(cx.dims)
    assert np.allclose(back.diffs[0], cx.diffs[0])
    assert np.allclose(back.grams[0], cx.grams[0])
    assert nc.rs_torsion(back)["log_torsion"] == pytest.approx(
        nc.rs_torsion(cx)["log_torsion"], abs=1e-12)


def _counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_torsion_builds_each_frame_once(monkeypatch):
    import scipy.linalg
    from nchodge import hodge
    cx = nc.twisted_circle_complex(8, -1.0, gram_scale=2.0)    # factored Grams
    laps = _counting(monkeypatch, hodge, "laplacians")
    chols = _counting(monkeypatch, scipy.linalg, "cholesky")
    eigs = _counting(monkeypatch, np.linalg, "eigvalsh")
    svds = _counting(monkeypatch, np.linalg, "svd")
    nc.rs_torsion(cx)
    nc.laplacian_spectra(cx)
    assert len(laps) == 1                  # S, for the Betti cross-check only
    assert len(chols) == cx.top + 1
    assert eigs == []
    # one SVD per W_k, and the raw-D_k rank of each differential whose
    # Grams are not both the identity
    assert len(svds) == 2 * len(cx.diffs)


def test_unit_gram_frames_factor_nothing(monkeypatch):
    import scipy.linalg
    from nchodge import hodge
    cx = nc.twisted_circle_complex(8, -1.0)
    factored = [_counting(monkeypatch, scipy.linalg, name)
                for name in ("cholesky", "solve_triangular")]
    factored.append(_counting(monkeypatch, np.linalg, "solve"))
    laps = _counting(monkeypatch, hodge, "laplacians")
    eigs = _counting(monkeypatch, np.linalg, "eigvalsh")
    svds = _counting(monkeypatch, np.linalg, "svd")
    nc.rs_torsion(cx)
    assert factored == [[], [], []]
    assert eigs == [] and len(laps) <= 1
    assert len(svds) == len(cx.diffs)      # W_k = D_k: the rank reads the same SVD


def test_cs_partition_forms_no_laplacian(monkeypatch, tmp_path):
    from nchodge import cli, hodge
    laps = _counting(monkeypatch, hodge, "laplacians")
    adjs = _counting(monkeypatch, hodge, "adjoints")
    svds = _counting(monkeypatch, np.linalg, "svd")
    factored = tmp_path / "circle.json"
    factored.write_text(json.dumps(complex_to_json(
        nc.twisted_circle_complex(16, 1j, gram_scale=2.0))))
    out = tmp_path / "z.json"
    for name in ("circle_alpha_-1_N8.json", str(factored)):
        assert cli.main(["cs-partition", "--complex", name, "--out", str(out)]) == 0
    cx = nc.twisted_circle_complex(8, -1.0, gram_scale=2.0)
    nc.abelian_cs_partition(cx)
    assert laps == adjs == []
    assert len(svds) == 3
    assert cx._syms is None


def test_no_eigvalsh_in_the_float_classical_commands(monkeypatch, tmp_path):
    from nchodge import cli

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    out = tmp_path / "report.json"
    runs = [[cmd, "--complex", "circle_alpha_-1_N8.json"]
            for cmd in ("hodge", "torsion", "cs-partition")]
    runs += [["witten-sweep", "--model", model] for model in ("circle-leaves", "torus-leaves")]
    for argv in runs:
        assert cli.main([*argv, "--out", str(out)]) == 0, argv


def test_spectra_match_the_eigenvalues_of_the_symmetrized_laplacian():
    # Forming S_k sums up to n_k products per entry, and a backward-stable
    # eigensolver perturbs S_k by O(n_k eps |S_k|); by Weyl's inequality
    # each eigenvalue moves by at most that perturbation's norm.  The worst
    # of these cases is 2.9 n_k eps lambda_max, so 16 leaves a margin.
    eps = np.finfo(float).eps
    cases = [cx for _, cx in _frame_cases()] + list(_harmonic_cases())
    for cx in cases:
        for k, n in enumerate(cx.dims):
            spectrum = cx.frame(k).eigvals
            assert spectrum.shape == (n,) and np.all(np.diff(spectrum) >= 0)
            if n:
                bound = 16 * n * eps * spectrum[-1]
                assert np.max(np.abs(np.linalg.eigvalsh(cx.sym(k)) - spectrum)) <= bound, k


def test_identity_grams_skip_the_gram_checks(monkeypatch):
    chols = _counting(monkeypatch, np.linalg, "cholesky")
    d0 = np.array([[1.0, -1.0]])
    nc.make_complex((2, 1), [d0])
    nc.make_complex((2, 1), [d0], [np.eye(2), 1.0])
    assert chols == []
    nc.make_complex((2, 1), [d0], [np.eye(2), 2.0])       # degree 1 is not the identity
    assert chols == ["cholesky"]


def test_is_unit_is_the_bitwise_identity():
    from nchodge.hodge import _is_unit
    rng = np.random.default_rng(4)
    cases = [np.eye(n, dtype=complex) for n in (0, 1, 5)]
    for n in (1, 4):
        for value in (-0.0, 1e-300, np.nan, 1j, 2.0, -1.0):
            for idx in [(0, 0), (n - 1, 0), (0, n - 1)]:
                g = np.eye(n, dtype=complex)
                g[idx] = value if idx[0] != idx[1] else 1.0 + value
                cases.append(g)
                cases.append(np.asfortranarray(g))
        cases.append(np.eye(n, dtype=complex) * complex(1.0, -0.0))
        cases.append(rng.normal(size=(n, n)) + 0j)
    cases.append(np.eye(6, dtype=complex)[::2, ::2])                  # non-contiguous view
    # the same Grams stored float64, as a real complex stores them
    cases += [g.real.copy(order="K") for g in cases if not g.imag.any()]
    cases.append(np.eye(6)[::2, ::2])
    for g in cases:
        want = g.tobytes() == np.eye(g.shape[0], dtype=g.dtype).tobytes()
        assert _is_unit(g) is want, g


def _negative_zero_imaginary(m):
    """``m`` as complex128 with every imaginary part -0.0."""
    out = np.array(m, dtype=complex)
    out.imag = -0.0
    return out


def test_a_complex_is_stored_float64_unless_an_entry_is_imaginary():
    d0 = [[-1.0, 1.0], [1.0, -1.0]]
    gram = [[2.0, 0.5], [0.5, 2.0]]
    hermitian = [[2.0, 0.5j], [-0.5j, 2.0]]
    for diffs, grams, dtype in [
            ([d0], None, np.float64),
            ([np.array(d0, dtype=int)], [2, gram], np.float64),
            # a -0.0 imaginary part counts as zero
            ([_negative_zero_imaginary(d0)], [None, _negative_zero_imaginary(gram)],
             np.float64),
            # one imaginary entry anywhere makes every matrix complex
            ([d0], [None, hermitian], np.complex128),
            ([np.array(d0) + 1e-300j], [3.0, gram], np.complex128)]:
        cx = nc.make_complex((2, 2), diffs, grams)
        for m in cx.diffs + cx.grams:
            assert m.dtype == dtype and m.flags.c_contiguous
        assert np.array_equal(cx.diffs[0], np.array(diffs[0]).real
                              if dtype == np.float64 else diffs[0])
        assert nc.betti_numbers(cx) == (1, 1)
        for k in (0, 1):
            for m in (cx.frame(k).chol, cx.frame(k).chol_inv, cx.sym(k),
                      cx.harmonic_vectors(k, 1e-9)):
                assert m.dtype == dtype
    # holonomy -1: real and acyclic, so no harmonic vectors, of the real dtype
    empty = nc.twisted_circle_complex(4, -1.0).harmonic_vectors(0, 1e-9)
    assert empty.shape == (4, 0) and empty.dtype == np.float64


def _reference_frames(cx):
    """(sym, eigvals) per degree by the factored route, in the complex's
    own dtype: adjoints through np.linalg.solve, Cholesky frames through
    scipy, and the spectrum the n largest of the squared singular values of
    W_k = L_{k+1}^H D_k L_k^{-H} and W_{k-1}, each padded with zeros to
    length n."""
    import scipy.linalg
    dtype = cx.grams[0].dtype
    adj = []
    for k, d in enumerate(cx.diffs):
        rhs = d.conj().T @ cx.grams[k + 1]
        adj.append(np.linalg.solve(cx.grams[k], rhs) if cx.dims[k] else rhs)
    chol = [scipy.linalg.cholesky(g, lower=True) for g in cx.grams]
    linv = [scipy.linalg.solve_triangular(L, np.eye(n, dtype=dtype), lower=True)
            for L, n in zip(chol, cx.dims)]
    squares = [np.linalg.svd(chol[k + 1].conj().T @ d @ linv[k].conj().T,
                             compute_uv=False) ** 2 for k, d in enumerate(cx.diffs)]
    out = []
    for k, n in enumerate(cx.dims):
        lap = np.zeros((n, n), dtype=dtype)
        if k < cx.top:
            lap += adj[k] @ cx.diffs[k]
        if k >= 1:
            lap += cx.diffs[k - 1] @ adj[k - 1]
        S = chol[k].conj().T @ lap @ linv[k].conj().T
        S = (S + S.conj().T) / 2
        both = [np.pad(squares[j], (0, n - len(squares[j]))) for j in (k, k - 1)
                if 0 <= j < cx.top]
        out.append((S, np.sort(np.concatenate([np.zeros(n), *both]))[-n:]))
    return out


def _frame_cases():
    from nchodge.foliation import builtin_model, make_model, torus_leaf, witten_complex
    for n in (8, 64, 256):
        for alpha in (-1.0, 1j, np.exp(2j * np.pi / 3)):
            yield f"circle-{n}-{alpha:.3f}", nc.twisted_circle_complex(n, alpha)
    yield "torus-8", torus_leaf(8).complex
    for i, cx in enumerate(witten_complex(builtin_model("torus-leaves"), "cos-hv",
                                          3.0).complexes):
        yield f"torus-cos-hv-{i}", cx
    # Grams scale**k * I: degree 0 is the identity, degrees 1 and 2 are not
    yield "torus-metric-2", make_model({"type": "torus", "nx": 6}, [0.0],
                                       metric_scale=2.0).leaf.complex


@pytest.mark.parametrize("name,cx", list(_frame_cases()))
def test_unit_gram_frames_are_bitwise_the_factored_ones(name, cx):
    for k, (sym, eigvals) in enumerate(_reference_frames(cx)):
        frame = cx.frame(k)
        assert np.array_equal(cx.sym(k).view(np.uint64), sym.view(np.uint64)), k
        assert np.array_equal(frame.eigvals.view(np.uint64), eigvals.view(np.uint64)), k


def test_frames_do_not_outlive_their_complex():
    import gc
    import weakref
    cx = nc.twisted_circle_complex(8, -1.0)
    nc.betti_numbers(cx)                   # frames, singular values and S
    cx.harmonic_vectors(0, 1e-9)
    ref = weakref.ref(cx.frame(0))
    assert not ref().eigvals.flags.writeable
    assert not cx.singular_values(0).flags.writeable and not cx.sym(0).flags.writeable
    gc.collect()
    gc.disable()                           # freed by reference counts alone: no cycle
    try:
        del cx
        assert ref() is None
    finally:
        gc.enable()


# -- the complex loader's matrix parse: ScalarField.matrix_from_json, float mode --

def reference_matrix_from_json(rows, shape):
    """The per-entry parse of the float scalar grammar, which the one-call
    conversion must reproduce bit for bit: a number is an int or a float,
    never a bool, and a pair is a 2-list of numbers."""
    def is_number(x):
        return type(x) in (int, float)

    if not (isinstance(rows, (list, tuple)) and len(rows) == shape[0]
            and all(isinstance(row, (list, tuple)) and len(row) == shape[1]
                    for row in rows)):
        raise TypeError(f"not a list of {shape[0]} rows of {shape[1]} entries")
    mat = np.zeros(shape, dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if is_number(entry):
                mat[i, j] = complex(entry)
            elif type(entry) is list and len(entry) == 2 and all(map(is_number, entry)):
                mat[i, j] = complex(float(entry[0]), float(entry[1]))
            else:
                raise TypeError(f"entry {entry!r} is not a number or [re, im] pair")
    return mat


def _parse_both(rows, shape):
    """(matrix_from_json, reference), each the matrix or None on an error;
    matrix_from_json may raise only TypeError."""
    try:
        got = field_for(FLOAT).matrix_from_json(rows, shape)
    except TypeError:
        got = None
    try:
        want = reference_matrix_from_json(rows, shape)
    except (TypeError, OverflowError):
        want = None
    return got, want


BIG = 2 ** 53 + 1


@pytest.mark.parametrize("rows,shape", [
    ([[[1.5, -2.25], [0.1, 1e-300]], [[3, 4], [-7, 0]]], (2, 2)),    # pairs
    ([[1.5, -2], [0.1, 7]], (2, 2)),                                  # numbers
    ([[1.0, [2.0, 3.0]]], (1, 2)),                                    # mixed row
    ([[[True, False], [1, 0]]], (1, 2)),              # bools: not numbers, bare or paired
    ([[True, 2.5]], (1, 2)),
    ([[True, False]], (1, 2)),
    ([[["1.5", "2"], [1, 0]]], (1, 2)),               # strings: not numbers, numeric or not
    ([["1.5", 2]], (1, 2)),
    ([["1+2j", 2]], (1, 2)),
    ([[[BIG, 0], [BIG + 2, 2 ** 60 + 1]]], (1, 2)),                   # ints above 2^53
    ([[BIG, 2 ** 62 + 3]], (1, 2)),
    ([[[2 ** 63 + 1, 0], [1, 0]]], (1, 2)),                           # past int64
    ([[[2 ** 64 + 1, 0.5], [1, 0]]], (1, 2)),
    ([[[-0.0, 0.0], [0.0, -0.0]], [[-0.0, -0.0], [1.0, -0.0]]], (2, 2)),  # signed zeros
    ([[-0.0, 0.0]], (1, 2)),
    ([[[1, 2], [3, 4, 5]]], (1, 2)),                                  # ragged pair
    ([[1, 2], [3]], (2, 2)),                                          # ragged row
    ([[1, 2]], (1, 3)),                                               # short row
    ([[[1, 2]]], (1, 2)),
    ([[[1, 2, 3]]], (1, 1)),                                          # triple
    ([[[1], [2, 3]]], (1, 2)),                                        # 1-pair
    ([[[1.0]]], (1, 1)),
    ([[[1, 2, 3], [4]]], (1, 2)),                # ragged pairs, right total count
    ([[[1, 2], 3]], (1, 2)),                                          # pair, number
    ([[[[1], 2]]], (1, 1)),                                           # nested part
    ([["12", [1, 2]]], (1, 2)),                                       # 2-char string
    ([["12", "34"]], (1, 2)),
    ([(1.5, 2)], (1, 2)),                                             # tuple row
    ([[None, 1]], (1, 2)),
    ([[[None, 1]]], (1, 1)),                                          # None in a pair
    ([[[1, 0], [10 ** 400, 0]]], (1, 2)),
    ([[[10 ** 400, 0]]], (1, 1)),                                     # overflow
    ([[10 ** 400]], (1, 1)),
    ([[1.0, 10 ** 400]], (1, 2)),
    ([[float("nan"), float("inf")]], (1, 2)),
    ([[], []], (2, 0)),
    ([], (0, 3)),
    ([[(1.5, 2), [3, 4]]], (1, 2)),                   # tuple pairs: not JSON pairs
    ([[(1.5, 2), (3, 4)]], (1, 2)),
    ([[1, 2.5], [[3, 4], 5]], (2, 2)),                # mixed across rows
])
def test_matrix_parse_is_bitwise_the_per_entry_parse(rows, shape):
    got, want = _parse_both(rows, shape)
    if want is None:
        assert got is None
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_matrix_parse_matches_on_random_json():
    rng = np.random.default_rng(3)

    def value():
        kind = rng.integers(4)
        if kind == 0:
            return -0.0
        if kind == 1:                          # ints, most past 2^53
            return int(rng.integers(-2 ** 62, 2 ** 62))
        return float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))

    def entry(layout):
        if layout == "numbers" or (layout == "mixed" and rng.integers(2)):
            return value()
        return [value(), value()]

    for trial in range(120):
        r, c = (int(v) for v in rng.integers(1, 6, size=2))
        layout = ("numbers", "pairs", "mixed")[trial % 3]
        rows = [[entry(layout) for _ in range(c)] for _ in range(r)]
        got, want = _parse_both(json.loads(json.dumps(rows)), (r, c))
        assert got.tobytes() == want.tobytes()


def test_oversized_integer_entry_names_the_entry():
    with pytest.raises(NotAComplex, match=r"entry \[1000+, 0\] at index \(1, 1\)") as exc:
        load_complex({"dims": [2, 2], "differentials": [[[1, 2], [3, [10 ** 400, 0]]]]})
    assert exc.value.context == {"key": "differentials", "degree": 0}


def test_numeric_rows_skip_the_per_entry_parse(monkeypatch):
    from nchodge import scalars

    def refuse(*args):
        raise AssertionError("per-entry parse on numeric rows")

    monkeypatch.setattr(scalars, "_entry", refuse)
    parse = field_for(FLOAT).matrix_from_json
    pairs = parse([[[1, 2], [3.5, -0.0]]], (1, 2))
    numbers = parse([[1, 2.5]], (1, 2))
    assert pairs.tolist() == [[1 + 2j, 3.5 - 0j]]
    assert numbers.tolist() == [[1 + 0j, 2.5 + 0j]]
    assert parse([[1, 2]], (1, 2)).dtype == complex == parse([], (0, 2)).dtype
    load_complex(_BUNDLED_CIRCLE)       # its entries and Grams are all [re, im] pairs


# -- the loader on generated input ----------------------------------------------

# the bundled circle (unit Grams as matrices), and a seeded random complex
# with three or four degrees and dense Hermitian Grams
_COMPLEX_FILES = [json.loads(_BUNDLED_CIRCLE.read_text()),
                  complex_to_json(nc.random_complex(np.random.default_rng(8))[0])]


@st.composite
def _complex_files(draw):
    """A complex file with one matrix entry, one whole differential, one
    Gram entry or ``dims`` replaced by generated JSON."""
    data = copy.deepcopy(draw(st.sampled_from(_COMPLEX_FILES)))
    how = draw(st.sampled_from(["entry", "differential", "gram", "dims"]))
    junk = draw(st.one_of(_SCALARS, _TREES))
    if how == "dims":
        data["dims"] = junk
        return data
    key = "gram" if how == "gram" else draw(st.sampled_from(["differentials", "gram"]))
    k = draw(st.integers(0, len(data[key]) - 1))
    if how == "entry":
        row = data[key][k][draw(st.integers(0, len(data[key][k]) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = junk
    else:
        data[key][k] = junk
    return data


@settings(max_examples=250, deadline=None)
@given(_complex_files())
def test_load_complex_on_generated_files_ends_in_coded_errors(data):
    """The load succeeds or raises a package error with a hodge-classical
    code, never anything else."""
    try:
        load_complex(data)
    except NCHodgeError as exc:
        assert exc.code.startswith("hodge-classical/"), exc.code


@pytest.mark.parametrize("eigs,log_det", [
    # det' = 1e-315 is subnormal
    ([1e-200, 1e-200, 1e85], -315 * math.log(10)),
    # 1000 eigenvalues e^-1, then e^300: the plain product passes e^-1000,
    # and the mantissas take two chunks
    ([math.exp(-1.0)] * 1000 + [math.exp(300.0)], -700.0),
])
def test_log_det_checks_products_whose_running_value_leaves_the_normal_range(eigs, log_det):
    value, det = _log_det(np.array(eigs), 0)
    assert value == pytest.approx(log_det, abs=1e-9)
    assert det == pytest.approx(math.exp(log_det), rel=1e-6) and det > 0
