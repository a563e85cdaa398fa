"""Classical finite-complex side: Betti numbers, torsion, determinants."""

import json
import math

import numpy as np
import pytest

import nchodge as nc
from nchodge.errors import BadGram, NegativeEigenvalue, NotAComplex
from nchodge.hodge import complex_to_json, load_complex


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


def test_bad_gram_rejected():
    d0 = np.zeros((1, 2))
    with pytest.raises(BadGram):
        nc.make_complex((2, 1), [d0], [np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0])
    with pytest.raises(BadGram):
        nc.make_complex((2, 1), [d0], [np.diag([1.0, -1.0]), 1.0])
    with pytest.raises(BadGram, match="degree 1") as exc:
        nc.make_complex((2, 1), [d0], [None, np.array([[np.inf]])])
    assert exc.value.context["degree"] == 1


def test_zeta_det_guards():
    assert nc.zeta_det(np.zeros(4)) == 1.0
    assert nc.zeta_det(np.array([])) == 1.0
    assert nc.zeta_det(np.array([2.0, 3.0])) == pytest.approx(6.0)
    with pytest.raises(NegativeEigenvalue):
        nc.zeta_det(np.array([-1.0, 2.0]))


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
    cx = nc.twisted_circle_complex(8, -1.0)
    laps = _counting(monkeypatch, hodge, "laplacians")
    chols = _counting(monkeypatch, scipy.linalg, "cholesky")
    eigs = _counting(monkeypatch, np.linalg, "eigvalsh")
    nc.rs_torsion(cx)
    nc.laplacian_spectra(cx)
    assert len(laps) == 1
    assert len(chols) == len(eigs) == cx.top + 1


def test_frames_do_not_outlive_their_complex():
    import gc
    import weakref
    cx = nc.twisted_circle_complex(8, -1.0)
    ref = weakref.ref(cx.frame(0))
    assert not ref().eigvals.flags.writeable
    del cx
    gc.collect()
    assert ref() is None
