import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nchodge as nc
from nchodge import foliation
from nchodge.errors import (BadWeights, InputError, LeafTooLarge, LeafTooSmall, NCHodgeError,
                            ShapeMismatch)
from nchodge.foliation import (MAX_LEAF_ENTRIES, builtin_model, harmonic_basis,
                               intertwiner_ranks, load_model, make_model,
                               model_to_json, phi_vertex_values,
                               witten_complex)
from test_algebra import _JUNK
from test_hodge import _counting


def test_leaf_betti_numbers():
    circle = builtin_model("circle-leaves")
    assert nc.betti_numbers(circle.leaf.complex) == (1, 1)
    torus = builtin_model("torus-leaves")
    assert nc.betti_numbers(torus.leaf.complex) == (1, 2, 1)


def _loop_circle(n):
    """(D0, edge vertices) of the n-site cycle, built entry by entry."""
    d0 = np.zeros((n, n))
    for j in range(n):
        d0[j, (j + 1) % n] = 1.0
        d0[j, j] -= 1.0
    return [d0], [np.arange(n).reshape(-1, 1), np.array([[j, (j + 1) % n] for j in range(n)])]


def _loop_torus(nx, ny):
    """(D0, D1), (vertex, edge, face vertices) and the vertex points of the
    periodic nx x ny grid, built entry by entry."""
    nv = nx * ny

    def v(i, j):
        return (i % nx) * ny + (j % ny)

    d0 = np.zeros((2 * nv, nv))
    edge_verts = np.zeros((2 * nv, 2), dtype=int)
    for i in range(nx):
        for j in range(ny):
            ex, ey = v(i, j), nv + v(i, j)
            d0[ex, v(i + 1, j)] += 1.0
            d0[ex, v(i, j)] -= 1.0
            d0[ey, v(i, j + 1)] += 1.0
            d0[ey, v(i, j)] -= 1.0
            edge_verts[ex] = (v(i, j), v(i + 1, j))
            edge_verts[ey] = (v(i, j), v(i, j + 1))
    d1 = np.zeros((nv, 2 * nv))
    face_verts = np.zeros((nv, 4), dtype=int)
    for i in range(nx):
        for j in range(ny):
            f = v(i, j)
            d1[f, v(i, j)] += 1.0                 # x-edge at (i, j)
            d1[f, nv + v(i + 1, j)] += 1.0        # y-edge at (i+1, j)
            d1[f, v(i, j + 1)] -= 1.0             # x-edge at (i, j+1)
            d1[f, nv + v(i, j)] -= 1.0            # y-edge at (i, j)
            face_verts[f] = (v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))
    verts = np.array([[i / nx, j / ny] for i in range(nx) for j in range(ny)])
    return [d0, d1], [np.arange(nv).reshape(-1, 1), edge_verts, face_verts], verts


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [3, 4, 8, 17])
def test_circle_leaf_is_the_loop_built_one_bit_for_bit(n):
    leaf = foliation.circle_leaf(n)
    diffs, cells = _loop_circle(n)
    for got, want in zip(leaf.complex.diffs + leaf.cell_vertices, diffs + cells, strict=True):
        assert _same_bytes(got, want)


@pytest.mark.parametrize("nx, ny", [(3, 3), (5, 4), (8, 8), (16, 12), (3, 7)])
def test_torus_leaf_is_the_loop_built_one_bit_for_bit(nx, ny):
    # a non-square grid tells the two Kronecker axes apart
    leaf = foliation.torus_leaf(nx, ny)
    diffs, cells, verts = _loop_torus(nx, ny)
    for got, want in zip(leaf.complex.diffs + leaf.cell_vertices + [leaf.vertex_points],
                         diffs + cells + [verts], strict=True):
        assert _same_bytes(got, want)


def test_leaf_too_small():
    with pytest.raises(LeafTooSmall):
        make_model({"type": "circle", "n": 2}, [0.0])
    with pytest.raises(LeafTooSmall):
        make_model({"type": "torus", "nx": 2, "ny": 8}, [0.0])


@pytest.mark.parametrize("leaf, context", [
    ({"type": "circle", "n": 30000}, {"sites": 30000}),        # a dense 14 GB differential
    ({"type": "circle", "n": 4097}, {"sites": 4097}),
    ({"type": "torus", "nx": 60}, {"nx": 60, "ny": 60}),
    ({"type": "torus", "nx": 3, "ny": 10 ** 9}, {"nx": 3, "ny": 10 ** 9}),
])
def test_leaf_past_the_dense_cap_is_refused_before_allocation(monkeypatch, leaf, context):
    def refuse(shape):
        raise AssertionError(f"allocated a leaf differential of shape {shape}")
    monkeypatch.setattr(foliation, "_zeros", refuse)
    with pytest.raises(LeafTooLarge) as info:
        load_model({"leaf": leaf, "transversal": [0.0]})
    entry = info.value.report_entry()
    assert entry["code"] == "tangential/LeafTooLarge"
    assert entry["context"] == {"key": "leaf", "cap": MAX_LEAF_ENTRIES, **context}


def test_leaf_at_the_dense_cap_is_built():
    # the 4096-site circle's 256 MB differential is not built here: check the
    # counts the cap reads at its edge, and that a circle under it builds
    assert 4096 ** 2 == MAX_LEAF_ENTRIES < 4097 ** 2
    assert 2 * (53 * 53) ** 2 <= MAX_LEAF_ENTRIES < 2 * (54 * 54) ** 2
    assert nc.betti_numbers(make_model({"type": "circle", "n": 64}, [0.0]).leaf.complex) == (1, 1)


def test_weights_must_normalize():
    spec = {"type": "circle", "n": 8}
    with pytest.raises(BadWeights):
        make_model(spec, [{"v": 0.0, "weight": 0.4}, {"v": 0.5, "weight": 0.4}])
    with pytest.raises(BadWeights):
        make_model(spec, [{"v": 0.0, "weight": -0.5}, {"v": 0.5, "weight": 1.5}])
    with pytest.raises(BadWeights):
        # all-or-none: mixing weighted and bare samples is ambiguous
        make_model(spec, [{"v": 0.0, "weight": 0.5}, 0.5])
    with pytest.raises(BadWeights):
        make_model(spec, [0.0, 0.5], metric_scale=0.0)
    model = make_model(spec, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(model.weights, 0.25)


def test_metric_scale_scales_grams():
    m = make_model({"type": "circle", "n": 8}, [0.0], metric_scale=3.0)
    assert np.allclose(m.leaf.complex.grams[1], 3.0 * np.eye(8))


def test_tau_zero_is_bit_identical():
    model = builtin_model("circle-leaves")
    deformed = witten_complex(model, "cos-h", 0.0)
    for cx in deformed.complexes:
        for d0, d1 in zip(model.leaf.complex.diffs, cx.diffs):
            assert np.array_equal(d0, d1)


def test_witten_preserves_complex_property():
    model = builtin_model("torus-leaves")
    deformed = witten_complex(model, "cos-hv", 2.5)
    for cx in deformed.complexes:
        assert np.allclose(cx.diffs[1] @ cx.diffs[0], 0.0, atol=1e-12)


def test_intertwiner_ranks_equal_betti():
    model = builtin_model("torus-leaves")
    base = [harmonic_basis(model.leaf.complex, k) for k in range(3)]
    ranks = intertwiner_ranks(witten_complex(model, "cos-hv", 5.0), base)
    for per_leaf in ranks:
        assert per_leaf == [1, 2, 1]


def test_sweep_report_structure():
    model = builtin_model("circle-leaves")
    rep = nc.witten_betti_sweep(model, "cos-h", (0.0, 2.0))
    assert rep["passed"]
    assert rep["base_betti"] == [1.0, 1.0]
    assert rep["rows"][0]["bit_identical"] is True
    assert all(row["matches_base"] for row in rep["rows"])
    assert rep["euler_from_betti"] == rep["euler_from_ranks"]


def test_phi_shape_checked():
    model = builtin_model("circle-leaves")
    with pytest.raises(ShapeMismatch):
        phi_vertex_values(model, lambda pts, v: np.zeros(3), 0.0)


def test_random_phi_sweep_stays_flat():
    model = builtin_model("circle-leaves")
    phi = nc.random_smooth_phi(np.random.default_rng(21))
    rep = nc.witten_betti_sweep(model, phi, (0.0, 1.0, 5.0))
    assert rep["passed"]


def test_model_json_roundtrip(tmp_path):
    import json
    model = builtin_model("torus-leaves")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(model)))
    back = load_model(str(path))
    assert tuple(back.leaf.complex.dims) == tuple(model.leaf.complex.dims)
    assert np.allclose(back.weights, model.weights)
    assert np.allclose(back.transversal, model.transversal)


def test_sweep_builds_each_deformed_leaf_once(monkeypatch):
    from nchodge import foliation
    built = []
    original = foliation.witten_leaf_complex

    def counting(*args, **kwargs):
        built.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(foliation, "witten_leaf_complex", counting)
    model = builtin_model("circle-leaves")
    taus = (0.0, 1.0, 5.0)
    # cos-h does not depend on v: the four samples share one complex per tau
    rep = nc.witten_betti_sweep(model, "cos-h", taus)
    assert rep["passed"]
    assert built == list(taus)
    assert all(len(row["intertwiner_ranks"]) == 4 for row in rep["rows"])
    built.clear()
    rep = nc.witten_betti_sweep(model, "cos-hv", taus)
    assert rep["passed"]
    assert len(built) == len(model.transversal) * len(taus) == 4 * len(taus)
    assert all(len(row["intertwiner_ranks"]) == 4 for row in rep["rows"])


def test_equal_leaf_functions_share_one_complex_and_row(monkeypatch):
    from nchodge import foliation
    model = builtin_model("torus-leaves")
    deformed = witten_complex(model, "cos-h", 2.0)
    assert deformed.complexes[0] is deformed.complexes[1]
    base = [harmonic_basis(model.leaf.complex, k) for k in range(3)]
    bases = _counting(monkeypatch, foliation, "harmonic_basis")
    bettis = _counting(monkeypatch, foliation, "betti_numbers")
    assert intertwiner_ranks(deformed, base) == [[1, 2, 1], [1, 2, 1]]
    assert len(bases) == 3
    assert foliation._weighted_betti(deformed).tolist() == [1.0, 2.0, 1.0]
    assert len(bettis) == 1
    assert len(set(map(id, witten_complex(model, "cos-hv", 2.0).complexes))) == 2


# -- malformed models end in coded errors that name their key --------------------

_CIRCLE = {"type": "circle", "n": 8}


@pytest.mark.parametrize("model,error,key", [
    ({"leaf": _CIRCLE, "transversal": ["0.5"]}, InputError, "v"),
    ({"leaf": _CIRCLE, "transversal": [None]}, InputError, "v"),
    ({"leaf": _CIRCLE, "transversal": [10 ** 400]}, InputError, "v"),
    ({"leaf": _CIRCLE, "transversal": [math.inf]}, InputError, "v"),
    ({"leaf": _CIRCLE, "transversal": [{"v": math.nan}]}, InputError, "v"),
    ({"leaf": _CIRCLE, "transversal": [{"v": 0.0, "weight": [1.0]}]}, BadWeights, "weight"),
    ({"leaf": _CIRCLE, "transversal": [{"v": 0.0, "weight": True}]}, BadWeights, "weight"),
    ({"leaf": _CIRCLE, "transversal": [0.0], "metric_scale": "2"}, BadWeights, "metric_scale"),
    ({"leaf": _CIRCLE, "transversal": [0.0], "metric_scale": math.inf}, BadWeights,
     "metric_scale"),
    ({"leaf": {"type": "circle", "n": "8"}, "transversal": [0.0]}, InputError, "leaf"),
    ({"leaf": {"type": "circle", "n": 8.0}, "transversal": [0.0]}, InputError, "leaf"),
    ({"leaf": {"type": "torus", "nx": True}, "transversal": [0.0]}, InputError, "leaf"),
    ({"leaf": {"type": "circle", "n": 10 ** 12}, "transversal": [0.0]}, InputError, "leaf"),
    ({"leaf": {"type": "torus", "nx": 10 ** 12, "ny": 3}, "transversal": [0.0]}, InputError,
     "leaf"),
    ({"leaf": {"type": "circle", "n": 10 ** 400}, "transversal": [0.0]}, InputError, "leaf"),
    ({"leaf": {"type": "circle", "n": 2}, "transversal": [0.0]}, LeafTooSmall, "leaf"),
    ({"leaf": _CIRCLE}, BadWeights, "transversal"),
    ({"leaf": _CIRCLE, "transversal": []}, BadWeights, "transversal"),
    ({"leaf": _CIRCLE, "transversal": [0.0], "name": [1, 2]}, InputError, "name"),
])
def test_malformed_model_is_a_coded_error_naming_its_key(model, error, key):
    with pytest.raises(error) as exc:
        load_model(model)
    assert exc.value.context["key"] == key


_SIZES = st.one_of(st.integers(3, 6), _JUNK)
_LEAVES = st.one_of(
    _JUNK, st.fixed_dictionaries({"type": st.sampled_from(["circle", "torus"])},
                                 optional={"n": _SIZES, "nx": _SIZES, "ny": _SIZES}),
    st.fixed_dictionaries({"type": _JUNK}))
_SAMPLES = st.one_of(_JUNK, st.fixed_dictionaries(
    {}, optional={"v": _JUNK, "weight": st.one_of(_JUNK, st.floats(0.0, 1.0))}))


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({}, optional={
    "leaf": _LEAVES, "transversal": st.one_of(_JUNK, st.lists(_SAMPLES, max_size=3)),
    "metric_scale": st.one_of(_JUNK, st.floats(0.5, 2.0))}))
def test_load_model_on_generated_dicts_ends_in_keyed_errors(model):
    """A generated model loads, or fails with a package error naming the key
    at fault; leaf sizes are small or far past what numpy can allocate."""
    try:
        load_model(model)
    except NCHodgeError as exc:
        assert "key" in exc.context, exc
