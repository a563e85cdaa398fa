"""Product foliation models at desk scale: one combinatorial leaf type, a
finite transversal with positive weights summing to one, and leafwise
Hodge/Witten machinery.

Every transversal sample carries a copy of the same leaf complex (a cycle
graph or a periodic torus grid); a leafwise function phi may vary across
the transversal, phi(points, v).  Tangential Betti numbers are the
weight-averaged kernel dimensions of the leafwise Laplacians -- for a
finite transversal this weighted sum is exactly the transverse-measure
integral it stands in for.

The Witten deformation conjugates each leaf differential,

    D_tau = diag(e^{-tau * phi_(k+1)}) @ D @ diag(e^{tau * phi_(k)}),

where the degree-k scale factors average phi over the vertices of each
k-cell (vertex value, edge-endpoint mean, face-corner mean).  Whatever
the positive scalings, this is a similarity of complexes: kernels map to
kernels, so the weighted Betti numbers cannot move with tau.  The sweep
verifies that, and also exhibits the isomorphism: the diagonal map
T = diag(e^{-tau phi_(k)}) pairs tau = 0 harmonics with deformed
harmonics through a full-rank matrix U = Q_tau^H T Q_0.  Both the Betti
numbers and the harmonic bases Q read each leaf complex's Hodge frames:
one rank per differential, from its singular values at ``SWEEP_TOL``,
whose rank--nullity count is the Betti number and the number of
eigenvectors a partial eigensolve returns for Q.  For each tau one
deformed leaf complex is built, and solved, per distinct leaf function
(samples whose phi does not depend on v share it); the tau = 0 harmonics
are computed once per sweep.  At tau = 0 the deformed differentials are
still built and checked against the leaf's bit for bit, and when they
match the leaf complex itself, already solved, stands in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import exactla
from .errors import (BadWeights, InputError, LeafTooLarge, LeafTooSmall, ShapeMismatch,
                     lookup)
from .hodge import CochainComplex, betti_numbers, make_complex

SWEEP_TOL = 1e-8    # relative rank cut of the sweep's Betti numbers and harmonic bases
DEFAULT_TAUS = (0.0, 0.5, 1.0, 2.0, 5.0)    # the sweep's tau grid unless one is given
# entries of a leaf's largest dense differential: 128 MB of float64 (a leaf
# is real), a 4096-site circle or a 53 x 53 torus
MAX_LEAF_ENTRIES = 2 ** 24


@dataclass
class Leaf:
    complex: CochainComplex
    vertex_points: np.ndarray   # (n_vertices, coord_dim), coords in [0,1)
    cell_vertices: list         # per degree: (dims[k], m_k) vertex indices
    kind: str
    meta: dict


@dataclass
class FoliatedModel:
    leaf: Leaf
    transversal: np.ndarray     # sample coordinates v
    weights: np.ndarray         # positive, sum to 1
    metric_scale: float = 1.0
    name: str = "model"

    @property
    def top(self):
        return self.leaf.complex.top


def _zeros(shape):
    """A leaf differential's zeros, or a coded error naming the leaf."""
    try:
        return np.zeros(shape)
    except (MemoryError, ValueError) as exc:
        raise InputError(f"leaf differential of shape {shape} cannot be allocated: {exc}",
                         key="leaf") from None


def _dense_cap(entries, **context):
    """A coded error, raised before anything is allocated, when a leaf's
    largest dense differential has more than ``MAX_LEAF_ENTRIES`` entries."""
    if entries > MAX_LEAF_ENTRIES:
        raise LeafTooLarge(f"leaf differential of {entries} dense entries is past the cap "
                           f"of {MAX_LEAF_ENTRIES}", key="leaf", cap=MAX_LEAF_ENTRIES,
                           **context)


def circle_leaf(n) -> Leaf:
    """Cycle graph on n sites: D0 is the forward difference; Betti (1, 1)."""
    if n < 3:
        raise LeafTooSmall(f"circle leaf needs at least 3 sites, got {n}", key="leaf", sites=n)
    _dense_cap(n * n, sites=n)
    d0 = _zeros((n, n))
    for j in range(n):
        d0[j, (j + 1) % n] = 1.0
        d0[j, j] -= 1.0
    cx = make_complex((n, n), [d0], name=f"circle({n})")
    verts = (np.arange(n) / n).reshape(-1, 1)
    edges = np.array([[j, (j + 1) % n] for j in range(n)])
    return Leaf(complex=cx, vertex_points=verts,
                cell_vertices=[np.arange(n).reshape(-1, 1), edges],
                kind="circle", meta={"n": n})


def torus_leaf(nx, ny=None) -> Leaf:
    """Periodic nx-by-ny grid with square faces; Betti (1, 2, 1)."""
    ny = nx if ny is None else ny
    if nx < 3 or ny < 3:
        raise LeafTooSmall(f"torus leaf needs at least 3 sites per axis, got {nx}x{ny}",
                           key="leaf", nx=nx, ny=ny)
    nv = nx * ny
    _dense_cap(2 * nv * nv, nx=nx, ny=ny)
    ne = 2 * nv

    def v(i, j):
        return (i % nx) * ny + (j % ny)

    d0 = _zeros((ne, nv))
    edge_verts = np.zeros((ne, 2), dtype=int)
    for i in range(nx):
        for j in range(ny):
            ex, ey = v(i, j), nv + v(i, j)
            d0[ex, v(i + 1, j)] += 1.0
            d0[ex, v(i, j)] -= 1.0
            d0[ey, v(i, j + 1)] += 1.0
            d0[ey, v(i, j)] -= 1.0
            edge_verts[ex] = (v(i, j), v(i + 1, j))
            edge_verts[ey] = (v(i, j), v(i, j + 1))
    d1 = _zeros((nv, ne))
    face_verts = np.zeros((nv, 4), dtype=int)
    for i in range(nx):
        for j in range(ny):
            f = v(i, j)
            d1[f, v(i, j)] += 1.0                 # x-edge at (i, j)
            d1[f, nv + v(i + 1, j)] += 1.0        # y-edge at (i+1, j)
            d1[f, v(i, j + 1)] -= 1.0             # x-edge at (i, j+1)
            d1[f, nv + v(i, j)] -= 1.0            # y-edge at (i, j)
            face_verts[f] = (v(i, j), v(i + 1, j), v(i, j + 1), v(i + 1, j + 1))
    cx = make_complex((nv, ne, nv), [d0, d1], name=f"torus({nx}x{ny})")
    verts = np.array([[i / nx, j / ny] for i in range(nx) for j in range(ny)])
    return Leaf(complex=cx, vertex_points=verts,
                cell_vertices=[np.arange(nv).reshape(-1, 1), edge_verts, face_verts],
                kind="torus", meta={"nx": nx, "ny": ny})


def _size(spec, axis, default):
    """A leaf size: an int, not a bool."""
    n = spec.get(axis, default)
    if not isinstance(n, int) or isinstance(n, bool):
        raise InputError(f"leaf size {axis!r} must be an integer, got {n!r}",
                         key="leaf", axis=axis)
    return n


_LEAF_BUILDERS = {
    "circle": lambda spec: circle_leaf(_size(spec, "n", 16)),
    "torus": lambda spec: torus_leaf(_size(spec, "nx", 8),
                                     _size(spec, "ny", _size(spec, "nx", 8))),
}


def _finite(value, key, error, **context):
    """``value`` as a float when it is a number, not a bool, that is finite
    as a float; otherwise ``error`` naming ``key``."""
    # abs first: float() of an int past the float range raises
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(value) <= float(np.finfo(float).max):
        return float(value)
    raise error(f"model {key!r} must be a finite number, got {value!r}", key=key, **context)


def make_model(leaf_spec, transversal_spec, metric_scale=1.0,
               name="model") -> FoliatedModel:
    """leaf_spec: {"type": "circle", "n": 16} or {"type": "torus", "nx": 8,
    "ny": 8}.  transversal_spec: list of {"v": float, "weight": float} (or
    bare v values, weighted uniformly).  Weights must be positive and sum
    to 1."""
    if not isinstance(leaf_spec, dict):
        raise InputError(f"model 'leaf' must be an object, not "
                         f"{type(leaf_spec).__name__}", key="leaf")
    if not isinstance(transversal_spec, (list, tuple)):
        raise InputError(f"model 'transversal' must be a list, not "
                         f"{type(transversal_spec).__name__}", key="transversal")
    leaf = lookup(_LEAF_BUILDERS, leaf_spec.get("type"), "leaf type", key="leaf")(leaf_spec)
    if not transversal_spec:
        raise BadWeights("transversal needs at least one sample", key="transversal")
    vs, ws = [], []
    uniform = not any(isinstance(s, dict) and "weight" in s for s in transversal_spec)
    for idx, s in enumerate(transversal_spec):
        if isinstance(s, dict):
            vs.append(_finite(s.get("v", idx), "v", InputError, index=idx))
            ws.append(_finite(s["weight"], "weight", BadWeights, index=idx)
                      if "weight" in s else None)
        else:
            vs.append(_finite(s, "v", InputError, index=idx))
            ws.append(None)
    if uniform:
        ws = [1.0 / len(vs)] * len(vs)
    elif any(w is None for w in ws):
        raise BadWeights("either weight every transversal sample or none", key="weight")
    ws = np.array(ws, dtype=float)
    if np.any(ws <= 0):
        raise BadWeights(f"transverse weights must be positive, got {ws.tolist()}",
                         key="weight", weights=ws.tolist())
    if abs(ws.sum() - 1.0) > 1e-9:
        raise BadWeights(f"transverse weights must sum to 1, got {ws.sum()!r}",
                         key="weight", total=float(ws.sum()))
    scale = _finite(metric_scale, "metric_scale", BadWeights)
    if scale <= 0:
        raise BadWeights(f"metric scale must be positive, got {metric_scale}",
                         key="metric_scale")
    if scale != 1.0:
        cx = leaf.complex
        grams = [scale ** k * np.eye(cx.dims[k])
                 for k in range(cx.top + 1)]
        leaf.complex = make_complex(cx.dims, cx.diffs, grams, name=cx.name)
    return FoliatedModel(leaf=leaf, transversal=np.array(vs, dtype=float),
                         weights=ws, metric_scale=scale, name=name)


def load_model(source) -> FoliatedModel:
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            source = json.load(fh)
    missing = [k for k in ("leaf", "transversal")
               if not isinstance(source, dict) or k not in source]
    if missing:
        raise BadWeights("model file needs 'leaf' and 'transversal' entries", key=missing[0])
    name = source.get("name", "model")
    if not isinstance(name, str):
        raise InputError(f"model 'name' is not a string: {name!r}", key="name")
    return make_model(source["leaf"], source["transversal"],
                      metric_scale=source.get("metric_scale", 1.0), name=name)


def model_to_json(model: FoliatedModel) -> dict:
    leaf = dict(model.leaf.meta)
    leaf["type"] = model.leaf.kind
    return {"name": model.name, "leaf": leaf,
            "transversal": [{"v": float(v), "weight": float(w)}
                            for v, w in zip(model.transversal, model.weights)],
            "metric_scale": float(model.metric_scale)}


PHI_PROFILES = {
    "zero": lambda pts, v: np.zeros(pts.shape[0]),
    "cos-h": lambda pts, v: np.cos(2 * np.pi * pts[:, 0]),
    "cos-hv": lambda pts, v: np.cos(2 * np.pi * pts[:, 0]) * (1.0 + 0.5 * np.sin(v)),
}


def resolve_phi(phi):
    if callable(phi):
        return phi
    return lookup(PHI_PROFILES, phi, "phi profile")


def random_smooth_phi(rng):
    """Random first-order trigonometric polynomial in the leaf coordinates
    (coefficients of scale 0.3), modulated smoothly by the transversal one."""
    ca = rng.normal(scale=0.3, size=(2, 2))
    cb = rng.normal(scale=0.3, size=(2, 2))
    vshift = rng.normal(scale=0.5)

    def phi(pts, v):
        out = np.zeros(pts.shape[0])
        for m in range(2):
            for axis in range(min(2, pts.shape[1])):
                t = 2 * np.pi * m * pts[:, axis]
                out = out + ca[m, axis] * np.cos(t) + cb[m, axis] * np.sin(t)
        return out * (1.0 + 0.25 * np.sin(v + vshift))

    return phi


def phi_vertex_values(model: FoliatedModel, phi, v) -> np.ndarray:
    vals = np.asarray(resolve_phi(phi)(model.leaf.vertex_points, v), dtype=float)
    vals = vals.reshape(-1)
    nv = model.leaf.vertex_points.shape[0]
    if vals.shape[0] != nv:
        raise ShapeMismatch(
            f"phi returned {vals.shape[0]} values for {nv} leaf vertices")
    return vals


def phi_per_degree(leaf: Leaf, vertex_values) -> list:
    """Degree-k diagonal weights: phi averaged over each k-cell's vertices."""
    return [np.asarray(vertex_values)[cells].mean(axis=1)
            for cells in leaf.cell_vertices]


def witten_leaf_complex(leaf: Leaf, per_degree, tau) -> CochainComplex:
    """One deformed leaf complex from the per-degree weights of
    phi_per_degree; tau = 0 reproduces the differentials bit for bit
    because every scale factor is exactly exp(0) = 1."""
    tau = float(tau)
    cx = leaf.complex
    diffs = []
    for k, d in enumerate(cx.diffs):
        # the leaf's D is finite, so a non-finite entry is tau's doing: a
        # scale past the float range (or a NaN tau), or a product of scales
        with np.errstate(over="ignore", invalid="ignore"):
            row = np.exp(-tau * per_degree[k + 1]).reshape(-1, 1)
            col = np.exp(tau * per_degree[k]).reshape(1, -1)
            diffs.append(row * d * col)
        if not np.all(np.isfinite(diffs[-1])):
            raise InputError(f"--tau {tau!r}: e^(tau phi) scales leaf differential {k} "
                             f"past the float range", key="tau", tau=tau)
    return make_complex(cx.dims, diffs, cx.grams,
                        name=f"{cx.name}@tau={tau}", tol=1e-9)


@dataclass
class DeformedModel:
    model: FoliatedModel
    tau: float
    complexes: list    # per sample; samples with equal weights share one
    per_degree: list   # per sample: phi_per_degree of its leaf function


def witten_complex(model: FoliatedModel, phi, tau) -> DeformedModel:
    per_degree = [phi_per_degree(model.leaf, phi_vertex_values(model, phi, v))
                  for v in model.transversal]
    cxs = []
    for i, weights in enumerate(per_degree):
        same = next((j for j in range(i) if all(
            np.array_equal(a, b) for a, b in zip(per_degree[j], weights))), None)
        cxs.append(witten_leaf_complex(model.leaf, weights, tau) if same is None
                   else cxs[same])
    return DeformedModel(model=model, tau=float(tau), complexes=cxs,
                         per_degree=per_degree)


def _per_complex(deformed: DeformedModel, fn) -> list:
    """fn(cx, per_degree) once per distinct complex, one result per sample."""
    done = {}
    out = []
    for cx, per_deg in zip(deformed.complexes, deformed.per_degree):
        if id(cx) not in done:
            done[id(cx)] = fn(cx, per_deg)
        out.append(done[id(cx)])
    return out


def _weighted_betti(deformed: DeformedModel) -> np.ndarray:
    out = np.zeros(deformed.model.top + 1)
    rows = _per_complex(deformed, lambda cx, _: betti_numbers(cx, SWEEP_TOL))
    for betti, w in zip(rows, deformed.model.weights):
        out += w * np.array(betti, dtype=float)
    return out


def harmonic_basis(cx: CochainComplex, k) -> np.ndarray:
    """Basis of Ker Delta_k, orthonormal for the Gram inner product."""
    return cx.frame(k).chol_inv.conj().T @ cx.harmonic_vectors(k, SWEEP_TOL)


def intertwiner_ranks(deformed: DeformedModel, base):
    """Per sample and degree: rank of U = Q_tau^H T Q_0 pairing the
    undeformed harmonics ``base`` (harmonic_basis of the leaf, one per
    degree) with the deformed ones through the diagonal conjugating map.
    Full rank exhibits the kernel isomorphism."""
    def ranks(cx, per_deg):
        row = []
        for k, q0 in enumerate(base):
            if q0.shape[1] == 0:
                row.append(0)
                continue
            qt = harmonic_basis(cx, k)
            t = np.exp(-deformed.tau * per_deg[k]).reshape(-1, 1)
            pairing = qt.conj().T @ cx.grams[k] @ (t * q0)
            row.append(exactla.rank(pairing, 1e-8))
        return row

    return _per_complex(deformed, ranks)


def witten_betti_sweep(model: FoliatedModel, phi, taus) -> dict:
    """Sweep tau; per value report the weighted Betti numbers, whether they
    match tau = 0, the intertwiner ranks, and at tau = 0 bit-identity of
    the deformed differentials with the originals."""
    taus = [float(t) for t in taus]
    leaf = model.leaf.complex
    base_int = betti_numbers(leaf, SWEEP_TOL)
    base = [float(b) for b in base_int]    # weights sum to 1
    base_q = [harmonic_basis(leaf, k) for k in range(model.top + 1)]
    euler_ranks = leaf.euler_characteristic()
    euler_betti = sum((-1) ** k * b for k, b in enumerate(base))
    rows = []
    all_ok = True
    for tau in taus:
        deformed = witten_complex(model, phi, tau)
        bit_identical = tau != 0.0 or all(
            np.array_equal(d0, dt)
            for cx in deformed.complexes for d0, dt in zip(leaf.diffs, cx.diffs))
        if tau == 0.0 and bit_identical:
            # the same complex bit for bit: solve the leaf, whose frames and
            # harmonics the base Betti numbers and base_q already hold
            deformed.complexes = [leaf] * len(deformed.complexes)
        betti = _weighted_betti(deformed)
        ranks = intertwiner_ranks(deformed, base_q)
        matches = bool(np.allclose(betti, base, rtol=0, atol=1e-8))
        ranks_ok = all(tuple(row) == tuple(base_int) for row in ranks)
        ok = matches and ranks_ok and bit_identical
        row = {"tau": tau,
               "betti": [float(b) for b in betti],
               "matches_base": matches,
               "intertwiner_ranks": ranks,
               "intertwiner_ranks_ok": bool(ranks_ok)}
        if tau == 0.0:
            row["bit_identical"] = bool(bit_identical)
        row["passed"] = bool(ok)
        all_ok = all_ok and ok
        rows.append(row)
    return {"model": model.name,
            "leaf": leaf.name,
            "phi": phi if isinstance(phi, str) else getattr(phi, "__name__", "custom"),
            "weights": [float(w) for w in model.weights],
            "transversal": [float(v) for v in model.transversal],
            "base_betti": base,
            "euler_from_betti": float(euler_betti),
            "euler_from_ranks": int(euler_ranks),
            "taus": taus,
            "rows": rows,
            "passed": bool(all_ok)}


BUILTIN_MODELS = {
    "circle-leaves": lambda: make_model(
        {"type": "circle", "n": 16},
        [{"v": 0.0, "weight": 0.25}, {"v": 0.25, "weight": 0.25},
         {"v": 0.5, "weight": 0.25}, {"v": 0.75, "weight": 0.25}],
        name="circle-leaves"),
    "torus-leaves": lambda: make_model(
        {"type": "torus", "nx": 8, "ny": 8},
        [{"v": 0.0, "weight": 0.3}, {"v": 0.5, "weight": 0.7}],
        name="torus-leaves"),
}


def builtin_model(name) -> FoliatedModel:
    return lookup(BUILTIN_MODELS, name, "model")()
