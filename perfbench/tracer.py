"""Span and counter recorder for the traced benchmark run.

The recorder wraps the public functions of each nchodge layer module from
the outside: every module attribute that is one of those functions --
including names re-bound elsewhere by ``from .exactla import matmul`` --
is replaced by a wrapper that opens a span, so calls made through any
module are seen.  Spans (name, start, end, parent, job id) and counters
stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its direct
child spans.  Counter bookkeeping (non-zero counts, entry sizes) is timed
separately and excluded from every self time, so it only shows in the
overall tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

LAYERS = ("algebra", "forms", "exactla", "spectral", "hodge", "foliation",
          "morse", "gv", "reporting", "cli")

# Recursive per-element helpers: a span per element would dwarf the work.
# Their time stays in the caller's self time.
NOT_WRAPPED = {"reporting.jsonable"}


class Recorder:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans = []           # (span_id, parent_id, job, name, t0, t1, self_s)
        self.counters = Counter()
        self.maxima = {}
        self.unavailable = set()  # counters whose hook did not understand a result
        self.overhead_s = 0.0     # counter bookkeeping, excluded from spans
        self.job = None
        self._stack = []          # frames: [span_id, t0, child_s, child_names]
        self._next_id = 0
        self._patches = []
        self._job_refs = []       # keeps per-job objects alive so ids stay unique
        self._seen = set()

    # -- spans ---------------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        self._stack.append([self._next_id, time.perf_counter(), 0.0, set()])

    def _exit(self, name):
        t1 = time.perf_counter()
        span_id, t0, child_s, child_names = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += t1 - t0
            parent[3].add(name)
        self.spans.append((span_id, parent[0] if parent else None, self.job,
                           name, t0, t1, (t1 - t0) - child_s))
        return child_names

    def run_job(self, job_id, fn):
        """Run ``fn`` as the root span of one job; returns its result and
        its duration."""
        self.job = job_id
        self._enter()
        t0 = self._stack[-1][1]
        try:
            return fn(), time.perf_counter() - t0
        finally:
            self._exit("bench.job")
            self.job = None
            self._job_refs.clear()
            self._seen.clear()

    # -- counters ------------------------------------------------------------

    def count(self, name, value=1):
        self.counters[name] += value

    def maximum(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def _first_time(self, obj):
        """True the first time ``obj`` is seen within the current job."""
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        self._job_refs.append(obj)
        return True

    def _book(self, hook, name, args, result, child_names):
        t0 = time.perf_counter()
        try:
            hook(self, args, result, child_names)
        except (AttributeError, TypeError, ValueError, KeyError, IndexError):
            self.unavailable.add(name)
        dt = time.perf_counter() - t0
        self.overhead_s += dt
        if self._stack:
            self._stack[-1][2] += dt

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                child_names = rec._exit(name)
            if hook is not None:
                rec._book(hook, name, args, result, child_names)
            return result

        return traced

    def install(self):
        package = "nchodge"
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in NOT_WRAPPED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self):
        """Self seconds and call counts per span name."""
        total, calls = defaultdict(float), Counter()
        for _, _, _, name, _, _, self_s in self.spans:
            total[name] += self_s
            calls[name] += 1
        return total, calls


# -- counter hooks: (recorder, call args, result, names of child spans) -------

def _nonzero(mat):
    return np.asarray(mat != 0, dtype=bool)


def _matmul_hook(rec, args, result, _children):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    a2 = a.reshape(1, -1) if a.ndim == 1 else a
    b2 = b.reshape(-1, 1) if b.ndim == 1 else b
    m, k = a2.shape
    n = b2.shape[1]
    rec.count("exactla.matmul_scalar_mults", m * k * n)
    if k:
        useful = np.dot(_nonzero(a2).sum(axis=0), _nonzero(b2).sum(axis=1))
        rec.count("exactla.matmul_useful_mults", int(useful))


def _bits(value):
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(),
                   value.denominator.bit_length())
    if hasattr(value, "re") and hasattr(value, "im"):
        return max(_bits(value.re), _bits(value.im))
    return 0


def _spectral_data_hook(rec, _args, data, children):
    if "spectral.greens_operator" not in children:
        rec.count("spectral.cache_hits")
    if not rec._first_time(data):
        return
    for mat in (data.P, data.G):
        if mat is not None and mat.dtype == object and mat.size:
            rec.maximum("exactla.max_entry_bits",
                        max(_bits(v) for v in mat.reshape(-1)))


def _operator_matrices_hook(rec, _args, ops, _children):
    if not rec._first_time(ops):
        return
    rec.maximum("forms.window_dim_max",
                max(block.shape[1] for block in ops["k"].blocks.values()))
    for opname in ("d", "b", "k"):
        for block in ops[opname].blocks.values():
            rec.count("forms.block_entries", int(block.size))
            rec.count("forms.block_nnz", int(_nonzero(block).sum()))


def _build_window_hook(rec, _args, window, _children):
    rec.maximum("forms.window_dim_max", max(window.degree_dims))


def _json_bytes_hook(rec, _args, data, _children):
    rec.count("reporting.report_bytes", len(data))


HOOKS = {
    "exactla.matmul": _matmul_hook,
    "spectral.spectral_data": _spectral_data_hook,
    "forms.operator_matrices": _operator_matrices_hook,
    "forms.build_window": _build_window_hook,
    "reporting.json_bytes": _json_bytes_hook,
}


# -- per-layer metrics ----------------------------------------------------------

# metric name -> the span names whose self times (or calls) it sums
SELF_TIME_METRICS = {
    "forms.operator_matrices_s": ["forms.operator_matrices"],
    "forms.identity_residuals_s": ["forms.window_identity_residuals"],
    "forms.apply_s": ["forms.apply_d", "forms.apply_b", "forms.apply_k"],
    "forms.multiply_s": ["forms.multiply_forms"],
    "exactla.matmul_s": ["exactla.matmul"],
    "exactla.rref_s": ["exactla.rref"],
    "exactla.inverse_s": ["exactla.inverse"],
    "exactla.eval_poly_s": ["exactla.eval_poly"],
    "spectral.harmonic_projection_s": ["spectral.harmonic_projection"],
    "spectral.greens_operator_s": ["spectral.greens_operator"],
    "spectral.report_s": ["spectral.spectral_report"],
    "spectral.eigenprojection_float_s": ["spectral.eigenprojection_float"],
    "spectral.hodge_split_s": ["spectral.hodge_split"],
    "hodge.laplacian_spectra_s": ["hodge.laplacian_spectra"],
    "hodge.betti_s": ["hodge.betti_numbers"],
    "hodge.decompose_s": ["hodge.decompose"],
    "hodge.torsion_s": ["hodge.rs_torsion"],
    "foliation.sweep_s": ["foliation.witten_betti_sweep"],
    "foliation.witten_complex_s": ["foliation.witten_complex"],
    "foliation.intertwiner_ranks_s": ["foliation.intertwiner_ranks"],
    "morse.scan_s": ["morse.morse_scan"],
    "gv.connection_form_s": ["gv.connection_form"],
    "gv.exterior_derivative_s": ["gv.exterior_derivative"],
    "gv.report_s": ["gv.gv_report"],
    "reporting.json_bytes_s": ["reporting.json_bytes"],
}

CALL_METRICS = {
    "forms.apply_calls": ["forms.apply_d", "forms.apply_b", "forms.apply_k"],
    "forms.multiply_calls": ["forms.multiply_forms"],
    "exactla.matmul_calls": ["exactla.matmul"],
    "exactla.rref_calls": ["exactla.rref"],
    "hodge.laplacians_calls": ["hodge.laplacians"],
    "foliation.harmonic_basis_calls": ["foliation.harmonic_basis"],
}

PER_LAYER = (
    [("algebra.load_s", "s", "lower"), ("algebra.calls", "count", "lower")]
    + [(n, "s", "lower") for n in SELF_TIME_METRICS]
    + [(n, "count", "lower") for n in CALL_METRICS]
    + [("forms.block_density", "ratio", "lower"),
       ("forms.window_dim_max", "count", "lower"),
       ("exactla.matmul_scalar_mults", "count", "lower"),
       ("exactla.matmul_useful_ratio", "ratio", "higher"),
       ("exactla.max_entry_bits", "bits", "lower"),
       ("spectral.cache_hit_ratio", "ratio", "higher"),
       ("reporting.report_bytes", "bytes", "lower"),
       ("cli.self_s", "s", "lower")]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"layer.{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(rec: Recorder, traced_job_s: float, overhead_ratio: float):
    """Per-layer metrics of one traced round.

    ``traced_job_s`` is the summed job time of the traced round; shares are
    taken over it less the counter bookkeeping.  ``overhead_ratio`` is the
    traced over the untraced job time of the same round."""
    self_s, calls = rec.self_times()
    by_layer = defaultdict(float)
    layer_calls = Counter()
    for name, secs in self_s.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] += secs
        layer_calls[layer] += calls[name]
    base = max(traced_job_s - rec.overhead_s, 1e-12)
    c = rec.counters

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {"algebra.load_s": by_layer["algebra"],
           "algebra.calls": layer_calls["algebra"]}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names)
    for metric, names in CALL_METRICS.items():
        out[metric] = sum(calls.get(n, 0) for n in names)
    spectral_calls = calls.get("spectral.spectral_data", 0)
    out.update({
        "forms.block_density": ratio("forms.block_nnz", "forms.block_entries"),
        "forms.window_dim_max": rec.maxima.get("forms.window_dim_max", 0),
        "exactla.matmul_scalar_mults": c["exactla.matmul_scalar_mults"],
        "exactla.matmul_useful_ratio": ratio("exactla.matmul_useful_mults",
                                             "exactla.matmul_scalar_mults"),
        "exactla.max_entry_bits": rec.maxima.get("exactla.max_entry_bits", 0),
        "spectral.cache_hit_ratio": (c["spectral.cache_hits"] / spectral_calls
                                     if spectral_calls else 0.0),
        "reporting.report_bytes": c["reporting.report_bytes"],
        "cli.self_s": by_layer["cli"],
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = by_layer[layer]
        out[f"layer.{layer}.share"] = by_layer[layer] / base
    out["trace.overhead_ratio"] = overhead_ratio
    return out
