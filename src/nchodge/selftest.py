"""The full invariant suite, shared between the test suite and the CLI.

Each criterion function takes the seed and returns a details dict with a
boolean "passed".  run_all executes the numbered list, times it,
and assembles a deterministic report (timings go to the caller for
display, never into the report, so fixed seed means fixed bytes).
"""

from __future__ import annotations

import functools
import time

import numpy as np

from . import reporting
from .algebra import builtin_algebra
from .errors import NotIntegrable, lookup
from .exactla import max_abs
from .foliation import (DEFAULT_TAUS, builtin_model, random_smooth_phi,
                        witten_betti_sweep)
from .forms import (FLOAT_IDENTITY_TOL, Form, apply_b, apply_d, apply_k,
                    build_window, multiply_forms, window_identity_residuals)
from .gv import INTEGRABILITY_TOL, gv_report
from .hodge import (abelian_cs_partition, betti_numbers, decompose,
                    direct_sum, hodge_package, random_complex, rs_torsion,
                    twisted_circle_complex)
from .morse import builtin_chart, morse_scan
from .scalars import FLOAT, RATIONAL
from .spectral import CRT_VS_EIG_TOL, MIN_SINGULAR_TOL, spectral_report

ALGEBRA_SUITE = (("dual-numbers", 4), ("two-points", 4), ("m2", 2), ("z3", 4))
RANDOM_TRIPLES = 200    # seeded random form triples per algebra (criterion 6)
RANDOM_COMPLEXES = 50   # seeded random complexes (criterion 8)
GV_GRID = 32            # grid points per axis, and twice that (criterion 11)
GV_TOL = 1e-6           # GV value, gauge residual and grid doubling (criterion 11)
BUDGET_SECONDS = 300.0  # time budget of the whole suite (criterion 12)


@functools.cache
def suite_window(name, n_max, mode):
    return build_window(builtin_algebra(name, mode), n_max)


@functools.cache
def suite_residuals(name, n_max, mode):
    return window_identity_residuals(suite_window(name, n_max, mode))


@functools.cache
def suite_report(name, n_max):
    """Cached exact spectral_report of a suite window; criteria 3-5 read
    its per-degree rows."""
    return spectral_report(suite_window(name, n_max, RATIONAL))


def laplacian_identity(seed) -> dict:
    """bd + db equals 1 - k on every window degree below the top."""
    rows, passed = [], True
    for name, n_max in ALGEBRA_SUITE:
        res = suite_residuals(name, n_max, RATIONAL)["laplacian_is_one_minus_k"]
        exact_ok = all(flag for _, flag, _ in res)
        resf = suite_residuals(name, n_max, FLOAT)["laplacian_is_one_minus_k"]
        float_max = max((m for _, _, m in resf), default=0.0)
        ok = exact_ok and float_max < FLOAT_IDENTITY_TOL
        rows.append({"algebra": name, "n_max": n_max, "exact_zero": exact_ok,
                     "float_residual": float_max, "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


def rotation_polynomial_relations(seed) -> dict:
    """(k^n - 1)(k^{n+1} - 1) = 0 per degree, plus the three power
    identities threading k through d and b."""
    keys = ("cyclic_annihilator", "k_pow_fixes_d", "k_pow_n", "k_pow_n_plus_one")
    rows, passed = [], True
    for name, n_max in ALGEBRA_SUITE:
        res = suite_residuals(name, n_max, RATIONAL)
        detail = {}
        ok = True
        for key in keys:
            flags = [flag for _, flag, _ in res[key]]
            detail[key] = all(flags)
            ok = ok and all(flags)
        rows.append({"algebra": name, **detail, "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


def harmonic_projection_dual_route(seed) -> dict:
    """rank P + rank (1-k)^2 = dim, exactly, and the exact polynomial
    projection matches an independent float eigensolver."""
    rows, passed = [], True
    for name, n_max in ALGEBRA_SUITE:
        degrees = suite_report(name, n_max)["degrees"]
        rank_ok = all(row["rank_split_ok"] for row in degrees)
        worst_gap = max((row["crt_vs_eig"] for row in degrees), default=0.0)
        ok = rank_ok and worst_gap <= CRT_VS_EIG_TOL
        rows.append({"algebra": name, "rank_identity": rank_ok,
                     "crt_vs_eig": worst_gap, "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


# G(bd + db) = 1 - P is green_left_inverse given criterion 1's bd + db = 1 - k.
# YX = 0 needs no residual of its own: P idempotent gives Y(1 - P) = Y for
# Y = G bd (1 - P), so X + Y = 1 - P and Y^2 = Y give YX = Y - Y^2 = 0.
_SPLIT_RESIDUALS = ("green_left_inverse", "P_idempotent", "split_partition",
                    "d_piece_idempotent", "b_piece_idempotent",
                    "pieces_orthogonal")


def green_operator_split(seed) -> dict:
    """G(bd + db) = 1 - P exactly; Gdb and Gbd are complementary
    idempotents on the complement with images inside Im d and Im b."""
    rows, passed = [], True
    for name, n_max in ALGEBRA_SUITE:
        ok = all(all(row["residuals"][key]["exact_zero"] for key in _SPLIT_RESIDUALS)
                 and all(row["membership"].values())
                 for row in suite_report(name, n_max)["degrees"])
        rows.append({"algebra": name, "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


def rescaled_laplacian_definiteness(seed) -> dict:
    """The rescaled Laplacian vanishes on the harmonic space and is
    bounded below on the complement."""
    rows, passed = [], True
    for name, n_max in ALGEBRA_SUITE:
        ok, min_sing_seen = True, None
        for row in suite_report(name, n_max)["degrees"]:
            norm_p = row["rescaled_laplacian"]["norm_on_P"]
            min_sing = row["rescaled_laplacian"]["min_singular_on_complement"]
            if norm_p != 0.0:
                ok = False
            if min_sing is not None:
                if min_sing <= MIN_SINGULAR_TOL:
                    ok = False
                min_sing_seen = min_sing if min_sing_seen is None \
                    else min(min_sing_seen, min_sing)
        rows.append({"algebra": name, "min_singular_on_complement": min_sing_seen,
                     "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


def _random_form(w, rng, degree) -> Form:
    coords = rng.integers(-2, 3, size=w.degree_dims[degree])
    return Form({degree: w.field.array(list(int(c) for c in coords))})


def random_operator_identities(seed) -> dict:
    """Exact checks on seeded random forms: d^2 = b^2 = 0, k commutes
    with d and b, the boundary of a product against a differential is the
    graded commutator, and the form product associates."""
    rows, passed = [], True
    for ai, (name, n_max) in enumerate(ALGEBRA_SUITE):
        w = suite_window(name, n_max, RATIONAL)
        rng = np.random.default_rng(1000003 * seed + 7919 * ai + 11)
        failures = []
        for trial in range(RANDOM_TRIPLES):
            p = int(rng.integers(0, n_max + 1))
            q = int(rng.integers(0, n_max - p + 1))
            r = int(rng.integers(0, n_max - p - q + 1))
            u, v, z = (_random_form(w, rng, deg) for deg in (p, q, r))
            if multiply_forms(w, multiply_forms(w, u, v), z) != \
                    multiply_forms(w, u, multiply_forms(w, v, z)):
                failures.append((trial, "associativity", (p, q, r)))
            if p <= n_max - 2 and not apply_d(w, apply_d(w, u)).is_zero():
                failures.append((trial, "d_squared", p))
            if not apply_b(w, apply_b(w, u)).is_zero():
                failures.append((trial, "b_squared", p))
            if apply_k(w, apply_b(w, u)) != apply_b(w, apply_k(w, u)):
                failures.append((trial, "kb_commute", p))
            if p <= n_max - 1:
                if apply_k(w, apply_d(w, u)) != apply_d(w, apply_k(w, u)):
                    failures.append((trial, "kd_commute", p))
                a = w.form_from_element(
                    [int(c) for c in rng.integers(-2, 3, size=w.algebra.dim)])
                lhs = apply_b(w, multiply_forms(w, u, apply_d(w, a)))
                comm = multiply_forms(w, u, a) - multiply_forms(w, a, u)
                rhs = comm if p % 2 == 0 else -comm
                if lhs != rhs:
                    failures.append((trial, "boundary_of_u_da", p))
        ok = not failures
        rows.append({"algebra": name, "trials": RANDOM_TRIPLES,
                     "failures": failures[:5], "ok": ok})
        passed = passed and ok
    return {"passed": passed, "suite": rows}


def circle_torsion_and_partition(seed) -> dict:
    """Twisted circle with alpha = -1: det' = 4 in both degrees and
    torsion 1/2, independent of the subdivision; torsion adds over direct
    sums; the degree-(0,1) partition function equals 2 at n = 8."""
    detail = {"per_n": []}
    ok = True
    for n in (3, 8, 17):
        cx = twisted_circle_complex(n, -1.0)
        tor = rs_torsion(cx)
        d0, d1 = tor["det_prime"][0], tor["det_prime"][1]
        mus = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n)
        oracle = float(np.prod(np.abs(mus - 1.0) ** 2))
        row_ok = (abs(d0 - 4.0) <= 1e-9 and abs(d1 - 4.0) <= 1e-9
                  and abs(d0 - oracle) <= 1e-9
                  and abs(tor["torsion"] - 0.5) <= 1e-9)
        detail["per_n"].append({"n": n, "det0": d0, "det1": d1,
                                "eig_product_oracle": oracle,
                                "torsion": tor["torsion"], "ok": row_ok})
        ok = ok and row_ok
    a = twisted_circle_complex(8, -1.0)
    b = twisted_circle_complex(5, 1j)
    la = rs_torsion(a)["log_torsion"]
    lb = rs_torsion(b)["log_torsion"]
    lsum = rs_torsion(direct_sum(a, b))["log_torsion"]
    additivity = abs(lsum - la - lb)
    detail["torsion_additivity_residual"] = additivity
    z = abelian_cs_partition(twisted_circle_complex(8, -1.0))["Z"]
    detail["partition_Z_at_8"] = z
    ok = ok and additivity <= 1e-10 and abs(z - 2.0) <= 1e-10
    detail["passed"] = ok
    return detail


def random_complex_hodge(seed) -> dict:
    """Seeded random complexes: constructed Betti numbers equal both the
    harmonic-kernel count and rank-nullity; decomposition parts are
    Gram-orthogonal and re-sum."""
    rng = np.random.default_rng(7919 * seed + 101)
    worst_resum, worst_orth = 0.0, 0.0
    betti_ok = True
    for _ in range(RANDOM_COMPLEXES):
        cx, expected = random_complex(rng)
        betti = betti_numbers(cx)      # raises if the two routes disagree
        if betti != expected:
            betti_ok = False
        k = int(rng.integers(0, cx.top + 1))
        vec = rng.normal(size=cx.dims[k]) + 1j * rng.normal(size=cx.dims[k])
        h, e, c = decompose(cx, k, vec)
        scale = max(1.0, float(np.linalg.norm(vec)))
        worst_resum = max(worst_resum, max_abs(h + e + c - vec) / scale)
        G = cx.grams[k]

        def gdot(x, y):
            return abs(complex(x.conj() @ G @ y))

        def gnorm(x):
            return max(1.0, np.sqrt(abs(complex(x.conj() @ G @ x))))

        for x, y in ((h, e), (h, c), (e, c)):
            worst_orth = max(worst_orth, gdot(x, y) / (gnorm(x) * gnorm(y)))
    ok = betti_ok and worst_resum <= 1e-10 and worst_orth <= 1e-10
    return {"passed": ok, "complexes": RANDOM_COMPLEXES,
            "betti_routes_agree": betti_ok,
            "worst_resum_residual": worst_resum,
            "worst_orthogonality_residual": worst_orth}


def witten_sweep_invariance(seed) -> dict:
    """Weighted Betti numbers are flat across the deformation sweep and
    the harmonic pairings have full rank, for both leaf types and both a
    fixed and a random smooth leaf function."""
    taus = DEFAULT_TAUS
    frozen = {"circle-leaves": [1.0, 1.0], "torus-leaves": [1.0, 2.0, 1.0]}
    rows, passed = [], True
    for mi, model_name in enumerate(("circle-leaves", "torus-leaves")):
        model = builtin_model(model_name)
        phis = [("cos-h", "cos-h"),
                ("random-smooth", random_smooth_phi(
                    np.random.default_rng(31 * seed + 13 * mi + 5)))]
        for phi_name, phi in phis:
            report = witten_betti_sweep(model, phi, taus)
            base_ok = report["base_betti"] == frozen[model_name]
            ok = report["passed"] and base_ok
            rows.append({"model": model_name, "phi": phi_name,
                         "base_betti": report["base_betti"],
                         "all_taus_match": all(r["matches_base"] for r in report["rows"]),
                         "ranks_ok": all(r["intertwiner_ranks_ok"] for r in report["rows"]),
                         "ok": ok})
            passed = passed and ok
    return {"passed": passed, "taus": list(taus), "suite": rows}


def morse_scan_classification(seed) -> dict:
    """The cosine chart yields exactly two Morse families at the analytic
    locations; the cubic chart flags exactly the origin as a transversal
    birth-death point."""
    cos_report = morse_scan(builtin_chart("cos-h"))
    cell = (cos_report["h_range"][1] - cos_report["h_range"][0]) / cos_report["n_h"]
    fams = cos_report["families"]
    cos_ok = (len(fams) == 2
              and sorted(f["index"] for f in fams) == [0, 1]
              and not cos_report["degenerate_events"]
              and cos_report["almost_morse"]
              and all(f["count"] == cos_report["n_v"] for f in fams))
    locs = sorted(f["h_mean"] for f in fams)
    span = cos_report["h_range"][1] - cos_report["h_range"][0]
    wrap_dist = min(locs[0], span - locs[0])
    cos_ok = cos_ok and wrap_dist <= cell and abs(locs[1] - 0.5) <= cell

    cubic_report = morse_scan(builtin_chart("cubic-bd"))
    cubic_cell = (cubic_report["h_range"][1] - cubic_report["h_range"][0]) \
        / cubic_report["n_h"]
    events = cubic_report["degenerate_events"]
    cubic_ok = (len(events) == 1
                and abs(events[0]["h"]) <= cubic_cell
                and events[0]["v"] == 0.0
                and events[0]["birth_death_ok"]
                and cubic_report["almost_morse"]
                and len(cubic_report["families"]) == 2)
    return {"passed": bool(cos_ok and cubic_ok),
            "cos_families": fams, "cos_ok": bool(cos_ok),
            "cubic_events": events, "cubic_ok": bool(cubic_ok)}


def godbillon_vey_quadrature(seed) -> dict:
    """The integrable shipped form gives an invariant that vanishes, is
    gauge invariant, and is stable under grid doubling; the non-integrable
    one is rejected."""
    n = GV_GRID
    rep = gv_report("sin-z", n)
    rep2 = gv_report("sin-z", 2 * n)
    doubling = abs(rep2["gv"] - rep["gv"])
    try:
        gv_report("x-dy", n)
        rejected = False
    except NotIntegrable:
        rejected = True
    ok = (rep["integrability_max_abs"] < INTEGRABILITY_TOL
          and abs(rep["gv"]) <= GV_TOL
          and rep["gauge_residual"] <= GV_TOL
          and doubling <= GV_TOL
          and rejected)
    return {"passed": bool(ok), "gv": rep["gv"],
            "integrability_max_abs": rep["integrability_max_abs"],
            "gauge_residual": rep["gauge_residual"],
            "grid_doubling_delta": doubling,
            "non_integrable_rejected": rejected}


def determinism_and_budget(seed, elapsed=None) -> dict:
    """Representative reports built twice from scratch with the same seed
    must serialize to identical bytes; the whole suite must fit the time
    budget."""

    def builders():
        return [
            lambda: spectral_report(
                build_window(builtin_algebra("dual-numbers"), 3)),
            lambda: hodge_package(
                random_complex(np.random.default_rng(seed + 5))[0]),
            lambda: witten_betti_sweep(
                builtin_model("circle-leaves"),
                random_smooth_phi(np.random.default_rng(seed + 9)),
                (0.0, 1.0)),
            lambda: gv_report("sin-z", 16),
            lambda: morse_scan(builtin_chart("cubic-bd"), n_h=64, n_v=9),
        ]

    first = [reporting.json_bytes(fn()) for fn in builders()]
    second = [reporting.json_bytes(fn()) for fn in builders()]
    deterministic = [a == b for a, b in zip(first, second)]
    within = elapsed is None or elapsed < BUDGET_SECONDS
    return {"passed": bool(all(deterministic) and within),
            "reports_deterministic": deterministic,
            "budget_seconds": BUDGET_SECONDS,
            "within_budget": bool(within)}


def _fmt(x):
    return f"{x:.2e}" if isinstance(x, float) else str(x)


_HEADLINES = {
    1: lambda d: "worst float residual "
        + _fmt(max(r["float_residual"] for r in d["suite"])),
    2: lambda d: "relation families exactly zero on "
        + f"{sum(r['ok'] for r in d['suite'])}/{len(d['suite'])} windows",
    3: lambda d: "worst projection route gap "
        + _fmt(max(r["crt_vs_eig"] for r in d["suite"])),
    4: lambda d: f"split identities exact on {sum(r['ok'] for r in d['suite'])}"
        f"/{len(d['suite'])} windows",
    5: lambda d: "smallest singular value on the complement "
        + _fmt(min(r["min_singular_on_complement"] for r in d["suite"]
                   if r["min_singular_on_complement"] is not None)),
    6: lambda d: f"{sum(r['trials'] for r in d['suite'])} random triples, "
        f"{sum(len(r['failures']) for r in d['suite'])} failures",
    7: lambda d: "torsion additivity residual "
        + _fmt(d["torsion_additivity_residual"])
        + f", Z = {d['partition_Z_at_8']:.6f}",
    8: lambda d: "worst re-sum " + _fmt(d["worst_resum_residual"])
        + ", worst overlap " + _fmt(d["worst_orthogonality_residual"]),
    9: lambda d: f"betti flat on {sum(r['ok'] for r in d['suite'])}"
        f"/{len(d['suite'])} sweeps",
    10: lambda d: f"{len(d['cos_families'])} cosine families, "
        f"{len(d['cubic_events'])} degenerate cubic event(s)",
    11: lambda d: "gv " + _fmt(abs(d["gv"])) + ", gauge "
        + _fmt(d["gauge_residual"]) + ", doubling "
        + _fmt(d["grid_doubling_delta"]),
    12: lambda d: f"{sum(d['reports_deterministic'])}"
        f"/{len(d['reports_deterministic'])} reports byte-stable",
}


CRITERIA = (
    (1, "nc-laplacian-identity", laplacian_identity),
    (2, "rotation-polynomial-relations", rotation_polynomial_relations),
    (3, "harmonic-projection-dual-route", harmonic_projection_dual_route),
    (4, "green-operator-split", green_operator_split),
    (5, "rescaled-laplacian-definiteness", rescaled_laplacian_definiteness),
    (6, "random-operator-identities", random_operator_identities),
    (7, "circle-torsion-and-partition", circle_torsion_and_partition),
    (8, "random-complex-hodge", random_complex_hodge),
    (9, "witten-sweep-invariance", witten_sweep_invariance),
    (10, "morse-scan-classification", morse_scan_classification),
    (11, "godbillon-vey-quadrature", godbillon_vey_quadrature),
    (12, "determinism-and-budget", determinism_and_budget),
)


def run_criterion(number, seed=0, elapsed=None) -> dict:
    num, name, fn = lookup({c[0]: c for c in CRITERIA}, number, "criterion")
    try:
        details = fn(seed, elapsed) if num == 12 else fn(seed)
    except Exception as exc:            # honest red: a crash is a failure
        details = {"passed": False, "error": f"{type(exc).__name__}: {exc}"}
    if "error" in details:
        headline = details["error"]
    else:
        try:
            headline = _HEADLINES[num](details)
        except Exception:
            headline = ""
    return {"id": num, "name": name, "passed": bool(details.get("passed")),
            "headline": headline,
            "details": {k: v for k, v in details.items() if k != "passed"}}


def run_all(seed=0):
    """Returns (report dict, table lines with timings, total seconds)."""
    rows, lines = [], []
    start = time.monotonic()
    elapsed_11 = 0.0
    for num, name, _ in CRITERIA:
        t0 = time.monotonic()
        row = run_criterion(num, seed, elapsed=elapsed_11 if num == 12 else None)
        dt = time.monotonic() - t0
        if num <= 11:
            elapsed_11 = time.monotonic() - start
        rows.append(row)
        status = "PASS" if row["passed"] else "FAIL"
        lines.append(f"criterion {num:2d}  {name:34s} {status} {dt:7.2f}s  "
                     f"{row['headline']}")
    total = time.monotonic() - start
    lines.append(f"total: {total:.2f}s, "
                 f"{sum(r['passed'] for r in rows)}/{len(rows)} passed")
    report = reporting.make_report("selftest", {
        "seed": seed,
        "criteria": rows,
        "passed": all(r["passed"] for r in rows),
    })
    return report, lines, total
