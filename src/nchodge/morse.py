"""Leafwise critical-point scans for one-dimensional leaf charts with a
one-dimensional transverse parameter.

A chart is a scalar function phi(h, v): h is the coordinate along the
leaf (possibly periodic), v the transverse parameter.  For each v on a
grid the scan finds the critical points of h -> phi(h, v) by two routes:

* sign changes of phi_h between grid nodes, sharpened by bisection;
* sign changes of phi_hh, also bisected, kept only when phi_h nearly
  vanishes there.  This second route is what catches even-order roots of
  phi_h: at a birth-death point (e.g. phi = h^3/3 - v h at v = 0) phi_h
  touches zero without crossing, so the first route alone misses it.

Each critical point is classified: nondegenerate (Morse) when phi_hh is
cleanly nonzero, with index 1 for a maximum and 0 for a minimum, else
degenerate.  Degenerate points get the birth-death transversality test:
the 2x2 matrix [[phi_hh, phi_hv], [phi_hhh, phi_hhv]] must have rank at
least 1 (the derivatives are central differences, third order included).
Slices where phi_h vanishes along the whole line are flagged flat --
such a chart is not almost-Morse and the scan says so rather than
inventing isolated critical points.

Morse points are clustered into families across the transverse grid by
index and proximity; degenerate points are reported as isolated events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, GridTooLarge, lookup

CRITICAL_TOL = 1e-6     # |phi_h| below this (scaled) makes a root of phi_hh critical
DEGENERATE_TOL = 1e-5   # |phi_hh| at or below this (scaled) makes it degenerate
MAX_N_V = 4096          # transverse slices, scanned one at a time
MAX_SAMPLES = 1 << 22   # n_h * n_v; a scan at both caps takes about 2 s


@dataclass
class LeafChart:
    name: str
    phi: callable            # vectorized in h for fixed scalar v
    h_range: tuple
    v_range: tuple
    periodic: bool


BUILTIN_CHARTS = {
    "cos-h": LeafChart(
        name="cos-h",
        phi=lambda h, v: np.cos(2 * np.pi * h),
        h_range=(0.0, 1.0), v_range=(-1.0, 1.0), periodic=True),
    "cubic-bd": LeafChart(
        name="cubic-bd",
        phi=lambda h, v: h ** 3 / 3.0 - v * h,
        h_range=(-1.0, 1.0), v_range=(-0.5, 0.5), periodic=False),
    "constant": LeafChart(
        name="constant",
        phi=lambda h, v: np.ones_like(np.asarray(h, dtype=float)),
        h_range=(0.0, 1.0), v_range=(-1.0, 1.0), periodic=True),
}


def builtin_chart(name) -> LeafChart:
    return lookup(BUILTIN_CHARTS, name, "chart")


class _Derivatives:
    """Central-difference derivatives of phi in h (and one mixed one in v),
    with steps scaled to the ranges."""

    def __init__(self, chart: LeafChart):
        self.chart = chart
        lo, hi = chart.h_range
        self.span = hi - lo
        self.s1 = 1e-5 * self.span
        self.s2 = 1e-4 * self.span
        self.s3 = 3e-3 * self.span
        vspan = chart.v_range[1] - chart.v_range[0]
        self.sv = 1e-4 * max(vspan, 1.0)

    def _wrap(self, h):
        lo, hi = self.chart.h_range
        return lo + (h - lo) % self.span if self.chart.periodic else h

    def phi(self, h, v):
        return np.asarray(self.chart.phi(self._wrap(h), v), dtype=float)

    def d1(self, h, v):
        s = self.s1
        return (self.phi(h + s, v) - self.phi(h - s, v)) / (2 * s)

    def d2(self, h, v):
        s = self.s2
        return (self.phi(h + s, v) - 2 * self.phi(h, v) + self.phi(h - s, v)) / s ** 2

    def d3(self, h, v):
        s = self.s3
        return (self.phi(h + 2 * s, v) - 2 * self.phi(h + s, v)
                + 2 * self.phi(h - s, v) - self.phi(h - 2 * s, v)) / (2 * s ** 3)

    def d2v(self, h, v):
        return (self.d2(h, v + self.sv) - self.d2(h, v - self.sv)) / (2 * self.sv)

    def d1v(self, h, v):
        return (self.d1(h, v + self.sv) - self.d1(h, v - self.sv)) / (2 * self.sv)


def _bisect(fn, a, b, xtol):
    fa, fb = fn(a), fn(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0 or (b - a) < xtol:
            return m
        if (fa < 0) != (fm < 0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _brackets(g1, g2, periodic):
    """(i, on_g1) for each sample interval (i, i + 1) that brackets a root,
    in ascending i; the last interval wraps round when ``periodic``.  A sign
    change of g1, or a zero of g1 at the left end, takes precedence
    (on_g1 True) over a sign change of g2."""
    left = np.arange(len(g1) if periodic else len(g1) - 1)
    right = (left + 1) % len(g1)
    on_g1 = ((g1[left] < 0) != (g1[right] < 0)) | (g1[left] == 0.0)
    on_g2 = (g2[left] < 0) != (g2[right] < 0)
    hits = np.flatnonzero(on_g1 | on_g2)
    return zip(hits.tolist(), on_g1[hits].tolist())


def morse_scan(chart: LeafChart, n_h=256, n_v=33) -> dict:
    """Scan the chart over an (n_h x n_v) grid; see the module docstring for
    what is detected and reported."""
    if n_h < 16:
        raise GridTooCoarse(f"need at least 16 leaf samples, got {n_h}", n_h=n_h)
    if n_v < 2:
        raise GridTooCoarse(f"need at least 2 transverse samples, got {n_v}", n_v=n_v)
    if n_v > MAX_N_V:
        raise GridTooLarge(f"need at most {MAX_N_V} transverse samples, got {n_v}",
                           n_v=n_v, cap=MAX_N_V)
    if n_h * n_v > MAX_SAMPLES:
        raise GridTooLarge(f"need at most {MAX_SAMPLES} samples, got {n_h} x {n_v}",
                           n_h=n_h, n_v=n_v, cap=MAX_SAMPLES)
    der = _Derivatives(chart)
    lo, hi = chart.h_range
    span = der.span
    if chart.periodic:
        hs = lo + span * np.arange(n_h) / n_h
    else:
        margin = 2 * der.s3 + der.s2
        hs = np.linspace(lo + margin, hi - margin, n_h)
    vs = np.linspace(chart.v_range[0], chart.v_range[1], n_v)
    step = span / n_h
    xtol = 1e-12 * max(1.0, span)

    slices = []
    degenerate_events = []
    flat_slices = []
    families = []          # each: dict with index, points [(v, h)], open flag
    almost_morse = True

    for v in vs:
        g1 = der.d1(hs, v)
        g2 = der.d2(hs, v)
        phi_vals = der.phi(hs, v)
        scale_phi = max(1.0, float(np.max(np.abs(phi_vals))))
        scale_g2 = max(1.0, float(np.max(np.abs(g2))))
        if float(np.max(np.abs(g1))) < 1e-9 * scale_phi:
            flat_slices.append(float(v))
            slices.append({"v": float(v), "flat": True, "critical_points": []})
            almost_morse = False
            continue

        roots = []
        for i, on_g1 in _brackets(g1, g2, chart.periodic):
            a = hs[i]
            b = hs[i] + step if chart.periodic else hs[i + 1]
            if on_g1:
                roots.append(_bisect(lambda x: float(der.d1(x, v)), a, b, xtol=xtol))
            else:
                r = _bisect(lambda x: float(der.d2(x, v)), a, b, xtol=xtol)
                if abs(float(der.d1(r, v))) < CRITICAL_TOL * scale_phi:
                    roots.append(r)
        merged = []
        for r in sorted(der._wrap(x) for x in roots):
            if merged and abs(r - merged[-1]) < 2 * step:
                merged[-1] = 0.5 * (merged[-1] + r)
            else:
                merged.append(r)
        if chart.periodic and len(merged) >= 2 and \
                (merged[0] - lo) + (lo + span - merged[-1]) < 2 * step:
            merged[0] = der._wrap(0.5 * (merged[0] + merged[-1] - span))
            merged.pop()

        points = []
        for r in merged:
            hh = float(der.d2(r, v))
            if abs(hh) > DEGENERATE_TOL * scale_g2:
                idx = 1 if hh < 0 else 0
                points.append({"h": float(der._wrap(r)), "kind": "morse",
                               "index": idx, "phi_hh": hh})
            else:
                jac = np.array([[hh, float(der.d1v(r, v))],
                                [float(der.d3(r, v)), float(der.d2v(r, v))]])
                svals = np.linalg.svd(jac, compute_uv=False)
                rank = int(np.sum(svals > 1e-3 * max(1.0, svals.max())))
                ok = rank >= 1
                event = {"v": float(v), "h": float(der._wrap(r)),
                         "jacobian": jac.tolist(),
                         "jacobian_rank": rank, "birth_death_ok": bool(ok)}
                degenerate_events.append(event)
                points.append({"h": float(der._wrap(r)), "kind": "degenerate",
                               "index": None, "phi_hh": hh,
                               "birth_death_ok": bool(ok)})
                if not ok:
                    almost_morse = False
        slices.append({"v": float(v), "flat": False, "critical_points": points})

        for pt in points:
            if pt["kind"] != "morse":
                continue
            hooked = None
            for fam in families:
                if fam["index"] != pt["index"] or not fam["open"]:
                    continue
                dist = abs(pt["h"] - fam["last_h"])
                if chart.periodic:
                    dist = min(dist, span - dist)
                if dist < max(0.05 * span, 4 * step):
                    hooked = fam
                    break
            if hooked is None:
                hooked = {"index": pt["index"], "points": [], "open": True,
                          "last_h": pt["h"]}
                families.append(hooked)
            hooked["points"].append((float(v), pt["h"]))
            hooked["last_h"] = pt["h"]
        for fam in families:
            if fam["open"] and (not fam["points"] or fam["points"][-1][0] != float(v)):
                fam["open"] = False

    fam_rows = []
    for fam in families:
        hs_f = [h for _, h in fam["points"]]
        vs_f = [v for v, _ in fam["points"]]
        fam_rows.append({"index": fam["index"],
                         "h_mean": float(np.mean(hs_f)),
                         "h_min": float(np.min(hs_f)), "h_max": float(np.max(hs_f)),
                         "v_first": float(vs_f[0]), "v_last": float(vs_f[-1]),
                         "count": len(hs_f)})
    fam_rows.sort(key=lambda r: (r["h_mean"], r["index"]))

    return {"chart": chart.name,
            "n_h": int(n_h), "n_v": int(n_v),
            "h_range": [float(lo), float(hi)],
            "v_range": [float(chart.v_range[0]), float(chart.v_range[1])],
            "periodic": bool(chart.periodic),
            "slices": slices,
            "families": fam_rows,
            "degenerate_events": degenerate_events,
            "flat_slices": flat_slices,
            "almost_morse": bool(almost_morse),
            "passed": bool(almost_morse)}
