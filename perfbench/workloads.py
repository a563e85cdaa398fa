"""The three benchmark workloads: inputs made from the seed, jobs, checks.

A workload is set up once (``setup``) and then runs rounds of jobs.  A
round is a fixed list of size classes; the seed only picks the concrete
instance of each class (which algebra of a group, its basis order, the
twist of a circle, the coefficients of a random form) and the order of the
jobs.  Every seed therefore runs the same size classes, which is what
makes a held-out seed comparable with the seeds used while a change was
written.

Every job but those of ``nc-forms-warm`` is one in-process
``nchodge.cli.main([...])`` call writing its report to a file; each job's
output is checked after its timer stops.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import nchodge.algebra as nc_algebra
import nchodge.cli as nc_cli
import nchodge.forms as nc_forms
import nchodge.hodge as nc_hodge
import nchodge.spectral as nc_spectral


@dataclass
class Job:
    key: str                                 # what ran; exact jobs' reference key
    run: Callable[[], object]                # the timed call
    check: Callable[[object], str | None]    # failure reason, or None when right


# -- generated algebra families --------------------------------------------------
#
# Structure constants over the integers in a base basis order: name ->
# (labels, unit coordinates, product of basis vectors i, j as {k: coeff}).

_T2_PRODUCTS = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {1: 1}, (2, 2): {2: 1}}

FAMILIES = {
    # k[x]/(x^3) in the monomial basis
    "kx3": (("1", "x", "x2"), (1, 0, 0),
            lambda i, j: {i + j: 1} if i + j < 3 else {}),
    # upper-triangular 2x2 matrices T2 (path algebra of the A2 quiver)
    "t2": (("e11", "e12", "e22"), (1, 0, 1),
           lambda i, j: _T2_PRODUCTS.get((i, j), {})),
    # group algebra of Z/2
    "z2": (("g0", "g1"), (1, 0), lambda i, j: {(i + j) % 2: 1}),
}


def family_variants(family):
    """Every basis order of a family, as variant names like ``kx3-b021``."""
    labels = FAMILIES[family][0]
    return [f"{family}-b{''.join(map(str, perm))}"
            for perm in itertools.permutations(range(len(labels)))]


def family_json(variant):
    """Algebra JSON for a variant, with an explicit name so reports do not
    depend on the file name.  ``perm[new] = old`` reorders the basis."""
    family, order = variant.split("-b")
    labels, unit, product = FAMILIES[family]
    perm = [int(ch) for ch in order]
    new_of = {old: new for new, old in enumerate(perm)}
    dim = len(labels)
    mul = [[[[0, 1] for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
    for a, b in itertools.product(range(dim), repeat=2):
        for k, coeff in product(perm[a], perm[b]).items():
            mul[a][b][new_of[k]] = [coeff, 1]
    return {"name": variant, "dim": dim, "scalars": "rational",
            "basis": [labels[p] for p in perm],
            "unit": [[unit[p], 1] for p in perm], "mul": mul}


def write_families(directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for family in FAMILIES:
        for variant in family_variants(family):
            path = directory / f"{variant}.json"
            path.write_text(json.dumps(family_json(variant)))


def algebra_arg(variant, directory: Path):
    return str(directory / f"{variant}.json") if "-b" in variant else variant


# -- CLI jobs -----------------------------------------------------------------------

def cli_job(key, argv, out_path: Path, check_report):
    """One ``nchodge`` command, in process, with its report in ``out_path``.
    ``check_report(bytes)`` returns a failure reason or None."""

    def run():
        out_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return nc_cli.main(list(argv) + ["--out", str(out_path)])

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        return check_report(out_path.read_bytes())

    return Job(key, run, check)


def exact_key(command, mode, variant, n_max):
    return f"{command} {mode} {variant} n{n_max}"


def check_digest(expected):
    def check(data):
        if expected is None:
            return "no reference digest"
        got = hashlib.sha256(data).hexdigest()
        return None if got == expected else f"report digest {got[:12]} != reference"
    return check


def spectral_ints(report):
    """The integer fields of a spectral report: dims, ranks, multiplicities."""
    return {"degree_dims": report["degree_dims"],
            "rank_P": [r["rank_P"] for r in report["degrees"]],
            "rank_P_perp": [r["rank_P_perp"] for r in report["degrees"]],
            "rank_one_minus_k_squared": [r["rank_one_minus_k_squared"]
                                         for r in report["degrees"]],
            "multiplicities": [[int(e[2]) for e in r["eigenvalues"]]
                               for r in report["degrees"]]}


class Workload:
    name = ""

    def __init__(self, seed, out_dir: Path, references):
        self.seed = seed
        self.out_dir = out_dir
        self.inputs = out_dir / "inputs"
        self.references = references
        self.job_out = out_dir / "job-report.json"

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    def setup(self):
        """Input generation and warm-up; safe to repeat."""

    def round(self, index) -> list:
        raise NotImplementedError


# -- nc-exact-cold -------------------------------------------------------------------

# (command, scalar mode, algebra, n_max).  The table is fixed and the seed
# only sets the job order: which algebra or basis order a class uses moves
# its cost by up to 1.6x, which would make a seed's p50 and tail depend on
# its draws rather than on the code.  The job times are spread so that no
# job dominates a round, and so that the median (ten dim-3 nc-report jobs
# at n_max 2) and the p80 tail (seven dim-3 spectral jobs at n_max 3) each
# fall inside a dense cluster of jobs of about the same cost.
_DIM2 = ("dual-numbers", "two-points", "z2-b01", "z2-b10")
COLD_JOBS = [
    ("nc-report", "rational", "t2-b102", 3),
    ("nc-report", "gaussian", "z3", 2),
    ("nc-report", "gaussian", "kx3-b102", 2),
] + [("spectral", "rational", alg, 3)
     for alg in ("z3", "kx3-b021", "kx3-b102", "kx3-b201",
                 "t2-b012", "t2-b120", "t2-b210")] + [
    ("spectral", "rational", "m2", 2),
    ("nc-report", "gaussian", "m2", 1),
    ("spectral", "gaussian", "z3", 2),
    ("spectral", "gaussian", "kx3-b120", 2),
    ("spectral", "gaussian", "m2", 1),
] + [("nc-report", "rational", alg, 2)
     for alg in ("z3", "kx3-b012", "kx3-b021", "kx3-b120", "kx3-b201",
                 "t2-b012", "t2-b021", "t2-b120", "t2-b201", "t2-b210")] + [
    ("nc-report", "rational", "m2", 1),
    ("spectral", "rational", "t2-b021", 2),
    ("spectral", "rational", "m2", 1),
] + [(command, mode, _DIM2[(i + j) % len(_DIM2)], n)
     for i, (command, mode) in enumerate(itertools.product(
         ("spectral", "nc-report"), ("rational", "gaussian")))
     for j, n in enumerate((5, 6))]


class ExactCold(Workload):
    name = "nc-exact-cold"

    def setup(self):
        write_families(self.inputs)
        # warm-up: load the CLI's lazily imported code paths once
        self.job_out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            nc_cli.main(["spectral", "--algebra", "dual-numbers", "--nmax", "2",
                         "--out", str(self.job_out)])

    def job(self, command, mode, variant, n_max):
        key = exact_key(command, mode, variant, n_max)
        argv = [command, "--algebra", algebra_arg(variant, self.inputs),
                "--nmax", str(n_max), "--scalar", mode]
        return cli_job(key, argv, self.job_out,
                       check_digest(self.references["exact_digests"].get(key)))

    def round(self, index):
        order = self.rng(1, index).permutation(len(COLD_JOBS))
        return [self.job(*COLD_JOBS[i]) for i in order]


# -- nc-forms-warm ---------------------------------------------------------------------

class FormsWarm(Workload):
    name = "nc-forms-warm"

    windows_spec = (("z3", "rational", 4), ("m2", "rational", 2),
                    ("t2-b102", "gaussian", 2))

    def setup(self):
        write_families(self.inputs)
        self.windows = []
        for variant, mode, n_max in self.windows_spec:
            if "-b" in variant:
                alg = nc_algebra.load_algebra(algebra_arg(variant, self.inputs), mode)
            else:
                alg = nc_algebra.builtin_algebra(variant, mode)
            window = nc_forms.build_window(alg, n_max)
            nc_forms.operator_matrices(window)
            for degree in range(n_max):
                nc_spectral.spectral_data(window, degree)
            self.windows.append((variant, mode, window))

    def round(self, index):
        rng = self.rng(3, index)
        jobs = []
        for variant, mode, w in self.windows:
            n = w.n_max
            for p, q, r in itertools.product(range(n + 1), repeat=3):
                if p <= n - 1 and p + q + r <= n:
                    key = f"triple {mode} {variant} n{n} p{p} q{q} r{r}"
                    jobs.append(triple_job(key, w, (p, q, r), rng))
        return [jobs[i] for i in rng.permutation(len(jobs))]


def _random_form(w, rng, degree):
    coords = rng.integers(-2, 3, size=w.degree_dims[degree])
    return nc_forms.Form({degree: w.field.array([int(c) for c in coords])})


def triple_job(key, w, degrees, rng):
    """The criterion-6 identities on one seeded form triple, then one
    verified Hodge split of the first form."""
    p, q, r = degrees
    n = w.n_max
    u, v, z = (_random_form(w, rng, deg) for deg in degrees)
    a = w.form_from_element([int(c) for c in rng.integers(-2, 3, size=w.algebra.dim)])

    def run():
        f = nc_forms
        mul = f.multiply_forms
        flags = {"associativity": mul(w, mul(w, u, v), z) == mul(w, u, mul(w, v, z)),
                 "b_squared": f.apply_b(w, f.apply_b(w, u)).is_zero(),
                 "kb_commute": f.apply_k(w, f.apply_b(w, u)) == f.apply_b(w, f.apply_k(w, u))}
        if p <= n - 2:
            flags["d_squared"] = f.apply_d(w, f.apply_d(w, u)).is_zero()
        flags["kd_commute"] = f.apply_k(w, f.apply_d(w, u)) == f.apply_d(w, f.apply_k(w, u))
        lhs = f.apply_b(w, mul(w, u, f.apply_d(w, a)))
        comm = mul(w, u, a) - mul(w, a, u)
        flags["boundary_of_u_da"] = lhs == (comm if p % 2 == 0 else -comm)
        return flags, nc_spectral.hodge_split(w, u, verify=True)

    def check(result):
        flags, (harm, dpart, bpart) = result
        bad = sorted(name for name, ok in flags.items() if not ok)
        if bad:
            return "identities fail: " + ", ".join(bad)
        if not harm + dpart + bpart == u:
            return "hodge split does not re-sum"
        return None

    return Job(key, run, check)


# -- float-classical-leafwise --------------------------------------------------------------

CIRCLE_SIZES = (8, 32, 64, 96, 128, 192, 256)
CIRCLE_TWISTS = {"m1": -1.0, "i": 1j, "mi": -1j, "w3": cmath.exp(2j * math.pi / 3)}
# seeded random complexes, one per size class: (top degree, total dimension range)
RANDOM_CLASSES = ((1, 6, 10), (2, 10, 16), (3, 16, 24))
TAU_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)
MORSE_NV = (29, 31, 33, 35, 37)
# the recorder checks these windows' integer fields against exact reports
FLOAT_SPECTRAL = (("z3", 4), ("m2", 2), ("kx3-b021", 3), ("two-points", 6))
BASE_BETTI = {"circle-leaves": [1, 1], "torus-leaves": [1, 2, 1]}


def _matrix_json(mat):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat)]


def circle_json(n, alpha):
    """Circle with n sites and holonomy alpha on the closing edge, built
    here rather than by the package: D0 = shift - 1."""
    d0 = -np.eye(n, dtype=complex)
    for j in range(n - 1):
        d0[j, j + 1] = 1.0
    d0[n - 1, 0] = alpha
    return {"name": f"circle-{n}", "dims": [n, n],
            "differentials": [_matrix_json(d0)], "gram": [1.0, 1.0]}


def _close(got, want, tol=1e-8):
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def check_circle(command, alpha):
    """Closed forms for an acyclic twisted circle: det' = |1-alpha|^2 in
    both degrees, log torsion = -log|1-alpha|, Z = |1-alpha|."""
    gap = abs(1 - alpha)

    def check(data):
        rep = json.loads(data)
        if command == "torsion":
            ok = rep["betti"] == [0, 0] and _close(rep["log_torsion"], -math.log(gap))
        elif command == "cs-partition":
            ok = _close(rep["Z"], gap)
        else:
            ok = (rep["betti"] == [0, 0]
                  and all(_close(d, gap ** 2) for d in rep["det_prime"]))
        return None if ok else f"{command} misses the circle closed form"

    return check


def check_random_complex(command, expected_betti):
    def check(data):
        rep = json.loads(data)
        if command == "cs-partition":
            ld0, ld1 = rep["log_det_prime"]
            ok = _close(rep["log_Z"], -0.25 * ld1 + 0.75 * ld0)
        else:
            ok = rep["betti"] == expected_betti
            if command == "hodge":
                ok = ok and rep["euler_characteristic"] == sum(
                    (-1) ** k * b for k, b in enumerate(expected_betti))
        return None if ok else f"{command} misses the constructed Betti numbers"
    return check


def check_sweep(model):
    base = BASE_BETTI[model]

    def check(data):
        rep = json.loads(data)
        if rep.get("passed") is not True:
            return "sweep says passed: false"
        if [round(b) for b in rep["base_betti"]] != base:
            return f"base Betti {rep['base_betti']} != {base}"
        for row in rep["rows"]:
            if any(list(ranks) != base for ranks in row["intertwiner_ranks"]):
                return f"intertwiner ranks at tau {row['tau']} != {base}"
            if not all(_close(b, want) for b, want in zip(row["betti"], base)):
                return f"Betti numbers move at tau {row['tau']}"
        return None

    return check


def check_morse(chart, n_v):
    """cos(2 pi h) has one maximum and one minimum family spanning every
    slice; h^3/3 - v h has a single birth-death event at h = v = 0."""
    def check(data):
        rep = json.loads(data)
        if rep.get("passed") is not True:
            return "scan says passed: false"
        fams = sorted((f["index"], f["count"]) for f in rep["families"])
        events = rep["degenerate_events"]
        if chart == "cos-h":
            ok = fams == [(0, n_v), (1, n_v)] and not events
        else:
            half = (n_v - 1) // 2
            ok = (fams == [(0, half), (1, half)] and len(events) == 1
                  and abs(events[0]["v"]) < 1e-12 and abs(events[0]["h"]) < 1e-6)
        return None if ok else f"{chart} families {fams}, {len(events)} events"
    return check


def check_gv(data):
    rep = json.loads(data)
    if rep.get("passed") is not True:
        return "gv says passed: false"
    return None if abs(rep["gv"]) <= 1e-9 and rep["n"] == 32 else \
        f"gv {rep['gv']} is not the closed-form 0"


def check_float_spectral(expected):
    def check(data):
        if expected is None:
            return "no reference integers"
        rep = json.loads(data)
        if rep.get("passed") is not True:
            return "spectral says passed: false"
        got = spectral_ints(rep)
        return None if got == expected else "ranks or multiplicities differ from reference"
    return check


def random_complex_in_class(rng, top, lo, hi):
    """Draw seeded ``random_complex`` instances until one has the given top
    degree and a total dimension in [lo, hi]; returns it with the Betti
    numbers its construction fixes."""
    while True:
        cx, betti = nc_hodge.random_complex(rng, max_degree=3, max_dim=8)
        if cx.top == top and lo <= sum(cx.dims) <= hi:
            return cx, betti


class FloatClassical(Workload):
    name = "float-classical-leafwise"

    def setup(self):
        write_families(self.inputs)
        for n in CIRCLE_SIZES:
            for tag, alpha in CIRCLE_TWISTS.items():
                path = self.inputs / f"circle-{n}-{tag}.json"
                path.write_text(json.dumps(circle_json(n, alpha)))
        # warm-up: the first LAPACK calls load their code
        self.job_out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            nc_cli.main(["hodge", "--complex",
                         str(self.inputs / "circle-8-m1.json"),
                         "--out", str(self.job_out)])

    def round(self, index):
        rng = self.rng(4, index)
        jobs = []
        out = self.job_out
        tags = sorted(CIRCLE_TWISTS)
        for n in CIRCLE_SIZES:
            tag = tags[int(rng.integers(len(tags)))]
            path = str(self.inputs / f"circle-{n}-{tag}.json")
            for command in ("torsion", "cs-partition", "hodge"):
                jobs.append(cli_job(f"{command} circle n{n} {tag}",
                                    [command, "--complex", path], out,
                                    check_circle(command, CIRCLE_TWISTS[tag])))
        for i, size_class in enumerate(RANDOM_CLASSES):
            cx, betti = random_complex_in_class(rng, *size_class)
            path = self.inputs / f"random-{index}-{i}.json"
            path.write_text(json.dumps({
                "name": f"random-{i}", "dims": list(cx.dims),
                "differentials": [_matrix_json(d) for d in cx.diffs],
                "gram": [_matrix_json(g) for g in cx.grams]}))
            for command in ("torsion", "cs-partition", "hodge"):
                jobs.append(cli_job(f"{command} random {list(cx.dims)}",
                                    [command, "--complex", str(path)], out,
                                    check_random_complex(command, list(betti))))
        for model in BASE_BETTI:
            for phi in ("cos-h", "cos-hv", "random"):
                taus = [0.0] + sorted(rng.choice(TAU_GRID, size=4, replace=False))
                argv = ["witten-sweep", "--model", model, "--phi", phi,
                        "--tau", ",".join(repr(float(t)) for t in taus),
                        "--seed", str(int(rng.integers(1 << 30)))]
                jobs.append(cli_job(f"witten-sweep {model} {phi}", argv, out,
                                    check_sweep(model)))
        for chart in ("cos-h", "cubic-bd"):
            n_v = int(rng.choice(MORSE_NV))
            jobs.append(cli_job(f"morse-scan {chart} nv{n_v}",
                                ["morse-scan", "--chart", chart, "--n-v", str(n_v)],
                                out, check_morse(chart, n_v)))
        for omega in ("sin-z", "dz"):
            for derivative in ("spectral", "central"):
                jobs.append(cli_job(f"gv {omega} {derivative}",
                                    ["gv", "--omega", omega, "--n", "32",
                                     "--derivative", derivative], out, check_gv))
        for variant, n_max in FLOAT_SPECTRAL:
            key = exact_key("spectral", "float", variant, n_max)
            argv = ["spectral", "--algebra", algebra_arg(variant, self.inputs),
                    "--nmax", str(n_max), "--scalar", "float"]
            expected = self.references["float_spectral"].get(key)
            jobs.append(cli_job(key, argv, out, check_float_spectral(expected)))
        return [jobs[i] for i in rng.permutation(len(jobs))]


WORKLOADS = {cls.name: cls for cls in (ExactCold, FormsWarm, FloatClassical)}
