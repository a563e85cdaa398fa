"""Compare the report and stderr bytes of a fixed list of nchodge commands
at two git revisions.

    python tools/bytecheck.py BASE [HEAD]

Each revision's tree is exported with ``git archive`` into a temporary
directory (nothing is checked out in, or registered with, this
repository) and every command runs there in a fresh interpreter, with
``PYTHONPATH`` set to that tree's ``src`` and BLAS pinned to one thread.
Without HEAD the second side is this checkout's working tree.  Commands
write their report with ``--out``; a command passes when both sides exit
with the same code, write the same report bytes and the same stderr
bytes (so a failing command must fail with the same error JSON: code,
message and context), and, on exit 0, write nothing to stderr.  For a
command that fails, the first key path at which the two JSON reports
differ is printed with both values (for example
``criteria[7].details.worst_resum_residual``), and the largest relative
difference |x - y| / max(|x|, |y|) over the float leaves the two reports
hold at the same key path, with that path; the same is printed for the
two stderr texts when they differ.  The exit status is 0 when every
command passes and 1 otherwise.

Float reports are compared bit for bit, so both sides must run on one
machine: LAPACK results differ between builds and processors.

The list: every command on the bundled inputs, ``nc-report --matrices``
on ``m2`` and ``z3`` in the gaussian and float modes (their d, b and k
blocks, where a wrong slot order would show), ``spectral`` on ``z3`` at
``--nmax 6`` in the rational and gaussian modes (P and G from the CRT
polynomials of degrees 1 to 5), ``spectral`` on ``two_points`` at
``--nmax 6`` in the same two modes (the Im d and Im b membership tests on
degrees up to 5, against the cached left null bases), ``spectral`` on
``dual_numbers`` at ``--nmax 32`` in the same two modes (P and G from the
CRT polynomials of degrees 1 to 31), ``gv`` on the builtin
``sin-z`` and ``dz`` forms with both derivatives, ``selftest --seed 1``,
and, on inputs written to the temporary directory, ``hodge``/``torsion``/
``cs-partition`` on a 256-site twisted circle with unit Grams, on a
64-site one with Grams (2, 1/2), whose frames take the factored route, on a
32-site one with dense Hermitian Grams stored as [re, im] matrices, and on
a real 5x4 torus stored as bare numbers with Grams (null, 2, 1/2) (the two
layouts the float parser converts in one call), on the 256-site circle
pretty-printed with indent 2 and CRLF line endings and on a 32-site one
with real tridiagonal Grams stored as bare numbers (both read by the bulk
matrix reader), on a 64-site one whose name holds a ``[`` (which the bulk
reader declines, so the full parse reads it), on diag(1, 1e-6), whose
small singular value is rank though its square is below the cut of a
squared spectrum, on the 1-2-1 complex D_0 = (1, 0)^T, D_1 = (0, 1e6),
whose degree-1 Laplacian mixes differentials of very different sizes, and
on diag(1e200, 1), whose squared singular value is past the float range,
on the 1 x 1 complex D_0 = (1e-300), whose one singular value is rank but
whose square underflows to 0, on a 256-site circle with holonomy -1 (a real
complex, stored float64 at the size the benchmark runs), on a real 32-site
circle with dense real Kac-Murdock-Szego Grams rho^|i-j| (the real
factored Cholesky), and on a real 32-site circle whose degree-0 Gram is
Hermitian with imaginary entries (so the whole complex stays complex128),
on the 256-site twisted circle with its zero entries written ``0``,
``-0``, ``0.0`` and ``-0.0`` in turn (the signed zeros the bulk reader
sets without a parse), on the same circle with one zero written ``0.00``
(a zero token the reader must parse, not set), and on a 128-site circle
with holonomy -1 and Grams (1, 8e-6), whose det' in both degrees is
e^-1501, which underflows to 0, so that ``hodge``, ``torsion`` and
``cs-partition`` end in ``hodge-classical/OutOfFloatRange`` on it,
``witten-sweep --phi cos-hv`` on ``circle_leaves.json``, on a
torus-leaves model with metric scale 2 (cos-hv varies along the
transversal, so every sample builds its own complex) and on a 5x7 torus
model (a grid that is not square, where swapped Kronecker axes would
show), ``gv`` on a gradient form that is constant along no grid axis, ``nc-report
--matrices`` and ``spectral`` in gaussian mode on ``m2`` stored gaussian
in the basis (E11, i E12, E21/2, E22), whose constants have imaginary and
fractional parts, ``nc-report --matrices`` in float mode on the same file
(the conversion of stored gaussian entries to complex128), and
``nc-report --scalar rational`` on ``z3`` stored float.  The bundled
algebra files are all stored rational; these two inputs make the gaussian
and float parsers run.  Then ``nc-report --matrices`` and ``spectral`` on
two algebras whose unit has a pivot coordinate other than 1, which the
unit-first basis change divides by: the dual numbers stored rational in the
basis (2, x), pivot coordinate 1/2, at ``--nmax 4``, and ``m2`` stored
gaussian in the basis (2i E11, E12, E21, E22), pivot coordinate -i/2, at
``--nmax 3``.  The float ``spectral`` route runs on ``z3`` at ``--nmax 3``,
on ``two_points`` at ``--nmax 6`` (Schur projections of degrees 1 to 5) and
on the gaussian-stored ``m2`` at ``--nmax 3``.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CIRCLE = "circle-256.json"
CIRCLE_GRAM = "circle-64-gram.json"
CIRCLE_HERMITIAN = "circle-32-hermitian.json"
TORUS_REAL = "torus-5x4-real.json"
CIRCLE_PRETTY = "circle-256-pretty-crlf.json"
CIRCLE_REAL_GRAM = "circle-32-real-gram.json"
CIRCLE_BRACKET_NAME = "circle-64-bracket-name.json"
CUT_SMALL = "cut-diag-1e-6.json"
CUT_MIXED = "cut-1-2-1.json"
HUGE_SIGMA = "sigma-1e200.json"
TINY_SIGMA = "sigma-1e-300.json"
CIRCLE_REAL = "circle-256-real.json"
CIRCLE_REAL_DENSE = "circle-32-real-dense-gram.json"
CIRCLE_REAL_HERMITIAN = "circle-32-real-hermitian-gram.json"
CIRCLE_ZERO_SPELLINGS = "circle-256-zero-spellings.json"
CIRCLE_ZERO_PARSED = "circle-256-one-zero-parsed.json"
CIRCLE_UNDERFLOW = "circle-128-det-underflow.json"
TORUS_SCALED = "torus-leaves-scale-2.json"
TORUS_OBLONG = "torus-leaves-5x7.json"
OMEGA = "omega-dg.json"
M2_GAUSSIAN = "m2-gaussian.json"
Z3_FLOAT = "z3-float.json"
DUAL_PIVOT = "dual-numbers-pivot.json"
M2_PIVOT = "m2-gaussian-pivot.json"

COMMANDS = (
    [[cmd, "--algebra", alg, "--nmax", "3"]
     for alg in ("dual_numbers.json", "m2.json", "two_points.json", "z3.json")
     for cmd in ("nc-report", "spectral")]
    + [["spectral", "--algebra", alg, "--nmax", nmax, "--scalar", "float"]
       for alg, nmax in (("z3.json", "3"), ("two_points.json", "6"), (M2_GAUSSIAN, "3"))]
    + [["spectral", "--algebra", alg, "--nmax", "6", "--scalar", mode]
       for alg in ("z3.json", "two_points.json") for mode in ("rational", "gaussian")]
    + [["spectral", "--algebra", "dual_numbers.json", "--nmax", "32", "--scalar", mode]
       for mode in ("rational", "gaussian")]
    + [["nc-report", "--algebra", alg, "--nmax", "3", "--scalar", mode, "--matrices"]
       for alg in ("m2.json", "z3.json") for mode in ("gaussian", "float")]
    + [[cmd, "--complex", cx]
       for cx in ("circle_alpha_-1_N8.json", CIRCLE, CIRCLE_GRAM, CIRCLE_HERMITIAN,
                  TORUS_REAL, CUT_SMALL, CUT_MIXED, HUGE_SIGMA, CIRCLE_PRETTY,
                  CIRCLE_REAL_GRAM, CIRCLE_BRACKET_NAME, TINY_SIGMA, CIRCLE_REAL,
                  CIRCLE_REAL_DENSE, CIRCLE_REAL_HERMITIAN, CIRCLE_ZERO_SPELLINGS,
                  CIRCLE_ZERO_PARSED, CIRCLE_UNDERFLOW)
       for cmd in ("hodge", "torsion", "cs-partition")]
    + [["witten-sweep", "--model", model, "--phi", phi]
       for model in ("circle_leaves.json", "torus_leaves.json")
       for phi in ("cos-h", "random")]
    + [["witten-sweep", "--model", model, "--phi", "cos-hv"]
       for model in ("circle_leaves.json", TORUS_SCALED, TORUS_OBLONG)]
    + [["morse-scan", "--chart", chart] for chart in ("cos-h", "cubic-bd")]
    + [["gv", "--omega", omega, "--n", "32", "--derivative", derivative]
       for omega in ("sin-z", "dz") for derivative in ("spectral", "central")]
    + [["gv", "--omega", OMEGA]]
    + [["nc-report", "--algebra", M2_GAUSSIAN, "--nmax", "3", "--scalar", "gaussian",
        "--matrices"],
       ["spectral", "--algebra", M2_GAUSSIAN, "--nmax", "3", "--scalar", "gaussian"],
       ["nc-report", "--algebra", M2_GAUSSIAN, "--nmax", "3", "--scalar", "float",
        "--matrices"],
       ["nc-report", "--algebra", Z3_FLOAT, "--nmax", "3", "--scalar", "rational"]]
    + [["selftest", "--seed", "1"]]
    + [[cmd, "--algebra", alg, "--nmax", nmax, *flags]
       for alg, nmax in ((DUAL_PIVOT, "4"), (M2_PIVOT, "3"))
       for cmd, *flags in (("nc-report", "--matrices"), ("spectral",))]
)


def circle_json(n, alpha, gram=(1.0, 1.0)):
    """Twisted circle with n sites: D0 = shift - 1, holonomy alpha on the
    closing edge, entries as [re, im] pairs; Grams are scales of I."""
    d0 = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        d0[j][j] = [-1.0, 0.0]
        d0[j][(j + 1) % n] = [1.0, 0.0]
    d0[n - 1][0] = [alpha.real, alpha.imag]
    return {"name": f"circle-{n}", "dims": [n, n], "differentials": [d0],
            "gram": list(gram)}


def dumps_zeros_as(data, zeros):
    """``json.dumps(data)`` with each zero number written as the next of
    the iterator ``zeros`` and every other number as ``json.dumps`` writes it."""
    def encode(node):
        if isinstance(node, list):
            return "[" + ", ".join(map(encode, node)) + "]"
        if isinstance(node, dict):
            return "{" + ", ".join(f"{json.dumps(k)}: {encode(v)}" for k, v in node.items()) + "}"
        if type(node) in (int, float) and node == 0:
            return next(zeros)
        return json.dumps(node)

    return encode(data)


def hermitian_gram(n, phase):
    """Tridiagonal n x n Gram as [re, im] pairs: 2 on the diagonal and
    exp(i phase (j + 1)) / 2 at (j, j + 1), its conjugate at (j + 1, j);
    diagonally dominant, so positive definite."""
    gram = [[[0.0, 0.0] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        gram[j][j] = [2.0, 0.0]
    for j in range(n - 1):
        z = cmath.exp(1j * phase * (j + 1)) / 2
        gram[j][j + 1], gram[j + 1][j] = [z.real, z.imag], [z.real, -z.imag]
    return gram


def real_gram(n, off):
    """Tridiagonal n x n Gram as bare numbers: 2 on the diagonal and ``off``
    next to it; positive definite for |off| < 1."""
    return [[2.0 if i == j else off if abs(i - j) == 1 else 0.0 for j in range(n)]
            for i in range(n)]


def kms_gram(n, rho):
    """The dense n x n Kac-Murdock-Szego matrix rho^|i - j| as bare numbers;
    positive definite for |rho| < 1."""
    return [[rho ** abs(i - j) for j in range(n)] for i in range(n)]


def torus_json(nx, ny):
    """Cellular nx x ny torus with real differentials as bare numbers: d0
    as ints, d1 as floats; Grams null (identity), 2 and 1/2."""
    def vertex(i, j):
        return (i % nx) * ny + j % ny

    def edge(i, j, vertical):
        return 2 * vertex(i, j) + vertical

    n = nx * ny
    d0 = [[0] * n for _ in range(2 * n)]
    d1 = [[0.0] * (2 * n) for _ in range(n)]
    for i in range(nx):
        for j in range(ny):
            for vertical, head in ((0, vertex(i + 1, j)), (1, vertex(i, j + 1))):
                d0[edge(i, j, vertical)][vertex(i, j)] = -1
                d0[edge(i, j, vertical)][head] = 1
            face = d1[vertex(i, j)]
            face[edge(i, j, 0)] += 1.0
            face[edge(i + 1, j, 1)] += 1.0
            face[edge(i, j + 1, 0)] -= 1.0
            face[edge(i, j, 1)] -= 1.0
    return {"name": f"torus-{nx}x{ny}", "dims": [n, 2 * n, n],
            "differentials": [d0, d1], "gram": [None, 2, 0.5]}


def gradient_omega(n):
    """dg for g = z + sin(2 pi x) cos(2 pi (y + z)) / 10 on the n^3 grid: an
    integrable form constant along no grid axis."""
    two_pi = 2 * math.pi
    fields = {c: [[[0.0] * n for _ in range(n)] for _ in range(n)] for c in "xyz"}
    for i, j, k in itertools.product(range(n), repeat=3):
        x, s = two_pi * i / n, two_pi * (j + k) / n
        fields["x"][i][j][k] = two_pi * math.cos(x) * math.cos(s) / 10
        fields["y"][i][j][k] = -two_pi * math.sin(x) * math.sin(s) / 10
        fields["z"][i][j][k] = 1.0 - two_pi * math.sin(x) * math.sin(s) / 10
    return fields


def m2_gaussian(name="m2-gaussian", basis=("E11", "iE12", "E21/2", "E22"),
                scale=((1, 0), (1, 1), (Fraction(1, 2), 0), (1, 0))):
    """2x2 matrices in the basis f_a = r_a i**p_a E_a, with ``scale`` the
    pairs (r_a, p_a), stored gaussian: f_a f_b = (r_a r_b / r_m) i**(p_a + p_b
    - p_m) f_m when E_a E_b = E_m, and the unit E11 + E22 is f_0 / (r_0
    i**p_0) + f_3 / (r_3 i**p_3).  The default basis is (E11, i E12, E21/2,
    E22)."""
    words = [(1, 1), (1, 2), (2, 1), (2, 2)]
    scale = [(Fraction(r), p) for r, p in scale]

    def entry(r, p):
        re, im = [(r, 0), (0, r), (-r, 0), (0, -r)][p % 4]
        return [[Fraction(x).numerator, Fraction(x).denominator] for x in (re, im)]

    zero = entry(0, 0)
    mul = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    for a, (i, j) in enumerate(words):
        for b, (k, l) in enumerate(words):
            if j == k:
                m = words.index((i, l))
                (ra, pa), (rb, pb), (rm, pm) = scale[a], scale[b], scale[m]
                mul[a][b][m] = entry(ra * rb / rm, pa + pb - pm)
    unit = [entry(1 / scale[a][0], -scale[a][1]) if a in (0, 3) else zero for a in range(4)]
    return {"name": name, "dim": 4, "basis": list(basis),
            "scalars": "gaussian", "unit": unit, "mul": mul}


def m2_gaussian_pivot():
    """m2 stored gaussian in the basis (2i E11, E12, E21, E22): the unit's
    pivot coordinate is -i/2."""
    return m2_gaussian("m2-gaussian-pivot", ("2iE11", "E12", "E21", "E22"),
                       ((2, 1), (1, 0), (1, 0), (1, 0)))


def dual_numbers_pivot():
    """k[x]/(x^2) stored rational in the basis f = (2, x): f0 f0 = 2 f0,
    f0 f1 = f1 f0 = 2 f1, f1 f1 = 0, and the unit is f0 / 2, so its pivot
    coordinate is 1/2."""
    return {"name": "dual-numbers-pivot", "dim": 2, "basis": ["2", "x"],
            "scalars": "rational", "unit": [[1, 2], 0],
            "mul": [[[2, 0], [0, 2]], [[0, 2], [0, 0]]]}


def z3_float():
    """The group algebra of Z/3, stored float as [re, im] pairs."""
    mul = [[[[float((i + j) % 3 == k), 0.0] for k in range(3)] for j in range(3)]
           for i in range(3)]
    return {"name": "z3-float", "dim": 3, "basis": ["g0", "g1", "g2"],
            "scalars": "float", "unit": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "mul": mul}


def export(rev, dest: Path):
    """The tree of ``rev`` in ``dest``; ``None`` means the working tree."""
    if rev is None:
        return ROOT
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(tree: Path, argv, work: Path, out: Path):
    """(exit code, report bytes, stderr bytes) of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "-m", "nchodge.cli", *argv,
                           "--out", str(out)],
                          cwd=work, env=env, capture_output=True)
    return proc.returncode, out.read_bytes() if out.exists() else b"", proc.stderr


def first_difference(a, b, path=""):
    """(key path, value in a, value in b) at the first place two parsed JSON
    values differ, walking objects in key order and arrays by index; None
    when they are equal.  1 and 1.0 (or True) differ, as their bytes do."""
    if type(a) is not type(b):
        return path, a, b
    if isinstance(a, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return sub, a.get(key, "<absent>"), b.get(key, "<absent>")
            found = first_difference(a[key], b[key], sub)
            if found:
                return found
        return None if list(a) == list(b) else (path, list(a), list(b))
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        n = min(len(a), len(b))
        return None if len(a) == len(b) else (
            f"{path}[{n}]", a[n] if n < len(a) else "<absent>",
            b[n] if n < len(b) else "<absent>")
    return None if a == b or (a != a and b != b) else (path, a, b)


def largest_relative_difference(a, b, path=""):
    """(|x - y| / max(|x|, |y|), key path) over the float leaves that two
    parsed JSON values hold at the same place, the largest first met; None
    when they share no float leaf.  Equal leaves count as 0."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(a[k], b[k], f"{path}.{k}" if path else k) for k in a if k in b]
    elif isinstance(a, list) and isinstance(b, list):
        pairs = [(x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b))]
    elif type(a) is float and type(b) is float:
        scale = max(abs(a), abs(b))
        return (0.0 if a == b else abs(a - b) / scale if scale else math.inf), path
    else:
        return None
    found = [f for f in (largest_relative_difference(x, y, p) for x, y, p in pairs) if f]
    return max(found, key=lambda f: f[0], default=None)


def describe_difference(a: bytes, b: bytes):
    """Lines naming where two reports differ first and where their float
    leaves differ most, or None if they parse to the same JSON and differ
    only in their bytes' layout."""
    try:
        x, y = json.loads(a), json.loads(b)
    except ValueError:
        return "not both JSON reports"
    found = first_difference(x, y)
    if found is None:
        return None
    path, u, v = found
    lines = [f"first difference at {path or '(top level)'}: {u!r} vs {v!r}"]
    largest = largest_relative_difference(x, y)
    if largest is None or largest[0] == 0.0:
        lines.append("no float leaf differs")
    else:
        lines.append(f"largest relative float difference {largest[0]:.3g} "
                     f"at {largest[1] or '(top level)'}")
    return f"\n{'':8} ".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("head", nargs="?", help="git revision (default: "
                        "the working tree)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="nchodge-bytecheck-") as tmp:
        tmp = Path(tmp)
        work = tmp / "work"
        work.mkdir()
        (work / CIRCLE).write_text(json.dumps(circle_json(256, cmath.exp(0.7j))))
        (work / CIRCLE_GRAM).write_text(
            json.dumps(circle_json(64, cmath.exp(0.7j), gram=(2.0, 0.5))))
        hermitian = circle_json(32, cmath.exp(0.7j))
        hermitian["gram"] = [hermitian_gram(32, 0.3), hermitian_gram(32, 0.7)]
        (work / CIRCLE_HERMITIAN).write_text(json.dumps(hermitian))
        (work / TORUS_REAL).write_text(json.dumps(torus_json(5, 4)))
        (work / CIRCLE_PRETTY).write_bytes(json.dumps(
            circle_json(256, cmath.exp(0.7j)), indent=2).replace("\n", "\r\n").encode())
        real = circle_json(32, cmath.exp(0.7j))
        real["gram"] = [real_gram(32, 0.5), real_gram(32, -0.25)]
        (work / CIRCLE_REAL_GRAM).write_text(json.dumps(real))
        (work / CIRCLE_REAL).write_text(json.dumps(circle_json(256, -1.0 + 0j)))
        dense = circle_json(32, -1.0 + 0j)
        dense["gram"] = [kms_gram(32, 0.5), kms_gram(32, -0.3)]
        (work / CIRCLE_REAL_DENSE).write_text(json.dumps(dense))
        mixed = circle_json(32, -1.0 + 0j)
        mixed["gram"] = [hermitian_gram(32, 0.3), 1.0]
        (work / CIRCLE_REAL_HERMITIAN).write_text(json.dumps(mixed))
        spelt = circle_json(256, cmath.exp(0.7j))
        (work / CIRCLE_ZERO_SPELLINGS).write_text(
            dumps_zeros_as(spelt, itertools.cycle(["0", "-0", "0.0", "-0.0"])))
        (work / CIRCLE_ZERO_PARSED).write_text(
            dumps_zeros_as(spelt, itertools.chain(["0.00"], itertools.repeat("0.0"))))
        (work / CIRCLE_UNDERFLOW).write_text(
            json.dumps(circle_json(128, -1.0 + 0j, gram=(1.0, 8e-6))))
        named = circle_json(64, cmath.exp(0.7j))
        named["name"] = "circle[64]"
        (work / CIRCLE_BRACKET_NAME).write_text(json.dumps(named))
        for name, dims, diffs in (
                (CUT_SMALL, [2, 2], [[[1, 0], [0, 1e-6]]]),
                (CUT_MIXED, [1, 2, 1], [[[1], [0]], [[0, 1e6]]]),
                (HUGE_SIGMA, [2, 2], [[[1e200, 0], [0, 1]]]),
                (TINY_SIGMA, [1, 1], [[[1e-300]]])):
            (work / name).write_text(json.dumps({"dims": dims, "differentials": diffs}))
        (work / TORUS_SCALED).write_text(json.dumps({
            "name": "torus-leaves-scale-2", "leaf": {"type": "torus", "nx": 8, "ny": 8},
            "transversal": [{"v": 0.0, "weight": 0.3}, {"v": 0.5, "weight": 0.7}],
            "metric_scale": 2.0}))
        (work / TORUS_OBLONG).write_text(json.dumps({
            "name": "torus-leaves-5x7", "leaf": {"type": "torus", "nx": 5, "ny": 7},
            "transversal": [{"v": 0.0, "weight": 0.3}, {"v": 0.5, "weight": 0.7}]}))
        (work / OMEGA).write_text(json.dumps(gradient_omega(16)))
        (work / M2_GAUSSIAN).write_text(json.dumps(m2_gaussian()))
        (work / Z3_FLOAT).write_text(json.dumps(z3_float()))
        (work / DUAL_PIVOT).write_text(json.dumps(dual_numbers_pivot()))
        (work / M2_PIVOT).write_text(json.dumps(m2_gaussian_pivot()))
        trees = [export(args.base, tmp / "base"), export(args.head, tmp / "head")]
        differ = 0
        for argv in COMMANDS:
            t0 = time.perf_counter()
            (rc_a, a, err_a), (rc_b, b, err_b) = (run(tree, argv, work, work / "report.json")
                                                  for tree in trees)
            same = rc_a == rc_b and a == b and err_a == err_b and (rc_a or not err_a)
            differ += not same
            print(f"{'same' if same else 'DIFFERS':8} exit {rc_a}/{rc_b} "
                  f"{len(a):>8}/{len(b):<8} bytes  {time.perf_counter() - t0:6.2f}s  "
                  f"{' '.join(argv)}")
            if a != b:
                print(f"{'':8} {describe_difference(a, b) or 'same JSON, different layout'}")
            if err_a != err_b:
                print(f"{'':8} stderr: {describe_difference(err_a, err_b) or 'same JSON, different layout'}")
            elif err_a and not rc_a:
                print(f"{'':8} stderr on exit 0: {err_a[:200]!r}")
        print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands wrote "
              f"the same bytes at {args.base} and {args.head or 'the working tree'}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
