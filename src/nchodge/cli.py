"""Command line entry points.

    nchodge <command> [options]

Reports are JSON (stdout by default, ``--out`` for a file); most commands
can also emit a flat CSV table with ``--csv``.  Exit codes: 0 on success,
1 for input problems (bad file, unknown name, malformed JSON) and for any
other unexpected error (``cli/InternalError``), 2 when the computation ran
but an invariant check failed -- in that case the report is still written
so the failure can be inspected.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import reporting
from .algebra import BUILTIN_ALGEBRAS, builtin_algebra, load_algebra
from .errors import InputError, NCHodgeError
from .foliation import (BUILTIN_MODELS, DEFAULT_TAUS, PHI_PROFILES,
                        builtin_model, load_model, model_to_json,
                        random_smooth_phi, witten_betti_sweep)
from .forms import (FLOAT_IDENTITY_TOL, build_window, operator_matrices,
                    window_identity_residuals)
from .gv import BUILTIN_OMEGAS, DERIVATIVES, gv_report
from .hodge import (abelian_cs_partition, complex_source, hodge_package,
                    laplacian_spectra, load_complex, rs_torsion)
from .morse import BUILTIN_CHARTS, builtin_chart, morse_scan
from .scalars import MODES, RATIONAL
from .selftest import run_all
from .spectral import spectral_report


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; 2 is reserved for invariant
    # failures here, so route usage errors to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # argparse hands a subcommand's leftover arguments up to the top-level
    # parser; reject them here, under the subcommand's own usage line
    def parse_known_args(self, args=None, namespace=None):
        parsed, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return parsed, extras


def _bundled(name):
    candidate = resources.files("nchodge").joinpath("data", name)
    if candidate.is_file():
        return candidate
    if not name.endswith(".json"):
        candidate = resources.files("nchodge").joinpath("data", name + ".json")
        if candidate.is_file():
            return candidate
    return None


def _bundled_names():
    root = resources.files("nchodge").joinpath("data")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def _source_text(value, what):
    """The text and stem of a CLI file argument: real path first, then
    bundled data."""
    path = Path(value)
    if path.is_file():
        return path.read_text(), path.stem
    found = _bundled(value)
    if found is None:
        raise InputError(
            f"cannot find {what} {value!r}: neither a file nor bundled data",
            available=_bundled_names())
    return found.read_text(), Path(found.name).stem


def _json_object(data, value, what):
    """``data``, which must be a JSON object."""
    if not isinstance(data, dict):
        raise InputError(f"{what} {value!r} must hold a JSON object, "
                         f"not {type(data).__name__}")
    return data


def _load_json_source(value, what):
    """Resolve and parse a CLI file argument, whose JSON top level must be an
    object."""
    text, stem = _source_text(value, what)
    return _json_object(json.loads(text), value, what), stem


def _algebra_arg(value, scalar_mode):
    """A stock algebra (rational unless ``scalar_mode`` says otherwise) or
    a file, in its stored mode unless ``scalar_mode`` overrides it."""
    if value in BUILTIN_ALGEBRAS:
        return builtin_algebra(value, scalar_mode or RATIONAL)
    data, stem = _load_json_source(value, "algebra")
    data.setdefault("name", stem)
    return load_algebra(data, scalar_mode)


def _complex_arg(value):
    # as _load_json_source, with the float matrices read in bulk when proven safe
    text, stem = _source_text(value, "complex")
    data = _json_object(complex_source(text), value, "complex")
    data.setdefault("name", stem)
    return load_complex(data)


def _model_arg(value):
    if value in BUILTIN_MODELS:
        return builtin_model(value)
    data, stem = _load_json_source(value, "model")
    data.setdefault("name", stem)
    return load_model(data)


def _parse_taus(values):
    if not values:
        return DEFAULT_TAUS
    taus = []
    for chunk in values:
        for part in str(chunk).split(","):
            part = part.strip()
            if part:
                taus.append(float(part))
    if not taus:
        raise InputError("no usable tau values given")
    return tuple(taus)


def _emit(args, report):
    out = getattr(args, "out", None)
    if out:
        reporting.write_json(out, report)
        print(f"report written to {out}")
    else:
        sys.stdout.write(reporting.json_bytes(report).decode())


def _emit_csv(args, table):
    path = getattr(args, "csv", None)
    if path and table:
        rows, fieldnames = table
        reporting.write_csv(path, rows, fieldnames)
        print(f"table written to {path}")


def _emit_error(entry):
    payload = {"schema": reporting.SCHEMA_VERSION, "kind": "error", **entry}
    sys.stderr.write(reporting.json_bytes(payload).decode())


# -- command handlers: return (report, passed, csv table or None) ------------

def _cmd_nc_report(args):
    algebra = _algebra_arg(args.algebra, args.scalar)
    window = build_window(algebra, args.nmax)
    residuals = window_identity_residuals(window)
    identities = {
        key: [{"degree": d, "exact_zero": flag, "max_abs": val}
              for d, flag, val in rows]
        for key, rows in residuals.items()}
    ok = all(flag if window.field.exact else val < FLOAT_IDENTITY_TOL
             for rows in residuals.values() for _, flag, val in rows)
    body = {"algebra": algebra.name,
            "scalars": algebra.field.mode,
            "n_max": args.nmax,
            "degree_dims": list(window.degree_dims),
            "identities": identities,
            "passed": ok}
    if max(window.degree_dims) <= 48:
        body["basis_labels"] = {
            str(n): [window.word_label(wrd) for wrd in window.bases[n]]
            for n in range(args.nmax + 1)}
    if args.matrices or max(window.degree_dims) <= 12:
        ops = operator_matrices(window)
        body["matrices"] = {
            opname: {str(n): window.field.matrix_to_json(block)
                     for n, block in ops[opname].blocks.items()}
            for opname in ("d", "b", "k")}
    csv_rows = [{"identity": key, "degree": r["degree"],
                 "exact_zero": r["exact_zero"], "max_abs": r["max_abs"]}
                for key, rows in identities.items() for r in rows]
    table = (csv_rows, ["identity", "degree", "exact_zero", "max_abs"])
    return reporting.make_report("nc-report", body), ok, table


def _cmd_spectral(args):
    algebra = _algebra_arg(args.algebra, args.scalar)
    window = build_window(algebra, args.nmax)
    rep = spectral_report(window)
    rows = [{"degree": r["degree"], "dim": r["dim"], "rank_P": r["rank_P"],
             "rank_one_minus_k_squared": r["rank_one_minus_k_squared"],
             "rank_split_ok": r["rank_split_ok"], "crt_vs_eig": r["crt_vs_eig"],
             "passed": r["passed"]} for r in rep["degrees"]]
    table = (rows, ["degree", "dim", "rank_P", "rank_one_minus_k_squared",
                    "rank_split_ok", "crt_vs_eig", "passed"])
    return reporting.make_report("spectral", rep), rep["passed"], table


def _cmd_hodge(args):
    cx = _complex_arg(args.complex)
    body = hodge_package(cx)
    rows = [{"degree": k, "dim": body["dims"][k], "betti": body["betti"][k],
             "det_prime": body["det_prime"][k]}
            for k in range(len(body["dims"]))]
    table = (rows, ["degree", "dim", "betti", "det_prime"])
    return reporting.make_report("hodge", body), True, table


def _cmd_torsion(args):
    cx = _complex_arg(args.complex)
    body = rs_torsion(cx)
    body["name"] = cx.name
    body["dims"] = list(cx.dims)
    spectra = laplacian_spectra(cx)
    body["spectra"] = [[float(v) for v in s] for s in spectra]
    if args.out:
        print(f"log torsion {body['log_torsion']:.12g}, "
              f"torsion {body['torsion']:.12g}")
    rows = [{"degree": k, "index": i, "eigenvalue": float(v)}
            for k, s in enumerate(spectra) for i, v in enumerate(s)]
    table = (rows, ["degree", "index", "eigenvalue"])
    return reporting.make_report("torsion", body), True, table


def _cmd_cs_partition(args):
    cx = _complex_arg(args.complex)
    body = abelian_cs_partition(cx)
    body["name"] = cx.name
    if args.out:
        print(f"log Z {body['log_Z']:.12g}, Z {body['Z']:.12g}")
    rows = [{"degree": k, "det_prime": body["det_prime"][k],
             "log_det_prime": body["log_det_prime"][k]} for k in (0, 1)]
    table = (rows, ["degree", "det_prime", "log_det_prime"])
    return reporting.make_report("cs-partition", body), True, table


def _cmd_witten_sweep(args):
    model = _model_arg(args.model)
    if args.phi == "random":
        phi = random_smooth_phi(np.random.default_rng(args.seed))
    elif args.phi in PHI_PROFILES:
        phi = args.phi
    else:
        raise InputError(f"unknown phi profile {args.phi!r}", name=args.phi,
                         available=sorted(PHI_PROFILES) + ["random"])
    taus = _parse_taus(args.tau)
    rep = witten_betti_sweep(model, phi, taus)
    rep["model_spec"] = model_to_json(model)
    rows = [{"tau": r["tau"], "betti": r["betti"],
             "matches_base": r["matches_base"],
             "intertwiner_ranks": r["intertwiner_ranks"],
             "ranks_ok": r["intertwiner_ranks_ok"]} for r in rep["rows"]]
    table = (rows, ["tau", "betti", "matches_base", "intertwiner_ranks",
                    "ranks_ok"])
    return reporting.make_report("witten-sweep", rep), rep["passed"], table


def _cmd_morse_scan(args):
    rep = morse_scan(builtin_chart(args.chart), n_h=args.n_h, n_v=args.n_v)
    rows = [{"index": f["index"], "h_mean": f["h_mean"], "h_min": f["h_min"],
             "h_max": f["h_max"], "v_first": f["v_first"],
             "v_last": f["v_last"], "count": f["count"]}
            for f in rep["families"]]
    table = (rows, ["index", "h_mean", "h_min", "h_max", "v_first", "v_last",
                    "count"])
    return reporting.make_report("morse-scan", rep), rep["passed"], table


def _cmd_gv(args):
    source = args.omega
    if source not in BUILTIN_OMEGAS:
        source, _ = _load_json_source(source, "defining form")
    rep = gv_report(source, n=args.n, derivative=args.derivative)
    rows = [{"omega": rep["omega"], "n": rep["n"], "gv": rep["gv"],
             "integrability_max_abs": rep["integrability_max_abs"],
             "gauge_residual": rep["gauge_residual"], "passed": rep["passed"]}]
    table = (rows, ["omega", "n", "gv", "integrability_max_abs",
                    "gauge_residual", "passed"])
    return reporting.make_report("gv", rep), rep["passed"], table


def _cmd_selftest(args):
    report, lines, _total = run_all(args.seed)
    for line in lines:
        print(line)
    if args.out:
        reporting.write_json(args.out, report)
        print(f"report written to {args.out}")
    rows = [{"id": r["id"], "name": r["name"], "passed": r["passed"],
             "headline": r["headline"]} for r in report["criteria"]]
    _emit_csv(args, (rows, ["id", "name", "passed", "headline"]))
    return report, report["passed"], None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nchodge",
                     description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_algebra_flags(p):
        p.add_argument("--algebra", required=True,
                       help="stock algebra name (%s) or JSON file"
                            % ", ".join(sorted(BUILTIN_ALGEBRAS)))
        p.add_argument("--nmax", type=int, default=4,
                       help="top form degree of the window (default 4)")
        p.add_argument("--scalar", choices=list(MODES),
                       help="scalar mode (default: the file's stored mode; "
                            "rational for a stock algebra)")

    def add_output_flags(p):
        p.add_argument("--out", help="write the JSON report here "
                                     "instead of stdout")
        p.add_argument("--csv", help="also write a flat CSV table here")

    p = sub.add_parser("nc-report", help="window dimensions, basis labels, "
                       "operator identities (and small matrices)")
    add_algebra_flags(p)
    p.add_argument("--matrices", action="store_true",
                   help="include operator matrices regardless of size")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_nc_report)

    p = sub.add_parser("spectral", help="harmonic projection, Green's "
                       "operator, and the full per-degree invariant report")
    add_algebra_flags(p)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("hodge", help="Betti numbers, spectra, and "
                       "determinants of a finite cochain complex")
    p.add_argument("--complex", required=True, help="complex JSON file "
                   "or bundled name")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_hodge)

    p = sub.add_parser("torsion", help="analytic torsion from the "
                       "Laplacian spectra")
    p.add_argument("--complex", required=True)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_torsion)

    p = sub.add_parser("cs-partition", help="abelian Chern-Simons one-loop "
                       "partition function from degrees 0 and 1")
    p.add_argument("--complex", required=True)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_cs_partition)

    p = sub.add_parser("witten-sweep", help="deformed Betti numbers and "
                       "intertwiner ranks across a tau sweep")
    p.add_argument("--model", required=True,
                   help="model name (%s) or JSON file"
                        % ", ".join(sorted(BUILTIN_MODELS)))
    p.add_argument("--phi", default="cos-h",
                   help="leaf function: %s, or 'random' (seeded)"
                        % ", ".join(sorted(PHI_PROFILES)))
    p.add_argument("--tau", action="append",
                   help="tau values, repeatable or comma separated "
                        "(default %s)" % ",".join(f"{t:g}" for t in DEFAULT_TAUS))
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_witten_sweep)

    p = sub.add_parser("morse-scan", help="critical point families and "
                       "degeneracies of a leaf chart")
    p.add_argument("--chart", default="cos-h",
                   help="chart name: %s" % ", ".join(sorted(BUILTIN_CHARTS)))
    p.add_argument("--n-h", type=int, default=256)
    p.add_argument("--n-v", type=int, default=33)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_morse_scan)

    p = sub.add_parser("gv", help="Godbillon-Vey quadrature for a "
                       "defining 1-form on the 3-torus grid")
    p.add_argument("--omega", default="sin-z",
                   help="%s, or a JSON file with x/y/z fields"
                        % ", ".join(sorted(BUILTIN_OMEGAS)))
    p.add_argument("--n", type=int, default=32, help="grid points per axis")
    p.add_argument("--derivative", choices=tuple(DERIVATIVES),
                   default="spectral")
    add_output_flags(p)
    p.set_defaults(handler=_cmd_gv)

    p = sub.add_parser("selftest", help="run the full invariant suite and "
                       "print a pass/fail table")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(handler=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser takes milliseconds, a sizeable share of a small
    # command; parse_args leaves it unchanged, so one serves every main call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report, ok, table = args.handler(args)
        if args.handler is not _cmd_selftest:
            _emit(args, report)
            _emit_csv(args, table)
    except NCHodgeError as exc:
        _emit_error(exc.report_entry())
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _emit_error({"code": "cli/InputError", "message": str(exc),
                     "context": {}})
        return 1
    except AssertionError as exc:
        # invariant failure mid-computation: still write what we know
        report = reporting.make_report("invariant-failure", {
            "command": args.command, "error": str(exc), "passed": False})
        _emit(args, report)
        return 2
    except Exception as exc:
        _emit_error({"code": "cli/InternalError", "message": str(exc),
                     "context": {"exception": type(exc).__name__}})
        return 1
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
