"""nchodge benchmark driver: closed loop, one client, in-process jobs.

    python3 perfbench/run.py --workload nc-exact-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/nchodge``.  One client
runs jobs back to back, each waiting for the previous one.  A run sets the
workload up several times (reporting the median set-up time), then runs
whole rounds of jobs until another round would overrun ``--seconds``
(at least two rounds).  Each job's output is checked before its time
counts.  Job times are scaled to a reference machine speed by calibration
slices run between jobs (see ``SpeedProbe``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record with the environment, the raw times and the
calibration goes to ``perfbench/out/``.

With ``--trace 1`` the run sets up once, runs one round untraced to fill
lazy caches, the same round untraced again as the baseline, and then
traced, and reports per-layer metrics; the spans and counters go to a
sidecar file next to the record.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import bisect
import gc
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "reference" / "references.json"

SETUP_REPEATS = 3
MIN_ROUNDS = 2
TAIL_GRID = (50.0, 75.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
TAIL_MIN_BEYOND = 10
# calibration (see SpeedProbe): CAL_REF_S is the median calibration time on
# the 2-core x86-64 box the benchmark was defined on, so reported times are
# seconds at that box's nominal speed
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 0.5
CAL_REF_S = 0.012
# a seed reserved for checking a claim after the change was written
HELD_OUT_SEED = 918273

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "peak_rss_mb": "MB",
}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def import_program():
    """Import nchodge from this checkout's ``src`` and nowhere else."""
    if not (SRC / "nchodge" / "__init__.py").is_file():
        fail(f"no nchodge sources under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import nchodge
    if Path(nchodge.__file__).resolve().parent != (SRC / "nchodge").resolve():
        fail(f"imported nchodge from {nchodge.__file__}, not from {SRC}")
    import workloads  # noqa: F401  (imports the package's modules)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "nchodge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(args):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "workload": args.workload,
            "seed": args.seed,
            "held_out": bool(args.held_out),
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": platform.machine()}


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(round_size, n_jobs):
    """Highest grid percentile with at least ten samples beyond it.  It is
    fixed per workload from the minimum run (two rounds), so it does not
    move with the number of rounds; a shorter run falls back to what its
    own job count allows."""
    n = min(MIN_ROUNDS * round_size, n_jobs)
    ok = [p for p in TAIL_GRID if n - math.ceil(p / 100.0 * n) >= TAIL_MIN_BEYOND]
    return max(ok) if ok else 50.0


def run_job(job, timed_call):
    """Run one job; returns (seconds, end time, failure reason or None)."""
    gc.collect()
    try:
        result, seconds = timed_call(job.run)
    except (Exception, SystemExit) as exc:  # any job crash is a failed job
        return None, None, f"raised {type(exc).__name__}: {exc}"
    finished = time.perf_counter()
    try:
        reason = job.check(result)
    except (Exception, SystemExit) as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    return seconds, finished, reason


def plain_timer(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


_CAL_MATRIX = None


def calibrate():
    """Seconds for a fixed slice of interpreter (``Fraction``) and LAPACK
    work that does not touch nchodge."""
    global _CAL_MATRIX
    import numpy as np
    if _CAL_MATRIX is None:
        a = np.random.default_rng(0).normal(size=(96, 96))
        _CAL_MATRIX = a + a.T
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    for _ in range(6):
        np.linalg.eigh(_CAL_MATRIX)
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration slices interleaved with the jobs.

    The speed of a small shared machine swings by up to 2x over seconds
    (other tenants share its cores).  Over a few seconds the swings scale
    job and calibration times alike; single jobs also jitter by about 20%
    that nothing tracks, which only more jobs average out.  A slice runs
    after every ``CAL_EVERY_S`` of job time; each job time is then scaled
    by ``CAL_REF_S`` over the mean of the slices within ``CAL_WINDOW_S``
    of the job, i.e. reported at the reference speed."""

    def __init__(self):
        self.samples = []      # (midpoint time, calibration seconds)
        self.pending = 0.0

    def after_job(self, seconds):
        self.pending += seconds
        if self.pending >= CAL_EVERY_S:
            gc.collect()
            t0 = time.perf_counter()
            cal = calibrate()
            self.samples.append((t0 + cal / 2, cal))
            self.pending = 0.0

    def _ensure_sample(self):
        if not self.samples:
            self.samples.append((time.perf_counter(), calibrate()))

    def local_factor(self, start, end):
        self._ensure_sample()
        mids = [t for t, _ in self.samples]
        lo = bisect.bisect_left(mids, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(mids, end + CAL_WINDOW_S)
        near = [c for _, c in self.samples[lo:hi]]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return CAL_REF_S / statistics.fmean(near)

    def run_factor(self):
        self._ensure_sample()
        return CAL_REF_S / statistics.fmean(c for _, c in self.samples)


def run_round(jobs, timed_call, done, failures, probe=None):
    """Run jobs in order; verified jobs go to ``done`` as
    (key, seconds, start, end)."""
    for job in jobs:
        seconds, finished, reason = run_job(job, timed_call)
        if reason is None:
            done.append((job.key, seconds, finished - seconds, finished))
        else:
            failures.append({"job": job.key, "reason": reason})
        if probe is not None and seconds is not None:
            probe.after_job(seconds)


def measure(workload, seconds, probe):
    """Whole rounds until another would overrun ``seconds``."""
    done, failures, round_sizes, round_s = [], [], [], []
    t0 = time.perf_counter()
    index = 0
    while True:
        jobs = workload.round(index)
        start = time.perf_counter()
        run_round(jobs, plain_timer, done, failures, probe)
        round_s.append(time.perf_counter() - start)
        round_sizes.append(len(jobs))
        index += 1
        elapsed = time.perf_counter() - t0
        if index >= MIN_ROUNDS and elapsed + statistics.mean(round_s) > seconds:
            break
    return done, failures, round_sizes, time.perf_counter() - t0


def timed_setup(workload):
    samples = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def timing_metrics(times, setup_s, pct):
    ordered = sorted(times)
    if not ordered:
        return {"setup_s": setup_s, "jobs_per_s": 0.0, "job_s_p50": 0.0,
                "job_s_tail": 0.0}
    return {"setup_s": setup_s,
            "jobs_per_s": len(ordered) / sum(ordered),
            "job_s_p50": statistics.median(ordered),
            "job_s_tail": percentile(ordered, pct)}


def end_to_end(args, workload, import_s):
    setup_samples = timed_setup(workload)
    probe = SpeedProbe()
    done, failures, round_sizes, wall = measure(workload, args.seconds, probe)
    attempted = len(done) + len(failures)
    pct = tail_percentile(round_sizes[0], len(done))
    setup_s = import_s + statistics.median(setup_samples)
    raw = timing_metrics([secs for _, secs, _, _ in done], setup_s, pct)
    scaled = [secs * probe.local_factor(start, end) for _, secs, start, end in done]
    run_factor = probe.run_factor()
    metrics = timing_metrics(scaled, setup_s * run_factor, pct)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024.0)
    detail = {"import_s": import_s, "setup_samples_s": setup_samples,
              "run_speed_factor": run_factor, "raw_metrics": raw,
              "calibration_samples": len(probe.samples),
              "rounds": len(round_sizes), "round_size": round_sizes[0],
              "measured_wall_s": wall, "jobs_verified": len(done),
              "failed_ratio": len(failures) / attempted,
              "tail_percentile": pct,
              "tail_samples_beyond": len(done) - math.ceil(pct / 100.0 * len(done)),
              "failures": failures[:50],
              "calibration": probe.samples,
              "jobs": [[key, secs, start, end, scaled_s] for
                       (key, secs, start, end), scaled_s in zip(done, scaled)]}
    return attempted, len(failures), metrics, END_TO_END, detail


def traced(args, workload, import_s):
    import tracer
    workload.setup()
    jobs = workload.round(0)
    probe = SpeedProbe()
    untraced, failures = [], []
    # the first pass fills lazy caches; the second is the untraced baseline
    run_round(jobs, plain_timer, [], failures)
    run_round(jobs, plain_timer, untraced, failures, probe)
    rec = tracer.Recorder()
    job_ids = iter(range(len(jobs)))
    traced_done = []
    rec.install()
    try:
        run_round(jobs, lambda fn: rec.run_job(next(job_ids), fn),
                  traced_done, failures, probe)
    finally:
        rec.uninstall()
    attempted = 3 * len(jobs)

    def scaled_total(done):
        return sum(secs * probe.local_factor(start, end)
                   for _, secs, start, end in done)

    traced_s = sum(secs for _, secs, _, _ in traced_done)
    untraced_s = scaled_total(untraced)
    overhead = scaled_total(traced_done) / untraced_s if untraced_s else 0.0
    metrics = tracer.layer_metrics(rec, traced_s, overhead)
    units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    sidecar = args.out_dir / f"{args.workload}-seed{args.seed}-trace.json"
    self_s, calls = rec.self_times()
    sidecar.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "jobs": [job.key for job in jobs],
        "span_fields": ["id", "parent", "job", "name", "start", "end", "self_s"],
        "spans": rec.spans,
        "counters": dict(rec.counters), "maxima": rec.maxima,
        "counters_unavailable": sorted(rec.unavailable),
        "bookkeeping_s": rec.overhead_s,
        "self_s_by_span": dict(sorted(self_s.items())),
        "calls_by_span": dict(sorted(calls.items())),
    }))
    detail = {"import_s": import_s, "round_size": len(jobs),
              "untraced_round_job_s": sum(secs for _, secs, _, _ in untraced),
              "traced_round_job_s": traced_s,
              "share_base_s": traced_s - rec.overhead_s,
              "trace_sidecar": str(sidecar.relative_to(ROOT)),
              "failures": failures[:50]}
    return attempted, len(failures), metrics, units, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} "
                             "instead of --seed")
    args = parser.parse_args(argv)
    if args.held_out:
        args.seed = HELD_OUT_SEED

    import_program()
    import workloads
    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    if not REFERENCES.is_file():
        fail(f"reference file {REFERENCES} is missing")
    references = json.loads(REFERENCES.read_text())

    args.out_dir = BENCH_DIR / "out"
    args.out_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.out_dir / args.workload, references)
    workload.out_dir.mkdir(exist_ok=True)

    env = environment(args)
    step = traced if args.trace else end_to_end
    attempted, failed, metrics, units, detail = step(args, workload, import_s)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "detail": detail,
                                  **result}, indent=1))
    print(json.dumps({"environment": env}))
    for item in detail.get("failures", [])[:10]:
        print(f"FAILED {item['job']}: {item['reason']}")
    print(f"result record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
