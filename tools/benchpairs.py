"""Benchmark a git revision against the working tree in alternating pairs.

    python tools/benchpairs.py BASE --out BENCH_<n>.json

The tree of BASE is exported with ``git archive`` into a temporary
directory (nothing is checked out in, or registered with, this repository),
as ``tools/bytecheck.py`` does.  For every workload of ``BENCHMARK.json``
and each of seeds 1-10 and the held-out seed of ``perfbench/run.py``, that
script runs once in the export and once in this checkout, each in a fresh
interpreter and for its default run length, the side that goes first
alternating from pair to pair so that a drift in machine speed falls on
both sides alike.

The output JSON holds both git shas (and a digest of the working tree's
uncommitted diff against HEAD), nproc, the seeds and, per workload
and end-to-end metric of ``BENCHMARK.json``, the median, quartiles and
IQR of each side, every pair's values, and in how many pairs the working
tree was better.  A run that reports ``correct: false`` is kept and
counted under ``incorrect_runs``.  The exit status is 0 when every run was
correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from bytecheck import export  # noqa: E402


def git_sha(rev):
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload, seed):
    """The last stdout line of one ``perfbench/run.py`` run, as a dict."""
    seed_args = ["--held-out"] if seed == "held-out" else ["--seed", str(seed)]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           *seed_args], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed in {tree} ({workload}, seed {seed}):\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Median, quartiles and IQR of a list of numbers."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs, metrics):
    out = {}
    for name, better in metrics.items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("base", "head")}
        wins = sum((h > b) if better == "higher" else (h < b)
                   for b, h in zip(sides["base"], sides["head"]))
        out[name] = {"better": better, "head_wins": wins, "pairs": len(pairs),
                     **{side: {**spread(vals), "values": vals}
                        for side, vals in sides.items()}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [*range(1, 11), "held-out"]
    diff = subprocess.run(["git", "-C", str(ROOT), "diff", "HEAD"], check=True,
                          capture_output=True).stdout
    result = {"base": {"rev": args.base, "sha": git_sha(args.base)},
              # the working tree: HEAD plus the uncommitted diff, if any
              "head": {"sha": git_sha("HEAD"),
                       "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None},
              "nproc": os.cpu_count(), "seeds": seeds,
              "workloads": {}}
    incorrect = 0
    with tempfile.TemporaryDirectory(prefix="nchodge-benchpairs-") as tmp:
        trees = {"base": export(args.base, Path(tmp) / "base"), "head": ROOT}
        for workload in [w["name"] for w in spec["workloads"]]:
            pairs = []
            for i, seed in enumerate(seeds):
                pair = {"seed": seed}
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    pair[side] = run_once(trees[side], workload, seed)
                    incorrect += pair[side]["correct"] is not True
                pairs.append(pair)
                jobs = {side: round(pair[side]["metrics"]["jobs_per_s"]["value"], 1)
                        for side in ("base", "head")}
                print(f"{workload} seed {seed}: jobs/s base {jobs['base']} "
                      f"head {jobs['head']}", flush=True)
            result["workloads"][workload] = {"metrics": summarize(pairs, metrics),
                                             "runs": pairs}
    result["incorrect_runs"] = incorrect
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
