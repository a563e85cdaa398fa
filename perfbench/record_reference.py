"""Record the reference outputs the benchmark checks jobs against.

    python3 perfbench/record_reference.py

Run from a checkout root at the commit whose outputs are the reference.
It runs every ``nc-exact-cold`` job and stores the SHA-256 of each report,
and runs every float ``spectral`` job of ``float-classical-leafwise`` and
stores its integer fields (dims, ranks, eigenvalue multiplicities) after
checking them against an exact rational report of the same window.  The result
replaces ``perfbench/reference/references.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run  # pins BLAS threads before numpy loads


def main():
    run.import_program()
    import workloads as wl

    out_dir = run.BENCH_DIR / "out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = {"exact_digests": {}, "float_spectral": {}}
    cold = wl.ExactCold(0, out_dir, refs)
    cold.setup()
    exact_ints = {}

    def run_report(command, mode, variant, n_max):
        job = cold.job(command, mode, variant, n_max)
        if job.run() != 0:
            sys.exit(f"{job.key}: command failed")
        data = cold.job_out.read_bytes()
        report = json.loads(data)
        if report.get("passed") is not True:
            sys.exit(f"{job.key}: report says passed: false")
        if command == "spectral" and mode == "rational":
            exact_ints[(variant, n_max)] = wl.spectral_ints(report)
        print(job.key, flush=True)
        return job.key, data, report

    for command, mode, variant, n_max in wl.COLD_JOBS:
        key, data, _ = run_report(command, mode, variant, n_max)
        refs["exact_digests"][key] = hashlib.sha256(data).hexdigest()
    for variant, n_max in wl.FLOAT_SPECTRAL:
        if (variant, n_max) not in exact_ints:
            run_report("spectral", "rational", variant, n_max)
        key, _, report = run_report("spectral", "float", variant, n_max)
        ints = wl.spectral_ints(report)
        if ints != exact_ints[(variant, n_max)]:
            sys.exit(f"{key}: float report disagrees with the exact one")
        refs["float_spectral"][key] = ints
    refs["recorded_with"] = {"git_sha": run.git_sha(),
                             "source_sha256": run.source_digest()}
    path = run.REFERENCES
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs['exact_digests'])} digests and "
          f"{len(refs['float_spectral'])} float references to {path}")


if __name__ == "__main__":
    main()
