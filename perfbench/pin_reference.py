"""Pin the output summaries of the default seed's jobs in reference.json.

    python3 perfbench/pin_reference.py

run.py compares every job of the default seed against these values at
1e-9 relative.  Re-pin only when a change is meant to alter the program's
outputs or the job lists, and say so in the change.
"""

import json
import os
import sys
import tempfile

import run


def main() -> int:
    run.import_program()
    from bench_jobs import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, check_job, make_jobs, run_job

    reference = {}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
        for workload in WORKLOADS:
            entries = []
            for i, job in enumerate(make_jobs(workload, DEFAULT_SEED)):
                workdir = os.path.join(scratch, f"{workload}-{i}")
                os.mkdir(workdir)
                summary, reason = check_job(job, run_job(job, workdir))
                if reason:
                    print(f"error: {workload} job {i} {' '.join(job.argv)}: {reason}",
                          file=sys.stderr)
                    return 1
                entries.append({"argv": list(job.argv), "summary": summary})
            reference[workload] = entries
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"seed": DEFAULT_SEED, **reference}, handle, indent=1)
        handle.write("\n")
    print(f"pinned {sum(len(v) for v in reference.values())} jobs -> {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
