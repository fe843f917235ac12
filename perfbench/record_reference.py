"""Record the reference outputs of every catalog job into reference.json.

Run from the repository root as ``python3 perfbench/record_reference.py``.
The recorded outputs are what later commits are checked against, so record
only at a commit whose outputs are known good; re-recording to make a
changed output pass defeats the check. Jobs that fail while recording are
listed and nothing is written.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import build_models, run_job


def main() -> int:
    doc = {
        "format": 1,
        "note": "per catalog job: sha256 of the stdout text between numbers, and the "
        "numbers (zlib-compressed little-endian float64, base64)",
        "workloads": {},
    }
    failures = []
    for workload in ("landscape", "horizon", "censoring"):
        models = build_models(workload)
        entries = {}
        for jobs in workloads.catalog(workload).values():
            for job in jobs:
                _, stdout, error = run_job(job, models)
                if error is not None:
                    failures.append(f"{workload}: {job.key}: {error}")
                entries[job.key] = checks.reference_record(stdout)
        doc["workloads"][workload] = entries
        print(f"{workload}: {len(entries)} jobs", file=sys.stderr)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
