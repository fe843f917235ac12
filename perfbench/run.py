"""belieflab benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable table goes to stderr and the full record, with
provenance and every job, to ``perfbench/results/``. See README.md in this
directory for the workloads and metrics.

This process only orchestrates: each setup probe and the measured run
itself happen in fresh ``worker.py`` processes, so the memory and set-up
figures are those of a process that imported nothing but belieflab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TAIL_LADDER = (90, 75, 50)  # the tail is the highest of these with ten jobs beyond it
RUN_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
}
# failed_frac is 0 on a correct run, so it is reported here and in the
# results file but is not one of the end-to-end metrics in BENCHMARK.json;
# the result line carries it as "failed" / "attempted".
RESULT_METRICS = ("setup_s", "work_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def _read_line(proc, buf: bytearray, deadline: float) -> bytes | None:
    """Next stdout line of ``proc``, or None at end of output or deadline."""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        left = deadline - perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return None
        buf += chunk
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line


def _spawn(args: list[str], deadline: float) -> tuple[float, list[bytes]]:
    """Start a worker; return its seconds from start to ``ready`` and its later lines."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, bufsize=0)
    try:
        buf = bytearray()
        line = _read_line(proc, buf, deadline)
        ready = perf_counter() - t0
        if line != b"ready":
            raise BenchError(f"worker did not get ready: {' '.join(args)}")
        lines = []
        while (line := _read_line(proc, buf, deadline)) is not None:
            lines.append(line)
        if proc.wait(timeout=max(1.0, deadline - perf_counter())) != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return ready, lines
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile of sorted values."""
    pos = (len(sorted_xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "belieflab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def end_to_end(jobs: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    latencies = sorted(j["latency_s"] for j in jobs)
    n = len(latencies)
    tail_q = next((q for q in TAIL_LADDER if n * (100 - q) / 100.0 >= 10), 50)
    failed = sum(1 for j in jobs if not j["ok"])
    return {
        "setup_s": {"value": statistics.median(setup), "samples": len(setup)},
        "work_per_s": {
            "value": sum(j["work"] for j in jobs) / sum(latencies),
            "samples": n,
        },
        "job_p50_s": {"value": percentile(latencies, 50), "samples": n},
        "job_tail_s": {"value": percentile(latencies, tail_q), "percentile": tail_q, "samples": n},
        "peak_rss_mb": {"value": peak_rss_mb, "samples": 1},
        "failed_frac": {"value": failed / n, "samples": n},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="belieflab benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "belieflab" / "__init__.py").is_file():
        print(f"error: no belieflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(_spawn([*worker_args, "--probe"], deadline)[0])
            worker_args += ["--seconds", str(args.seconds)]
        else:
            worker_args += ["--spans", str(results_dir / f"spans-{stem}.tsv.gz")]
        ready, lines = _spawn(worker_args, deadline)
        setup.append(ready)
        if not lines:
            raise BenchError("worker printed no summary")
        summary = json.loads(lines[-1])
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = summary["jobs"]
    if not jobs:
        print("error: no job ran", file=sys.stderr)
        return 2
    e2e = end_to_end(jobs, setup, summary["peak_rss_mb"])
    for name, unit in UNITS.items():
        e2e[name]["unit"] = unit
    failed = sum(1 for j in jobs if not j["ok"])
    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {k: {"value": e2e[k]["value"], "unit": UNITS[k]} for k in RESULT_METRICS}
    record = {
        "provenance": {
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "jobs": len(jobs),
            "setup_samples": len(setup),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            **summary["environment"],
        },
        "end_to_end": e2e,
        "per_layer": summary.get("per_layer"),
        "trace": {k: summary[k] for k in ("traced_wall_s", "untraced_wall_s", "spans") if k in summary},
        "repeat_frac": _repeat_frac(jobs),
        "jobs": jobs,
    }
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    shown = summary["per_layer"] if args.trace else e2e
    for name, m in shown.items():
        print(f"{name:45s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    for j in jobs:
        if not j["ok"]:
            print(f"FAILED job {j['id']} ({j['key']}): {j['error']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


def _repeat_frac(jobs: list[dict]) -> float:
    """Share of jobs whose exact input already ran earlier in the run."""
    seen = set()
    repeats = 0
    for j in jobs:
        repeats += j["key"] in seen
        seen.add(j["key"])
    return repeats / len(jobs)


if __name__ == "__main__":
    sys.exit(main())
