"""Benchmark process: set up, run the job loop, report as one JSON line.

``run.py`` starts this script as a fresh process for every setup probe and
for every measured run; it is not meant to be started by hand. It imports
belieflab from the ``src`` directory of the checkout it lives in, prints
``ready`` once the import and the workload's models are built, runs its
jobs in a closed loop (one client, no think time, the next job only after
the previous one returned) and prints a JSON summary as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import belieflab  # noqa: E402
import belieflab.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

if Path(belieflab.__file__).resolve().parent != ROOT / "src" / "belieflab":
    raise SystemExit(f"belieflab imported from {belieflab.__file__}, not from this checkout")


def build_models(workload: str) -> dict:
    """The named models a workload's library calls and closed-form checks use."""
    bl = belieflab
    if workload in ("landscape", "horizon"):
        return {}
    models = {
        "tilt": bl.tilt_model(1.0),
        "asymmetric_tilt": bl.asymmetric_tilt_model(),
        "lunar": bl.lunar_model(),
        "illusory": bl.illusory_model(alpha=2.0, r=0.1, q=0.05),
        "coin": bl.coin_model(0.7, 0.8, 1),
    }
    if workload == "oracle":
        models["autocorr10"], _ = bl.autocorr_model(draws=10)
        return models
    for name, problems in workloads.ARGMAX_PROBLEMS.items():
        models[name] = [
            (
                models[model],
                bl.ProblemSpec(pi, gamma, bl.PriorModel(pi / (1.0 - pi), sigma), K),
                weight,
            )
            for model, pi, gamma, sigma, K, weight in problems
        ]
    return models


def _fmt(x: float) -> str:
    return format(x, ".17g")


def run_job(job, models: dict) -> tuple[float, str, str | None]:
    """(latency in seconds, stdout, error or None) of one job."""
    buf = io.StringIO()
    error = None
    if job.argv:
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = belieflab.cli.run(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failing job is counted, the loop goes on
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if error is None and code not in (0, None):
            error = f"exit code {code!r}"
        return t1 - t0, buf.getvalue(), error
    call = job.call
    t0 = perf_counter()
    try:
        result = belieflab.grid_argmax(models[call["problems"]], call["betas"], call["ds"], call["lam"])
    except Exception as exc:
        return perf_counter() - t0, "", f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    lines = ["beta,d,value"]
    lines += [f"{_fmt(r['beta'])},{_fmt(r['d'])},{_fmt(r['value'])}" for r in result.table]
    lines.append(f"best,{_fmt(result.beta)},{_fmt(result.d)},{_fmt(result.value)}")
    return t1 - t0, "\n".join(lines) + "\n", None


# Lines of output that are not result rows: CSV and table headers, the
# grid_argmax best line. transitions prints one kernel as JSON.
_NON_ROWS = {"sweep": 1, "censor-path": 1, "scenario": 1, "grid_argmax": 2, "props-check": 0}


def job_work(job, stdout: str) -> int:
    """Output rows of an analytic job, agent-signal steps of an oracle job."""
    if job.oracle is not None:
        return job.steps
    command = job.argv[0] if job.argv else "grid_argmax"
    if command == "transitions":
        return 1
    return stdout.count("\n") - _NON_ROWS[command]


class Runner:
    def __init__(self, workload: str, models: dict):
        self.workload = workload
        self.models = models
        self.reference = checks.load_reference(workload) if workload != "oracle" else {}

    def execute(self, job_id: int, job, check: bool = True) -> dict:
        latency, stdout, error = run_job(job, self.models)
        digest = checks.sha256(stdout)
        if error is None and check:
            if job.oracle is not None:
                error = checks.check_oracle(belieflab, self.models, job, stdout)
            else:
                error = checks.check_reference(self.reference.get(job.key), stdout)
        return {
            "id": job_id,
            "kind": job.kind,
            "key": job.key,
            "shared": job.shared,
            "latency_s": latency,
            "work": job_work(job, stdout) if error is None else 0,
            "ok": error is None,
            "error": error,
            "stdout_sha256": digest,
        }


def _environment() -> dict:
    import numpy

    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "thread_env": {
            k: os.environ.get(k)
            for k in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS",
            )
        },
    }
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        env["blas"] = None
    return env


def timed_loop(runner: Runner, seed: int, seconds: float) -> dict:
    jobs = []
    stream = workloads.stream(runner.workload, seed)
    deadline = perf_counter() + seconds
    for job_id, job in enumerate(stream):
        if perf_counter() >= deadline:
            break
        jobs.append(runner.execute(job_id, job))
    return {"jobs": jobs}


def traced_loop(runner: Runner, seed: int, spans_path: str) -> dict:
    from tracer import Tracer

    stream = workloads.stream(runner.workload, seed)
    todo = [next(stream) for _ in range(workloads.TRACE_JOBS[runner.workload])]
    jobs = [runner.execute(i, job) for i, job in enumerate(todo)]
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        for i, job in enumerate(todo):
            tracer.job = i
            traced.append(runner.execute(i, job, check=False))
            tracer.job = -1
    finally:
        tracer.uninstall()
    for plain, rec in zip(jobs, traced):
        if plain["ok"] and rec["stdout_sha256"] != plain["stdout_sha256"]:
            plain["ok"] = False
            plain["work"] = 0
            plain["error"] = "traced output differs from untraced output"
    untraced_wall = sum(r["latency_s"] for r in jobs)
    traced_wall = sum(r["latency_s"] for r in traced)
    tracer.write_spans(spans_path)
    return {
        "jobs": jobs,
        "per_layer": tracer.report(traced_wall, untraced_wall),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(tracer.span_fn),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--probe", action="store_true", help="exit right after setup")
    ap.add_argument("--spans", default=None, help="traced run: where to write the spans")
    args = ap.parse_args()

    models = build_models(args.workload)
    print("ready", flush=True)
    if args.probe:
        return
    runner = Runner(args.workload, models)
    if args.spans:
        summary = traced_loop(runner, args.seed, args.spans)
    else:
        summary = timed_loop(runner, args.seed, args.seconds)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["environment"] = _environment()
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
