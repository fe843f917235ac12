"""The benchmark's reference gate, replayed inside the test suite.

Every finite-horizon job the benchmark can draw (the whole ``horizon``
catalog and the ``landscape`` ``sweep:finite_n_ratio`` pool), every
``landscape`` job that reads the Bayes balance lam or lambda_bar (the
``sweep:lambda_bar`` and ``props-check`` pools), every other ``landscape``
sweep pool (``delta_bayes``, ``delta_fixed``, ``censor_gain``, ``in_B``),
each of which runs on the batched laws core, and every ``censoring`` CLI
job (the ``censor-path``, ``transitions``, ``sweep:beta`` and ``scenario``
pools on named models, and the ``fresh-tilt`` pool of 1,024 jobs on fresh
tilt parameters, no two on one model), runs through ``belieflab.cli.run``,
and its stdout must match the output recorded in
``perfbench/reference.json`` within ``checks.REL_TOL`` (1e-12), as the
benchmark itself checks it. The ``censoring`` ``grid_argmax`` pool is a
library call: its problems are built and its table printed as
``perfbench/worker.py`` builds and prints them. Only
``perfbench/checks.py`` and ``perfbench/workloads.py`` are imported; both
use the standard library only.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import belieflab as bl
from belieflab.cli import run

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", _PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


def argmax_problems(name: str) -> list[tuple]:
    """The ``workloads.ARGMAX_PROBLEMS`` set ``name`` as (model, spec, weight)
    triples, built as ``perfbench/worker.py`` builds them."""
    models = {
        "tilt": bl.tilt_model(1.0),
        "asymmetric_tilt": bl.asymmetric_tilt_model(),
        "lunar": bl.lunar_model(),
        "illusory": bl.illusory_model(alpha=2.0, r=0.1, q=0.05),
        "coin": bl.coin_model(0.7, 0.8, 1),
    }
    return [
        (models[model], bl.ProblemSpec(pi, gamma, bl.PriorModel(pi / (1.0 - pi), sigma), K), w)
        for model, pi, gamma, sigma, K, w in workloads.ARGMAX_PROBLEMS[name]
    ]


def _cli(job) -> tuple[int, str]:
    """(exit code, stdout) of a CLI job."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(job.argv))
    return code, out.getvalue()


def _grid_argmax(job) -> tuple[int, str]:
    """(0, stdout) of a ``grid_argmax`` job, printed as ``perfbench/worker.py`` prints it."""
    call = job.call
    problems = argmax_problems(call["problems"])
    result = bl.grid_argmax(problems, call["betas"], call["ds"], call["lam"])
    lines = ["beta,d,value"]
    lines += [f"{r['beta']:.17g},{r['d']:.17g},{r['value']:.17g}" for r in result.table]
    lines.append(f"best,{result.beta:.17g},{result.d:.17g},{result.value:.17g}")
    return 0, "\n".join(lines) + "\n"


def _replay(workload: str, pool: str, execute=_cli) -> None:
    reference = checks.load_reference(workload)
    jobs = workloads.catalog(workload)[pool]
    failures = []
    for job in jobs:
        code, stdout = execute(job)
        reason = (
            checks.check_reference(reference.get(job.key), stdout)
            if code == 0
            else f"exit code {code}"
        )
        if reason is not None:
            failures.append(f"{job.key}: {reason}")
    assert jobs and not failures, "\n".join(failures)


@pytest.mark.parametrize("workload", ["horizon", "landscape"])
def test_finite_n_jobs_match_the_recorded_reference(workload):
    _replay(workload, "sweep:finite_n_ratio")


@pytest.mark.parametrize("pool", ["sweep:lambda_bar", "props-check"])
def test_balance_jobs_match_the_recorded_reference(pool):
    _replay("landscape", pool)


@pytest.mark.parametrize(
    "pool", ["sweep:delta_bayes", "sweep:delta_fixed", "sweep:censor_gain", "sweep:in_B"]
)
def test_landscape_sweep_jobs_match_the_recorded_reference(pool):
    _replay("landscape", pool)


@pytest.mark.parametrize("pool", ["censor-path", "transitions", "sweep:beta", "scenario"])
def test_named_model_censoring_jobs_match_the_recorded_reference(pool):
    _replay("censoring", pool)


def test_grid_argmax_jobs_match_the_recorded_reference():
    _replay("censoring", "grid_argmax", _grid_argmax)


def test_fresh_tilt_jobs_match_the_recorded_reference():
    _replay("censoring", "fresh-tilt")
