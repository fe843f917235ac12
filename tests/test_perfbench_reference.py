"""The benchmark's reference gate, replayed inside the test suite.

Every finite-horizon job the benchmark can draw (the whole ``horizon``
catalog and the ``landscape`` ``sweep:finite_n_ratio`` pool), every
``landscape`` job that reads the Bayes balance lam or lambda_bar (the
``sweep:lambda_bar`` and ``props-check`` pools), every other ``landscape``
sweep pool (``delta_bayes``, ``delta_fixed``, ``censor_gain``, ``in_B``),
each of which runs on the batched laws core, and every ``censoring`` job
on a named model through the CLI (the ``censor-path``, ``transitions``,
``sweep:beta`` and ``scenario`` pools), runs through
``belieflab.cli.run``, and its stdout must match the output recorded in
``perfbench/reference.json`` within ``checks.REL_TOL`` (1e-12), as the
benchmark itself checks it. The ``censoring`` pool of fresh tilt
parameters (1,024 jobs) is left to the benchmark. Only ``perfbench/checks.py`` and
``perfbench/workloads.py`` are imported; both use the standard library only.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

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


def _replay(workload: str, pool: str) -> None:
    reference = checks.load_reference(workload)
    jobs = workloads.catalog(workload)[pool]
    failures = []
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run(list(job.argv))
        reason = (
            checks.check_reference(reference.get(job.key), out.getvalue())
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
