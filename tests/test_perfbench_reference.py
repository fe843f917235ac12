"""The benchmark's reference gate, replayed inside the test suite.

Every finite-horizon job the benchmark can draw (the whole ``horizon``
catalog and the ``landscape`` ``sweep:finite_n_ratio`` pool) runs through
``belieflab.cli.run``, and its stdout must match the output recorded in
``perfbench/reference.json`` within ``checks.REL_TOL`` (1e-12), as the
benchmark itself checks it. Only ``perfbench/checks.py`` and
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


@pytest.mark.parametrize("workload", ["horizon", "landscape"])
def test_finite_n_jobs_match_the_recorded_reference(workload):
    reference = checks.load_reference(workload)
    jobs = workloads.catalog(workload)["sweep:finite_n_ratio"]
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
