"""Job catalogs and seeded job streams for the four workloads.

A job is one CLI invocation (``belieflab.cli.run(argv)``) or one public
library call where the CLI has no command (``grid_argmax``). The analytic
workloads draw their jobs from fixed catalogs, generated here from named
catalog seeds, so that every job a run can draw has a reference output
recorded in ``reference.json``. The workload seed decides the order in
which a run visits the catalog; it never changes the catalog itself. The
oracle workload needs no recorded output (its jobs are checked against the
closed form), so its parameters and ``--seed`` values come straight from the
workload seed.

Every stream interleaves its job kinds by a fixed weighted cycle that is
shuffled per cycle. The mix of kinds is therefore the same in every run, up
to the last partial cycle, which keeps the run-to-run spread of the
end-to-end metrics small while the seed still changes the inputs.

This module imports nothing from belieflab.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("landscape", "horizon", "censoring", "oracle")

# Jobs a traced run executes: the first TRACE_JOBS[w] jobs of the stream,
# whole schedule cycles where the cycle is short enough. Fixed counts keep
# the per-layer call counts comparable across commits.
TRACE_JOBS = {"landscape": 111, "horizon": 64, "censoring": 120, "oracle": 48}


@dataclass(frozen=True)
class Job:
    """One unit of load.

    ``argv`` is set for CLI jobs, ``call`` for library calls. ``oracle``
    holds the parameters the closed-form check needs; analytic jobs leave it
    empty and are checked against the reference recorded under ``key``.
    ``steps`` is the agent-signal step count of an oracle job.
    """

    kind: str
    argv: tuple[str, ...] = ()
    call: dict | None = None
    oracle: dict | None = None
    steps: int = 0
    shared: bool = True

    @property
    def key(self) -> str:
        if self.argv:
            return " ".join(self.argv)
        return "grid_argmax " + json.dumps(self.call, sort_keys=True)


def _g(v: float) -> str:
    return format(v, ".6g")


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{_g(lo)}:{_g(hi)}:{n}"


# ---------------------------------------------------------------------------
# landscape: p-space sweeps plus the occasional props-check

_LANDSCAPE_METRICS = (
    "delta_bayes",
    "delta_fixed",
    "censor_gain",
    "finite_n_ratio",
    "lambda_bar",
    "in_B",
)
_LANDSCAPE_AXES = ("p11", "p22", "gamma", "d", "K")


def _axis_grid(rng: random.Random, axis: str, small: bool) -> str:
    n = rng.randint(2, 4) if small else rng.randint(12, 24)
    if axis in ("p11", "p22"):
        return _grid(round(rng.uniform(0.02, 0.2), 3), round(rng.uniform(0.8, 0.98), 3), n)
    if axis == "gamma":
        return _grid(round(rng.uniform(0.05, 0.3), 3), round(rng.uniform(0.7, 0.95), 3), n)
    if axis == "d":
        return _grid(round(rng.uniform(1.1, 2.0), 3), round(rng.uniform(4.0, 12.0), 3), n)
    k = rng.randint(2, 3) if small else rng.randint(3, 6)
    return f"1:{k}:{k}"


def _sweep_argv(rng: random.Random, metric: str, small: bool, n_max: int) -> tuple[str, ...]:
    x, y = rng.sample(_LANDSCAPE_AXES, 2)
    argv = ["sweep", "--metric", metric, "--x", x, "--y", y]
    argv += ["--x-grid", _axis_grid(rng, x, small), "--y-grid", _axis_grid(rng, y, small)]
    for axis in ("p11", "p22"):
        if axis not in (x, y):
            argv += [f"--{axis}", _g(round(rng.uniform(0.15, 0.9), 3))]
    if "gamma" not in (x, y):
        argv += ["--gamma", _g(round(rng.uniform(0.3, 0.75), 3))]
    if "d" not in (x, y):
        argv += ["--d", rng.choice(("1.5", "2", "3", "5"))]
    if "K" not in (x, y):
        argv += ["--K", str(rng.randint(1, 4))]
    if rng.random() < 0.5:
        argv += ["--sigma-log", _g(round(rng.uniform(0.2, 1.0), 3))]
    if rng.random() < 0.3:
        argv += ["--pi", _g(round(rng.uniform(0.3, 0.7), 3))]
    if metric == "finite_n_ratio":
        if small:
            argv += ["--N", str(round(math.exp(rng.uniform(math.log(10), math.log(1000)))))]
        else:
            argv += ["--N", str(rng.randint(2, n_max))]
    return tuple(argv)


def _landscape_catalog() -> dict[str, list[Job]]:
    rng = random.Random("perfbench-landscape-catalog-1")
    pools = {
        f"sweep:{m}": [Job(f"sweep:{m}", _sweep_argv(rng, m, False, 20)) for _ in range(16)]
        for m in _LANDSCAPE_METRICS
    }
    pools["props-check"] = [
        Job("props-check", ("props-check", "--K", str(k))) for k in (2, 3)
    ]
    return pools


# ---------------------------------------------------------------------------
# horizon: finite_n_ratio sweeps with long horizons on small grids


def _horizon_catalog() -> dict[str, list[Job]]:
    rng = random.Random("perfbench-horizon-catalog-1")
    return {
        "sweep:finite_n_ratio": [
            Job("sweep:finite_n_ratio", _sweep_argv(rng, "finite_n_ratio", True, 1000))
            for _ in range(128)
        ]
    }


# ---------------------------------------------------------------------------
# censoring: signal-space censoring on named and fresh models

NAMED_MODELS = ("tilt", "asymmetric_tilt", "lunar", "illusory", "coin")
STANDARD_BETAS = ("0", "0.2", "0.5", "1")

# Weighted problem sets for grid_argmax: (model name, pi, gamma, sigma_log, K, weight).
ARGMAX_PROBLEMS = {
    "tilt+lunar": (("tilt", 0.5, 0.6, 0.5, 2, 1.0), ("lunar", 0.5, 0.6, 0.0, 2, 1.0)),
    "asym+illusory+coin": (
        ("asymmetric_tilt", 0.5, 0.55, 0.3, 2, 2.0),
        ("illusory", 0.4, 0.6, 0.0, 3, 1.0),
        ("coin", 0.5, 0.5, 0.5, 2, 1.0),
    ),
    "tilt+asym+lunar+coin": (
        ("tilt", 0.6, 0.6, 0.0, 3, 1.0),
        ("asymmetric_tilt", 0.5, 0.6, 0.5, 2, 1.0),
        ("lunar", 0.5, 0.7, 0.4, 2, 3.0),
        ("coin", 0.5, 0.4, 0.0, 1, 1.0),
    ),
}


def _model_args(name: str) -> list[str]:
    return ["--model", name] + (["--lam", "1"] if name == "tilt" else [])


def _censoring_catalog() -> dict[str, list[Job]]:
    rng = random.Random("perfbench-censoring-catalog-1")
    pools: dict[str, list[Job]] = {}
    pools["censor-path"] = [
        Job("censor-path", ("censor-path", *_model_args(m), "--grid", grid))
        for m in NAMED_MODELS
        for grid in ("0:1:11", "0:2:21")
    ]
    pools["transitions"] = [
        Job("transitions", ("transitions", *_model_args(m), "--beta", b))
        for m in NAMED_MODELS
        for b in STANDARD_BETAS
    ]
    pools["sweep:beta"] = [
        Job(
            "sweep:beta",
            ("sweep", "--metric", metric, "--x", "beta", "--y", y, *_model_args(m),
             "--x-grid", "0:1:6", "--y-grid", ygrid, "--sigma-log", sigma),
        )
        for m in ("tilt", "asymmetric_tilt")
        for metric, y, ygrid in (
            ("delta_fixed", "d", "1.5:6:4"),
            ("delta_bayes", "gamma", "0.1:0.9:5"),
        )
        for sigma in ("0", "0.5")
    ]
    pools["scenario"] = [
        Job("scenario", ("scenario", name, "--beta", b))
        for name in ("lunar", "illusory", "coin", "autocorr")
        for b in ("0", "0.35")
    ] + [Job("scenario", ("scenario", "coin", "--params", '{"J": 20}', "--beta", "0.5"))]
    pools["grid_argmax"] = [
        Job(
            "grid_argmax",
            call={"problems": name, "betas": betas, "ds": ds, "lam": 1.0},
        )
        for name in ARGMAX_PROBLEMS
        for betas, ds in (
            ([round(0.1 * i, 1) for i in range(11)], [1.5, 2.0, 3.0, 5.0]),
            ([0.0, 0.25, 0.5, 0.75, 1.0], [1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0]),
        )
    ]
    # Fresh tilt parameters: no two jobs of one run share a model.
    fresh = []
    for i in range(1024):
        lam = _g(round(rng.uniform(0.3, 4.0), 4))
        if i % 3 == 0:
            argv = ("censor-path", "--model", "tilt", "--lam", lam,
                    "--grid", _grid(0, round(rng.uniform(0.3, 1.5), 3), 5))
        else:
            argv = ("transitions", "--model", "tilt", "--lam", lam,
                    "--beta", _g(round(rng.uniform(0.0, 1.5), 4)))
        fresh.append(Job("fresh-tilt", argv, shared=False))
    pools["fresh-tilt"] = fresh
    return pools


_CATALOGS = {
    "landscape": _landscape_catalog,
    "horizon": _horizon_catalog,
    "censoring": _censoring_catalog,
}


def catalog(workload: str) -> dict[str, list[Job]]:
    """Every job an analytic workload can draw, by kind."""
    return _CATALOGS[workload]()


# Kinds and their multiplicity in one schedule cycle.
_SCHEDULES = {
    "landscape": {
        **{f"sweep:{m}": 20 for m in _LANDSCAPE_METRICS},
        "sweep:finite_n_ratio": 10,
        "props-check": 1,
    },
    "horizon": {"sweep:finite_n_ratio": 1},
    "censoring": {
        "censor-path": 3,
        "transitions": 2,
        "sweep:beta": 2,
        "scenario": 2,
        "grid_argmax": 1,
        "fresh-tilt": 5,
    },
    "oracle": {
        "oracle:welfare-tilt": 3,
        "oracle:welfare-discrete": 4,
        "oracle:ladder": 2,
        "oracle:chain": 3,
    },
}


# ---------------------------------------------------------------------------
# oracle: Monte Carlo jobs with parameters from the workload seed


def _oracle_job(kind: str, rng: random.Random) -> Job:
    seed = rng.randrange(2**31)
    K = rng.randint(1, 3)
    N = rng.randint(30, 200)
    trials = rng.choice((5000, 10000, 20000))
    if kind == "oracle:chain":
        p11, p22 = round(rng.uniform(0.2, 0.9), 3), round(rng.uniform(0.2, 0.9), 3)
        theta = rng.choice((1, 2))
        N = rng.randint(100, 400)
        argv = ("oracle", "chain", "--p11", _g(p11), "--p22", _g(p22), "--theta", str(theta),
                "--K", str(K), "--N", str(N), "--trials", str(trials), "--seed", str(seed))
        params = {"p11": p11, "p22": p22, "theta": theta, "K": K, "N": N, "trials": trials}
        return Job(kind, argv, oracle=params, steps=trials * N)
    if kind == "oracle:ladder":
        beta = rng.choice((0.0, 0.1, 0.3))
        trials = rng.choice((2000, 5000, 10000))
        argv = ("oracle", "ladder", "--K", str(K), "--N", str(N), "--beta", _g(beta),
                "--trials", str(trials), "--seed", str(seed))
        params = {"K": K, "N": N, "beta": beta, "trials": trials}
        return Job(kind, argv, oracle=params, steps=3 * trials * N)
    if kind == "oracle:welfare-tilt":
        model, lam = "tilt", rng.choice((0.5, 1.0, 2.0))
    else:
        model, lam = rng.choice(("lunar", "illusory", "coin")), 1.0
    beta = rng.choice((0.0, 0.2, 0.5))
    d = rng.choice((1.5, 2.0, 3.0, 5.0))
    gamma = round(rng.uniform(0.3, 0.7), 3)
    sigma = rng.choice((0.0, 0.5))
    argv = ("oracle", "welfare", "--model", model, "--lam", _g(lam), "--beta", _g(beta),
            "--d", _g(d), "--gamma", _g(gamma), "--sigma-log", _g(sigma), "--K", str(K),
            "--N", str(N), "--trials", str(trials), "--seed", str(seed))
    params = {"model": model, "lam": lam, "beta": beta, "d": d, "gamma": gamma,
              "sigma_log": sigma, "K": K, "N": N, "trials": trials}
    return Job(kind, argv, oracle=params, steps=trials * N)


# ---------------------------------------------------------------------------
# streams


@dataclass
class _Pool:
    jobs: list[Job]
    rng: random.Random
    order: list[int] = field(default_factory=list)

    def next(self) -> Job:
        if not self.order:
            self.order = list(range(len(self.jobs)))
            self.rng.shuffle(self.order)
        return self.jobs[self.order.pop()]


def stream(workload: str, seed: int):
    """Endless job sequence of a workload; the same seed gives the same jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(seed)
    cycle = [kind for kind, n in _SCHEDULES[workload].items() for _ in range(n)]
    pools = {}
    if workload != "oracle":
        pools = {kind: _Pool(jobs, rng) for kind, jobs in catalog(workload).items()}
    while True:
        rng.shuffle(cycle)
        for kind in cycle:
            yield pools[kind].next() if pools else _oracle_job(kind, rng)
