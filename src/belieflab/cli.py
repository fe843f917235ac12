"""Command-line surface: tables, sweeps, censor paths, oracle runs, checks.

Subcommands: stationary, transitions, sweep, censor-path, scenario, oracle,
props-check. Every number prints with 17 significant digits, CSV is
comma-separated with LF line endings and a header row, JSON is
pretty-printed with sorted keys, and a fixed argv (seeds included) yields
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import oracle as mc
from . import scenarios as sc
from .beliefs import BeliefStrategy, PriorModel, bayes_params
from .chain import kernel_from_p, stationary
from .signals import (
    PVector,
    censor_path,
    censored_transitions,
    conditional_dynamics,
    load_model,
    model_from_config,
)
from .welfare import (
    ProblemSpec,
    SWEEP_METRICS,
    bayes_welfare,
    censor_sensitivity,
    censored_p,
    delta_fixed,
    expected_welfare,
    find_D_witness,
    in_B,
    regular_censoring_gain,
    sweep,
)

__all__ = ["run", "main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _dump_json(obj) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o)!r}")

    return json.dumps(obj, indent=2, sort_keys=True, default=default)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _named_model(name: str, overrides: dict):
    """The model ``scenarios.MODELS`` lists under name, defaults overridden."""
    build, defaults = sc.MODELS[name]
    return build(**{**defaults, **overrides})


def _resolve_model(args, config: dict):
    """Model from --model <name-or-json-path> or the config's "model" key."""
    name = getattr(args, "model", None)
    if not name:
        return model_from_config(config["model"]) if "model" in config else None
    if name.endswith(".json"):
        return load_model(name)
    if name not in sc.MODELS:
        raise SystemExit(f"unknown model {name!r}")
    _, defaults = sc.MODELS[name]
    return _named_model(name, {"lam": args.lam} if "lam" in defaults else {})


def _grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into n evenly spaced values."""
    try:
        lo, hi, n = spec.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise SystemExit(f"bad grid {spec!r}, expected lo:hi:n") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file whose keys mirror the flags")
    parser.add_argument("--K", type=int, default=None)
    parser.add_argument("--d", type=float, default=None)
    parser.add_argument("--lambda", dest="lam_strategy", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--pi", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--rho", type=float, default=None)
    parser.add_argument("--sigma-log", dest="sigma_log", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None)


_DEFAULTS = {
    "K": 2,
    "d": 3.0,
    "lam_strategy": 1.0,
    "beta": 0.0,
    "pi": 0.5,
    "gamma": 0.6,
    "rho": None,
    "sigma_log": 0.0,
    "seed": 0,
    "trials": 100000,
    "out": None,
}


def _merge_config(args: argparse.Namespace, config: dict) -> argparse.Namespace:
    """Config fills flags the command line left unset; flags win otherwise."""
    alias = {"lambda": "lam_strategy", "sigma-log": "sigma_log"}
    for key, value in config.items():
        if key == "model":
            continue
        dest = alias.get(key, key)
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)
    for dest, value in _DEFAULTS.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)
    return args


def _problem(args) -> ProblemSpec:
    rho = args.rho if args.rho is not None else args.pi / (1.0 - args.pi)
    return ProblemSpec(
        pi=args.pi,
        gamma=args.gamma,
        prior=PriorModel(rho=rho, sigma_log=args.sigma_log),
        K=args.K,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_stationary(args, config) -> int:
    probs = stationary(args.r, args.K)
    payload = {
        "K": args.K,
        "r": args.r,
        "states": list(range(-args.K, args.K + 1)),
        "probs": [float(v) for v in probs],
        "sum": float(probs.sum()),
    }
    print(_dump_json(payload))
    return 0


def _cmd_transitions(args, config) -> int:
    model = _resolve_model(args, config)
    if model is None:
        raise SystemExit("transitions needs --model or a config with one")
    q = censored_transitions(model, args.beta)
    payload = {
        "beta": args.beta,
        "up": list(q.up),
        "down": list(q.down),
        "stay": list(q.stay),
    }
    try:
        p = conditional_dynamics(q)
        payload["p11"] = p.p11
        payload["p22"] = p.p22
    except ValueError as err:
        payload["fully_censored"] = str(err)
    print(_dump_json(payload))
    return 0


def _cmd_censor_path(args, config) -> int:
    model = _resolve_model(args, config)
    if model is None:
        raise SystemExit("censor-path needs --model or a config with one")
    points = censor_path(model, list(_grid(args.grid)))
    header = ["beta", "p11", "p22", "censored1", "censored2"]
    rows = [
        [pt.beta, pt.p11, pt.p22, int(pt.fully_censored[0]), int(pt.fully_censored[1])]
        for pt in points
    ]
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_sweep(args, config) -> int:
    x_values = _grid(args.x_grid)
    y_values = _grid(args.y_grid)
    model = _resolve_model(args, config)
    rows = sweep(
        args.metric,
        args.x,
        [float(v) for v in x_values],
        args.y,
        [float(v) for v in y_values],
        p11=args.p11,
        p22=args.p22,
        pi=args.pi,
        gamma=args.gamma,
        sigma_log=args.sigma_log,
        rho=args.rho,
        K=args.K,
        d=args.d,
        N=args.N,
        beta=None if args.x == "beta" or args.y == "beta" else args.beta_fixed,
        model=model,
    )
    header = [args.x, args.y, "value", "regular"]
    table = [[r[args.x], r[args.y], r["value"], r["regular"]] for r in rows]
    if args.out:
        _write_csv(args.out, header, table)
        print(f"wrote {len(table)} rows to {args.out}")
    else:
        print(",".join(header))
        for row in table:
            print(",".join(_fmt(v) for v in row))
    return 0


def _cmd_scenario(args, config) -> int:
    params = json.loads(args.params) if args.params else {}
    model = _named_model(args.name, params)
    rows = sc.evidence_table(model, beta=args.beta)
    prob_cols = [f"prob{t}" for t in range(1, model.theta_count + 1)]
    header = ["outcome", "direction", "strength", *prob_cols, "processed"]
    table = [
        [r.outcome, r.direction, r.strength, *r.probs, int(r.processed)]
        for r in rows
    ]
    widths = [
        max(len(h), max((len(_fmt(row[i])) for row in table), default=0))
        for i, h in enumerate(header)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    if args.out:
        _write_csv(args.out, header, table)
        print(f"wrote {len(table)} rows to {args.out}")
    return 0


def _cmd_oracle(args, config) -> int:
    spec = _problem(args)
    if args.kind == "chain":
        if args.p11 is None or args.p22 is None:
            raise SystemExit("oracle chain needs --p11 and --p22")
        q = kernel_from_p(args.p11, args.p22)
        est = mc.simulate_chain(
            q, args.theta, args.K, args.N, args.trials, args.seed
        )
        payload = {
            "estimate": [float(v) for v in est.probs],
            "stderr": [float(v) for v in est.stderr],
        }
    elif args.kind == "welfare":
        model = _resolve_model(args, config)
        if model is None:
            raise SystemExit("oracle welfare needs --model or a config with one")
        strategy = BeliefStrategy(d=args.d, lam=args.lam_strategy)
        est = mc.simulate_welfare(
            model, spec, strategy, args.beta, args.N, args.trials, args.seed
        )
        payload = {"estimate": est.estimate, "stderr": est.stderr}
    elif args.kind == "ladder":
        model = _resolve_model(args, config)
        if model is None:
            model = _named_model("autocorr", {"draws": 10})
        est = mc.simulate_ladder(
            model, args.K, args.N, args.trials, args.seed, beta=args.beta
        )
        payload = {
            "estimate": [[float(v) for v in row] for row in est.probs],
            "stderr": [[float(v) for v in row] for row in est.stderr],
        }
    else:
        raise SystemExit(f"unknown oracle kind {args.kind!r}")
    payload.update({"trials": args.trials, "seed": args.seed})
    print(_dump_json(payload))
    return 0


def _props_battery(K: int) -> list[tuple[str, bool, str]]:
    """Reduced versions of the optimality and censoring checks."""
    rng = np.random.default_rng(12345)
    results = []

    # Exact Bayes parameters dominate every fixed rule under correct priors.
    worst = math.inf
    witness = ""
    ok = True
    for _ in range(30):
        p = PVector(*rng.uniform(0.02, 0.98, size=2))
        gamma = float(rng.uniform(0.1, 0.9))
        spec = ProblemSpec.correct_priors(0.5, gamma, K)
        best = bayes_welfare(p, spec)
        for _ in range(200):
            strat = BeliefStrategy(
                d=float(np.exp(rng.uniform(0.0, 3.0))),
                lam=float(np.exp(rng.uniform(-2.0, 2.0))),
            )
            gap = best - expected_welfare(p, spec, strat).value
            if gap < worst:
                worst = gap
                witness = f"p=({p.p11:.3f},{p.p22:.3f}) gamma={gamma:.3f}"
            if gap < -1e-12:
                ok = False
        params = bayes_params(p, spec.K)
        if abs(best - expected_welfare(p, spec, params).value) > 1e-12:
            ok = False
            witness = f"equality failed at p=({p.p11:.3f},{p.p22:.3f})"
    results.append(
        ("bayes-rule-dominance", ok, f"min gap {worst:.3e} ({witness})")
    )

    # Fixed-power rules gain on the balanced-informative set B.
    ok = True
    witness = "all positive"
    grid = np.linspace(0.02, 0.98, 21)
    for p22 in grid:
        for gamma in grid:
            spec = ProblemSpec.noisy_priors(0.5, float(gamma), K)
            p = PVector(0.8, float(p22))
            if not in_B(p, spec):
                continue
            for d in (1.5, 3.0, 10.0):
                # the term-by-term form is cancellation-free, so strict
                # positivity survives even where the gain is ~1e-20
                val = delta_fixed(p, spec, d).decomposed
                if not val > 0.0:
                    ok = False
                    witness = f"p22={p22:.3f} gamma={gamma:.3f} d={d}: {val:.3e}"
    results.append(("fixed-power-gain-on-B", ok, witness))

    # Censoring-response: analytic derivatives match finite differences.
    ok = True
    witness = "1000 draws"
    for _ in range(1000):
        p = PVector(*rng.uniform(0.05, 0.95, size=2))
        sens = censor_sensitivity(p, K)
        h = 1e-6
        hi, lo = censored_p(p, h), censored_p(p, -h)
        fd11 = (hi.p11 - lo.p11) / (2 * h)
        fd22 = (hi.p22 - lo.p22) / (2 * h)
        fd_d = (
            bayes_params(hi, K).d - bayes_params(lo, K).d
        ) / (2 * h)
        rel = lambda a, b: abs(a - b) / max(abs(a), abs(b), 1e-9)
        if rel(fd11, sens.dp11) > 1e-4 or rel(fd22, sens.dp22) > 1e-4 or rel(
            fd_d, sens.ddp
        ) > 1e-4:
            ok = False
            witness = f"p=({p.p11:.4f},{p.p22:.4f})"
            break
        if abs(sens.lam - 1.0) > 1e-6 and sens.dlam * (sens.lam - 1.0) < 0:
            ok = False
            witness = f"balance sign at p=({p.p11:.4f},{p.p22:.4f})"
            break
    results.append(("censoring-derivatives", ok, witness))

    # Somewhere, censoring strictly hurts a Bayesian agent.
    witness_obj = find_D_witness(max(K, 2))
    ok = witness_obj is not None and witness_obj.welfare_after < witness_obj.welfare_before
    detail = (
        f"p=({witness_obj.p.p11:.4f},{witness_obj.p.p22:.4f}) "
        f"drop {witness_obj.welfare_before - witness_obj.welfare_after:.3e}"
        if witness_obj
        else "no witness found"
    )
    results.append(("censoring-can-hurt-witness", ok, detail))

    # On regular problems, censoring never hurts, threshold by threshold.
    ok = True
    witness = "all nonnegative"
    grid = np.linspace(0.52, 0.98, 21)
    spec = ProblemSpec.correct_priors(0.5, 0.6, K)
    for p11 in grid:
        for p22 in grid:
            p = PVector(float(p11), float(p22))
            for k in range(-K + 1, K + 1):
                gain = regular_censoring_gain(p, spec, k)
                if gain < -1e-12:
                    ok = False
                    witness = f"p=({p11:.3f},{p22:.3f}) k={k}: {gain:.3e}"
    results.append(("regular-censoring-gain", ok, witness))
    return results


def _cmd_props_check(args, config) -> int:
    results = _props_battery(args.K)
    failed = [r for r in results if not r[1]]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if failed:
        print(f"first failure: {failed[0][0]} ({failed[0][2]})")
        return 1
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belieflab",
        description="censored coarse-evidence belief dynamics laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="long-run chain distribution")
    _add_common(p)
    p.add_argument("--r", type=float, required=True)
    p.set_defaults(fn=_cmd_stationary)

    p = sub.add_parser("transitions", help="censored move probabilities")
    _add_common(p)
    p.add_argument("--model", default=None)
    p.add_argument("--lam", type=float, default=1.0, help="tilt parameter")
    p.set_defaults(fn=_cmd_transitions)

    p = sub.add_parser("censor-path", help="dynamics along a beta grid")
    _add_common(p)
    p.add_argument("--model", default=None)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--grid", default="0:1:11", help="beta grid lo:hi:n")
    p.set_defaults(fn=_cmd_censor_path)

    p = sub.add_parser("sweep", help="metric over a 2-d parameter grid")
    _add_common(p)
    p.add_argument("--metric", required=True, choices=sorted(SWEEP_METRICS))
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--x-grid", default="0.005:0.995:101")
    p.add_argument("--y-grid", default="0.005:0.995:101")
    p.add_argument("--p11", type=float, default=None)
    p.add_argument("--p22", type=float, default=None)
    p.add_argument("--N", type=int, default=10)
    p.add_argument("--beta-fixed", type=float, default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--lam", type=float, default=1.0)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("scenario", help="evidence table of a worked problem")
    _add_common(p)
    p.add_argument("name", choices=list(sc.SCENARIOS))
    p.add_argument("--params", default=None, help="JSON constructor overrides")
    p.set_defaults(fn=_cmd_scenario)

    p = sub.add_parser("oracle", help="Monte Carlo estimates")
    _add_common(p)
    p.add_argument("kind", choices=["chain", "welfare", "ladder"])
    p.add_argument("--model", default=None)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--p11", type=float, default=None)
    p.add_argument("--p22", type=float, default=None)
    p.add_argument("--theta", type=int, default=1)
    p.add_argument("--N", type=int, default=500)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("props-check", help="run the verification battery")
    _add_common(p)
    p.set_defaults(fn=_cmd_props_check)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    args = _merge_config(args, config)
    return args.fn(args, config)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
