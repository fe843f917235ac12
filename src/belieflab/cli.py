"""Command-line surface: tables, sweeps, censor paths, oracle runs, checks.

Commands: stationary, transitions, censor-path, sweep, scenario,
oracle chain|welfare|ladder, props-check. ``_FLAGS`` states every flag once,
with its argparse spec and default; each handler's ``@_command`` lists the
flags it reads, with any default it changes, and the command takes no other
flag. ``--config file.json`` holds the same flags as keys (the name without
"--"): a key fills any flag the command line left unset, explicit flags win,
and a key that is not a flag of the command is rejected. Bad input (a
library ValueError, an unreadable file) prints one line on stderr and exits 2.

Every number prints with 17 significant digits, CSV is comma-separated with
LF line endings and a header row, JSON is pretty-printed with sorted keys,
and a fixed argv (seeds included) yields byte-identical output.
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
from .beliefs import BeliefStrategy
from .chain import stationary
from .scenarios import load_model, model_from_config
from .signals import PVector, censor_path, censored_transitions, conditional_dynamics
from .welfare import ProblemSpec, SWEEP_METRICS, _props_battery, sweep

__all__ = ["run", "main"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {len(rows)} rows to {path}")


def _emit_csv(out: str | None, header: list[str], rows: list[list]) -> None:
    """Print the CSV, or write it to out and say so."""
    if out:
        _write_csv(out, header, rows)
        return
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in rows)]
    print("\n".join(lines))


def _resolve_model(args):
    """Model from --model: a name in ``scenarios.MODELS`` (with --lam, when
    given, for a continuous family; a worked problem takes no lam), a .json
    model file, or (from a config or the command's default) a model document."""
    doc = args.model
    if doc is None:
        raise ValueError("needs --model, on the command line or in --config")
    if isinstance(doc, str):
        if doc.endswith(".json"):
            return load_model(doc)
        given = args.lam is not None and doc not in sc.SCENARIOS
        doc = {"family": doc, "params": {"lam": args.lam} if given else {}}
    return model_from_config(doc)


def _grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into n >= 1 evenly spaced values."""
    try:
        lo, hi, n = spec.split(":")
        if not math.isfinite(float(hi) - float(lo)) or int(n) < 1:  # a NaN, inf or no point
            raise ValueError
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        expected = "lo:hi:n with finite ends and n >= 1"
        raise ValueError(f"bad grid {spec!r}, expected {expected}") from None


# Every flag once: its argparse spec, default included. A config key is the
# flag's name without "--".
_FLAGS = {
    "--config": {"help": "JSON file whose keys are flags of this command"},
    "name": {"choices": list(sc.SCENARIOS)},
    "--r": {"type": float, "required": True},
    "--model": {"help": "a name in scenarios.MODELS or a .json model file"},
    "--lam": {"type": float, "help": "tilt parameter (default: the model's own)"},
    "--beta": {"type": float, "default": 0.0},
    "--grid": {"default": "0:1:11", "help": "beta grid lo:hi:n"},
    "--metric": {"required": True, "choices": sorted(SWEEP_METRICS)},
    "--x": {"required": True},
    "--y": {"required": True},
    "--x-grid": {"default": "0.005:0.995:101"},
    "--y-grid": {"default": "0.005:0.995:101"},
    "--p11": {"type": float},
    "--p22": {"type": float},
    "--pi": {"type": float, "default": 0.5},
    "--gamma": {"type": float, "default": 0.6},
    "--rho": {"type": float},
    "--sigma-log": {"type": float, "default": 0.0},
    "--K": {"type": int, "default": 2},
    "--d": {"type": float, "default": 3.0},
    "--lambda": {"dest": "lam_strategy", "type": float, "default": 1.0},
    "--theta": {"type": int, "default": 1},
    "--N": {"type": int, "default": 500},
    "--trials": {"type": int, "default": 100000},
    "--seed": {"type": int, "default": 0},
    "--params": {"help": "JSON constructor overrides"},
    "--out": {},
}

_COMMANDS = {}


def _command(name: str, flags: str, **defaults):
    """Register a handler as command name: the flags it reads besides
    --config, and the defaults in which it differs from _FLAGS (by flag name
    without "--"). Its docstring is the command's help."""

    def register(fn):
        _COMMANDS[name] = (fn, flags.split(), defaults)
        return fn

    return register


# ---------------------------------------------------------------------------
# subcommands


@_command("stationary", "--r --K")
def _cmd_stationary(args) -> int:
    """Long-run chain distribution."""
    probs = stationary(args.r, args.K)
    payload = {
        "K": args.K,
        "r": args.r,
        "states": list(range(-args.K, args.K + 1)),
        "probs": probs.tolist(),
        "sum": float(probs.sum()),
    }
    print(_dump_json(payload))
    return 0


@_command("transitions", "--model --lam --beta")
def _cmd_transitions(args) -> int:
    """Censored move probabilities."""
    q = censored_transitions(_resolve_model(args), args.beta)
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


@_command("censor-path", "--model --lam --grid --out")
def _cmd_censor_path(args) -> int:
    """Dynamics along a beta grid."""
    points = censor_path(_resolve_model(args), list(_grid(args.grid)))
    rows = [
        [pt.beta, pt.p11, pt.p22, int(pt.fully_censored[0]), int(pt.fully_censored[1])]
        for pt in points
    ]
    _emit_csv(args.out, ["beta", "p11", "p22", "censored1", "censored2"], rows)
    return 0


@_command(
    "sweep",
    "--metric --x --y --x-grid --y-grid --p11 --p22 --pi --gamma --rho --sigma-log"
    " --K --d --N --beta --model --lam --out",
    N=10,
    beta=None,  # no --beta: p-space dynamics
)
def _cmd_sweep(args) -> int:
    """Metric over a 2-d parameter grid."""
    rows = sweep(
        args.metric,
        args.x,
        [float(v) for v in _grid(args.x_grid)],
        args.y,
        [float(v) for v in _grid(args.y_grid)],
        p11=args.p11,
        p22=args.p22,
        pi=args.pi,
        gamma=args.gamma,
        sigma_log=args.sigma_log,
        rho=args.rho,
        K=args.K,
        d=args.d,
        N=args.N,
        beta=args.beta,
        model=None if args.model is None else _resolve_model(args),
    )
    header = [args.x, args.y, "value", "regular"]
    _emit_csv(args.out, header, [[r[h] for h in header] for r in rows])
    return 0


@_command("scenario", "name --params --beta --out")
def _cmd_scenario(args) -> int:
    """Evidence table of a worked problem."""
    params = args.params or "{}"
    if isinstance(params, str):  # a config may hold the overrides as an object
        params = json.loads(params)
    model = model_from_config({"family": args.name, "params": params})
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
    return 0


def _print_oracle(args, estimate, stderr) -> int:
    payload = {"estimate": estimate, "stderr": stderr, "trials": args.trials, "seed": args.seed}
    print(_dump_json({key: np.asarray(v).tolist() for key, v in payload.items()}))
    return 0


@_command("oracle chain", "--p11 --p22 --theta --K --N --trials --seed")
def _cmd_oracle_chain(args) -> int:
    """Monte Carlo law of the chain."""
    if args.p11 is None or args.p22 is None:
        raise ValueError("needs --p11 and --p22")
    p = PVector(args.p11, args.p22)
    est = mc.simulate_chain(p, args.theta, args.K, args.N, args.trials, args.seed)
    return _print_oracle(args, est.probs, est.stderr)


@_command(
    "oracle welfare",
    "--model --lam --beta --d --lambda --pi --gamma --rho --sigma-log --K --N"
    " --trials --seed",
)
def _cmd_oracle_welfare(args) -> int:
    """Monte Carlo welfare of a posterior rule."""
    spec = ProblemSpec.noisy_priors(
        args.pi, args.gamma, args.K, args.sigma_log, rho=args.rho
    )
    strategy = BeliefStrategy(d=args.d, lam=args.lam_strategy)
    est = mc.simulate_welfare(
        _resolve_model(args), spec, strategy, args.beta, args.N, args.trials, args.seed
    )
    return _print_oracle(args, est.estimate, est.stderr)


@_command(
    "oracle ladder",
    "--model --lam --K --N --beta --trials --seed",
    model={"family": "autocorr", "params": {"draws": 10}},
)
def _cmd_oracle_ladder(args) -> int:
    """Monte Carlo law of the three-theory ladder."""
    est = mc.simulate_ladder(
        _resolve_model(args), args.K, args.N, args.trials, args.seed, beta=args.beta
    )
    return _print_oracle(args, est.probs, est.stderr)


@_command("props-check", "--K")
def _cmd_props_check(args) -> int:
    """Run the verification battery."""
    results = _props_battery(args.K)
    failed = [r for r in results if not r[1]]
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    if failed:
        print(f"first failure: {failed[0][0]} ({failed[0][2]})")
        return 1
    return 0


# ---------------------------------------------------------------------------


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or only the given _COMMANDS key's."""
    parser = argparse.ArgumentParser(
        prog="belieflab",
        description="censored coarse-evidence belief dynamics laboratory",
    )
    # one command's usage names every choice as the full usage does; the full
    # parser keeps the default metavar, which its errors name "command"
    top = "{%s}" % ",".join(["oracle", *(c for c in _COMMANDS if " " not in c)])
    sub = parser.add_subparsers(dest="command", required=True, metavar=command and top)
    groups = {"": sub}
    if command is None or command.startswith("oracle "):
        oracle = sub.add_parser("oracle", help="Monte Carlo estimates")
        groups["oracle"] = oracle.add_subparsers(dest="kind", required=True)
    for cmd in _COMMANDS if command is None else [command]:
        fn, flags, defaults = _COMMANDS[cmd]
        group, _, name = cmd.rpartition(" ")
        leaf = groups[group].add_parser(name, help=fn.__doc__)
        leaf.add_argument("--config", **_FLAGS["--config"])
        dests = {}
        for flag in flags:
            key = flag.lstrip("-")
            spec = dict(_FLAGS[flag])
            if key in defaults:
                spec["default"] = defaults[key]
            dests[key] = leaf.add_argument(flag, **spec).dest
        leaf.set_defaults(fn=fn, leaf=leaf, dests=dests)
    return parser


def _config_defaults(args) -> dict:
    """The --config file's keys as defaults of the command's flags, by dest."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config!r} must hold a JSON object")
    for key in config:
        if key not in args.dests:
            raise ValueError(f"unknown config key {key!r}")
    # a value goes through the flag's type as if typed; a document stays a dict
    return {
        args.dests[key]: value if isinstance(value, dict) else str(value)
        for key, value in config.items()
    }


def run(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the invoked command's parser only; -h or an unknown command gets them all
    command = " ".join(argv[:2] if argv[:1] == ["oracle"] else argv[:1])
    parser = _build_parser(command if command in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # a flag given on the command line still wins over its new default
            args.leaf.set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as err:  # bad input: a message, not a traceback
        print(f"{args.leaf.prog}: error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
