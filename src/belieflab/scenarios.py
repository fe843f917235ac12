"""Worked discrimination problems as discrete signal models.

Each constructor builds the exact outcome table of a story problem:

* ``lunar_model``: does a full moon raise the number of deliveries pushing a
  ward over capacity, or not?
* ``illusory_model``: does a rare premise P raise the chance of a rare
  consequence C, or not?
* ``coin_model``: which of two tail biases drives a coin?
* ``autocorr_model``: are consecutive binary draws positively correlated,
  negatively correlated, or independent? (three underlying states)

``MODELS`` names them with the continuous families; ``model_from_config``
builds a named or discrete model from a JSON document, ``load_model`` from a file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .signals import (
    ContinuousSignalModel,
    DiscreteSignalModel,
    _check_int,
    _check_kind,
    _check_real,
    asymmetric_tilt_model,
    classify,
    tilt_model,
)

__all__ = [
    "SCENARIOS",
    "MODELS",
    "EvidenceRow",
    "evidence_table",
    "lunar_model",
    "lunar_strength_rows",
    "illusory_model",
    "coin_model",
    "AutocorrRow",
    "autocorr_model",
    "model_from_config",
    "load_model",
]


@dataclass(frozen=True)
class EvidenceRow:
    outcome: str
    direction: int
    strength: float
    probs: tuple[float, ...]  # Pr(outcome | theta) for theta = 1..theta_count
    processed: bool


def evidence_table(model: DiscreteSignalModel, beta: float = 0.0) -> list[EvidenceRow]:
    """Direction, strength, and processing status of every outcome."""
    kept = _check_kind(model, "model", DiscreteSignalModel).directions(beta)
    return [
        EvidenceRow(
            outcome=label,
            direction=int(model._direction[i]),
            strength=float(model._strength[i]),
            probs=tuple(float(v) for v in model.probs[:, i]),
            processed=bool(kept[i]),
        )
        for i, label in enumerate(model.outcomes)
    ]


# ---------------------------------------------------------------------------
# lunar effects


def _poisson_pmf(rate: float, n: int) -> float:
    return math.exp(-rate + n * math.log(rate) - math.lgamma(n + 1))


def _poisson_cdf(rate: float, n: int) -> float:
    return math.fsum(_poisson_pmf(rate, k) for k in range(n + 1))


def lunar_model(
    base_rate: float = 10.0,
    effect: float = 1.2,
    capacity: int = 12,
    full_moon_frac: float = 3.0 / 30.0,
    cutoff: int = 40,
    tension_ceiling: int | None = 8,
) -> DiscreteSignalModel:
    """Ward-tension signals (X, Y): tension level and full-moon indicator.

    Daily deliveries n are Poisson. Under state 2 the rate is ``base_rate``
    regardless of the moon. Under state 1 full-moon days run ``effect``
    times hotter than other days, with the two rates pinned so the overall
    mean stays ``base_rate``. Tension is X = max(n - capacity, 0); Y flags
    full moon. Counts beyond ``cutoff`` are truncated and each state's table
    renormalized (the discarded tail is ~1e-12 at the default rates).

    Tension above ``tension_ceiling`` is pooled into one top outcome per
    moon value. Pooling matters: kept distinct, astronomically rare hot
    streaks on moonless days would carry ever stronger evidence for state 2
    (the rate gap compounds per count), whereas the perceived signal space
    tops out, and only with the pooled bucket does a threshold above the
    strongest listed state-2 strength silence that side completely. Pass
    ``tension_ceiling=None`` for the raw unpooled space.

    Outcome labels are "X,Y", e.g. "0,1" for a calm full-moon day; the
    pooled bucket reads like "9+,0".
    """
    capacity = _check_int(capacity, "capacity", 1)
    cutoff = _check_int(cutoff, "cutoff", capacity + 1)
    if tension_ceiling is not None:
        tension_ceiling = _check_int(tension_ceiling, "tension_ceiling", 1)
    base_rate = _check_real(base_rate, "base_rate", 0, math.inf, "()")
    effect = _check_real(effect, "effect", 1, math.inf, "()")
    full_moon_frac = _check_real(full_moon_frac, "full_moon_frac", 0, 1, "()")
    max_tension = cutoff - capacity
    if tension_ceiling is None or tension_ceiling >= max_tension:
        tension_ceiling = max_tension
    rate_calm = base_rate / (1.0 + full_moon_frac * (effect - 1.0))
    rate_moon = effect * rate_calm
    # rate by (state, moon indicator)
    rates = {(1, 0): rate_calm, (1, 1): rate_moon, (2, 0): base_rate, (2, 1): base_rate}
    moon_prob = {0: 1.0 - full_moon_frac, 1: full_moon_frac}
    labels = []
    columns = []
    for moon in (0, 1):
        labels += [f"{tension},{moon}" for tension in range(tension_ceiling + 1)]
        if tension_ceiling < max_tension:
            labels.append(f"{tension_ceiling + 1}+,{moon}")
        masses = []
        for theta in (1, 2):
            rate = rates[(theta, moon)]
            tail = [_poisson_pmf(rate, capacity + t) for t in range(1, max_tension + 1)]
            # tension 0, tensions 1..ceiling, then the pooled bucket if any
            col = [_poisson_cdf(rate, capacity), *tail[:tension_ceiling]]
            if tension_ceiling < max_tension:
                col.append(math.fsum(tail[tension_ceiling:]))
            masses.append([moon_prob[moon] * mass for mass in col])
        columns += zip(*masses)
    probs = np.array(columns, dtype=float).T
    totals = probs.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        raise ValueError(
            f"no delivery count up to cutoff={cutoff} has mass at base_rate="
            f"{base_rate!r}, effect={effect!r}; raise the cutoff"
        )
    probs /= totals  # drop the truncated tail
    return DiscreteSignalModel(outcomes=tuple(labels), probs=probs, theta_count=2)


def lunar_strength_rows(
    model: DiscreteSignalModel | None = None, max_tension: int = 8
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """The two published-style strength rows, ((for-state-2), (for-state-1)).

    The state-2 row runs ("0,1", then tension 8..1 on calm days); the
    state-1 row runs ("0,0", then tension 1..8 on full-moon days).
    """
    max_tension = _check_int(max_tension, "max_tension", 0)
    if model is None:
        model = lunar_model()
    for_two = ["0,1"] + [f"{x},0" for x in range(max_tension, 0, -1)]
    for_one = ["0,0"] + [f"{x},1" for x in range(1, max_tension + 1)]

    def row(labels: list[str], expect_direction: int) -> list[tuple[str, float]]:
        out = []
        for label in labels:
            ev = classify(model, label)
            if ev.direction != expect_direction:
                raise RuntimeError(
                    f"outcome {label} points to {ev.direction}, "
                    f"expected {expect_direction}"
                )
            out.append((label, ev.strength))
        return out

    return row(for_two, 2), row(for_one, 1)


# ---------------------------------------------------------------------------
# illusory correlation


def illusory_model(alpha: float, r: float, q: float) -> DiscreteSignalModel:
    """Premise/consequence pattern signals {PC, P~C, ~PC, ~P~C}.

    Under state 1 the premise multiplies the chance of the consequence by
    ``alpha`` (with the unconditional rate held at q); under state 2 it has
    no influence. r = Pr(P), q = Pr(C). With both events rare, only PC
    carries real strength, and it favors state 1.
    """
    alpha = _check_real(alpha, "alpha", 1, math.inf, "()")
    r = _check_real(r, "r", 0, 1, "()")
    q = _check_real(q, "q", 0, 1, "()")
    bend = 1.0 + (alpha - 1.0) * r
    q1 = alpha * q / bend        # Pr(C | P, state 1)
    qbar1 = q / bend             # Pr(C | ~P, state 1)
    if q1 > 1.0:
        raise ValueError(f"Pr(C | P, state 1) = {q1!r} exceeds 1; shrink alpha or q")
    labels = ("PC", "P~C", "~PC", "~P~C")
    row1 = [r * q1, r * (1.0 - q1), (1.0 - r) * qbar1, (1.0 - r) * (1.0 - qbar1)]
    row2 = [r * q, r * (1.0 - q), (1.0 - r) * q, (1.0 - r) * (1.0 - q)]
    return DiscreteSignalModel(
        outcomes=labels, probs=np.array([row1, row2]), theta_count=2
    )


# ---------------------------------------------------------------------------
# coin framing


def _binomial_term(n: int, k: int, a: float, b: float) -> float:
    """comb(n, k) * a**k * b**(n - k), taken in logs where comb(n, k) is past
    the float range (n above 1029)."""
    try:
        return math.comb(n, k) * a**k * b ** (n - k)
    except OverflowError:
        log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        return math.exp(log_comb + k * math.log(a) + (n - k) * math.log(b))


def _binomial_rows(n: int, pairs) -> np.ndarray:
    """One row per (a, b): comb(n, k) * a**k * b**(n - k) for k = 0..n."""
    return np.array(
        [[_binomial_term(n, k, a, b) for k in range(n + 1)] for a, b in pairs]
    )


def coin_model(alpha1: float, alpha2: float, J: int = 1) -> DiscreteSignalModel:
    """Tail-count of J coin flips under two candidate tail biases.

    Outcome labels are the tail counts "0".."J". The tail count is
    sufficient for a batch of flips, so the model advertises a
    batch_builder and ``batch`` stays exact at any batch size.
    """
    alpha1 = _check_real(alpha1, "alpha1", 0, 1, "()")
    alpha2 = _check_real(alpha2, "alpha2", 0, 1, "()")
    J = _check_int(J, "J", 1)
    labels = tuple(str(k) for k in range(J + 1))
    probs = _binomial_rows(J, [(a, 1.0 - a) for a in (alpha1, alpha2)])
    return DiscreteSignalModel(
        outcomes=labels,
        probs=probs,
        theta_count=2,
        batch_builder=lambda size: coin_model(alpha1, alpha2, J * size),
    )


# ---------------------------------------------------------------------------
# autocorrelation (three underlying states)


@dataclass(frozen=True)
class AutocorrRow:
    reversals: int
    direction: int
    strength: float
    prob_independent: float  # Pr(this reversal count | state 3)


def autocorr_model(
    draws: int = 6, rho_set: tuple[float, float, float] = (2.0 / 3.0, 1.0 / 3.0, 0.5)
) -> tuple[DiscreteSignalModel, list[AutocorrRow]]:
    """Reversal count of a run of binary draws, under three persistence laws.

    ``rho_set`` gives Pr(next draw equals the current one) under states
    1..3. A run of ``draws`` values has draws - 1 transitions, every
    sequence with the same reversal count shares the same likelihoods, and
    the count is sufficient, so the outcomes are the counts "0" through
    "draws-1". Returns the model and a per-count table of direction,
    strength, and the count probability under the independence state.
    """
    draws = _check_int(draws, "draws", 2)
    if not isinstance(rho_set, (tuple, list, np.ndarray)) or len(rho_set) != 3:
        raise ValueError(f"rho_set must be three probabilities, got {rho_set!r}")
    rho_set = [_check_real(rho, "rho_set", 0, 1, "()") for rho in rho_set]
    T = draws - 1
    labels = tuple(str(n) for n in range(T + 1))
    probs = _binomial_rows(T, [(1.0 - rho, rho) for rho in rho_set])
    model = DiscreteSignalModel(outcomes=labels, probs=probs, theta_count=3)
    # per-sequence likelihood ratios equal per-count ratios (the sequence
    # multiplicity comb(T, n) cancels), so the evidence read off the counts
    # is the sequence-level direction and strength
    table = [
        AutocorrRow(
            reversals=n,
            direction=row.direction,
            strength=row.strength,
            prob_independent=row.probs[2],
        )
        for n, row in enumerate(evidence_table(model))
    ]
    return model, table


# ---------------------------------------------------------------------------
# named models: constructor and the default arguments the CLI builds with

SCENARIOS = {
    "lunar": (lunar_model, {}),
    "illusory": (illusory_model, {"alpha": 2.0, "r": 0.1, "q": 0.05}),
    "coin": (coin_model, {"alpha1": 0.7, "alpha2": 0.8, "J": 1}),
    "autocorr": (lambda **kw: autocorr_model(**kw)[0], {"draws": 6}),
}

# every name ``--model`` accepts: the continuous families, then the worked
# problems; the CLI's --lam replaces a "lam" default where one is listed
MODELS = {
    "tilt": (tilt_model, {"lam": 1.0}),
    "asymmetric_tilt": (asymmetric_tilt_model, {}),
    **SCENARIOS,
}


# ---------------------------------------------------------------------------
# JSON loading


def model_from_config(doc: Mapping) -> ContinuousSignalModel | DiscreteSignalModel:
    """Build a model from a JSON-style mapping.

    Named: ``{"family": "tilt", "params": {"lam": 1.0}}``, with any name in
    ``MODELS``, whose defaults the params override.
    Discrete: ``{"theta_count": 2, "outcomes": [...],
    "probs": {"1": [...], "2": [...]}}``, where ``theta_count`` must be an
    integer and ``outcomes`` an array. A document without the keys its kind
    needs, or with bad params, raises ValueError.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"a model document must be a JSON object, got {doc!r}")
    if "family" in doc:
        name, params = doc["family"], doc.get("params", {})
        if not isinstance(name, str) or name not in MODELS:
            raise ValueError(f"unknown family {name!r}; known: {sorted(MODELS)}")
        if not isinstance(params, Mapping):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        build, defaults = MODELS[name]
        try:
            return build(**{**defaults, **params})
        except TypeError as err:  # a key the constructor lacks, a value of a wrong type
            raise ValueError(f"bad params for model {name!r}: {err}") from None
    theta_count = _check_int(doc.get("theta_count", 2), "theta_count", 2)
    outcomes, probs = doc.get("outcomes"), doc.get("probs")
    if not isinstance(outcomes, (list, tuple)) or not isinstance(probs, Mapping):
        raise ValueError(
            "a discrete model document needs 'outcomes' and 'probs' "
            "(a JSON array and a JSON object)"
        )
    rows = []
    for theta in map(str, range(1, theta_count + 1)):
        if theta not in probs:
            raise ValueError(f"'probs' has no row for state {theta}")
        rows.append(probs[theta])
    return DiscreteSignalModel(
        outcomes=tuple(str(o) for o in outcomes),
        probs=np.array(rows, dtype=float),
        theta_count=theta_count,
    )


def load_model(path: str) -> ContinuousSignalModel | DiscreteSignalModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
