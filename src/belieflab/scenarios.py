"""Worked discrimination problems as discrete signal models.

Each constructor builds the exact outcome table of a story problem:

* ``lunar_model``: does a full moon raise the number of deliveries pushing a
  ward over capacity, or not?
* ``illusory_model``: does a rare premise P raise the chance of a rare
  consequence C, or not?
* ``coin_model``: which of two tail biases drives a coin?
* ``autocorr_model``: are consecutive binary draws positively correlated,
  negatively correlated, or independent? (three underlying states)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import (
    DiscreteSignalModel,
    _check_int,
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
    "autocorr_model",
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
    kept = model.directions(beta)
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
    _check_int(capacity=capacity, cutoff=cutoff)
    if tension_ceiling is not None:
        _check_int(tension_ceiling=tension_ceiling)
    if base_rate <= 0 or effect <= 1 or capacity < 1:
        raise ValueError("need base_rate > 0, effect > 1, capacity >= 1")
    if not 0.0 < full_moon_frac < 1.0:
        raise ValueError("full_moon_frac must lie in (0, 1)")
    if cutoff <= capacity:
        raise ValueError("cutoff must exceed capacity")
    max_tension = cutoff - capacity
    if tension_ceiling is None or tension_ceiling >= max_tension:
        tension_ceiling = max_tension
    if tension_ceiling < 1:
        raise ValueError("tension_ceiling must be at least 1")
    rate_calm = base_rate / (1.0 + full_moon_frac * (effect - 1.0))
    rate_moon = effect * rate_calm
    # rate by (state, moon indicator)
    rates = {(1, 0): rate_calm, (1, 1): rate_moon, (2, 0): base_rate, (2, 1): base_rate}
    moon_prob = {0: 1.0 - full_moon_frac, 1: full_moon_frac}
    labels = []
    columns = []
    for moon in (0, 1):
        for tension in range(0, tension_ceiling + 1):
            labels.append(f"{tension},{moon}")
            col = []
            for theta in (1, 2):
                rate = rates[(theta, moon)]
                if tension == 0:
                    mass = _poisson_cdf(rate, capacity)
                else:
                    mass = _poisson_pmf(rate, capacity + tension)
                col.append(moon_prob[moon] * mass)
            columns.append(col)
        if tension_ceiling < max_tension:
            labels.append(f"{tension_ceiling + 1}+,{moon}")
            col = []
            for theta in (1, 2):
                rate = rates[(theta, moon)]
                mass = math.fsum(
                    _poisson_pmf(rate, capacity + t)
                    for t in range(tension_ceiling + 1, max_tension + 1)
                )
                col.append(moon_prob[moon] * mass)
            columns.append(col)
    probs = np.array(columns, dtype=float).T
    probs /= probs.sum(axis=1, keepdims=True)  # drop the truncated tail
    return DiscreteSignalModel(outcomes=tuple(labels), probs=probs, theta_count=2)


def lunar_strength_rows(
    model: DiscreteSignalModel | None = None, max_tension: int = 8
) -> tuple[list[tuple[str, float]], list[tuple[str, float]]]:
    """The two published-style strength rows, ((for-state-2), (for-state-1)).

    The state-2 row runs ("0,1", then tension 8..1 on calm days); the
    state-1 row runs ("0,0", then tension 1..8 on full-moon days).
    """
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
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if not (0.0 < r < 1.0 and 0.0 < q < 1.0):
        raise ValueError("r and q must lie in (0, 1)")
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


def coin_model(alpha1: float, alpha2: float, J: int = 1) -> DiscreteSignalModel:
    """Tail-count of J coin flips under two candidate tail biases.

    Outcome labels are the tail counts "0".."J". The tail count is
    sufficient for a batch of flips, so the model advertises a
    batch_builder and ``batch`` stays exact at any batch size.
    """
    for name, a in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not 0.0 < a < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")
    _check_int(J=J)
    if J < 1:
        raise ValueError("J must be a positive integer")
    labels = tuple(str(k) for k in range(J + 1))
    probs = np.array(
        [
            [math.comb(J, k) * a**k * (1.0 - a) ** (J - k) for k in range(J + 1)]
            for a in (alpha1, alpha2)
        ]
    )
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
    _check_int(draws=draws)
    if draws < 2:
        raise ValueError("draws must be at least 2")
    if len(rho_set) != 3 or not all(0.0 < r < 1.0 for r in rho_set):
        raise ValueError("rho_set must be three probabilities in (0, 1)")
    T = draws - 1
    labels = tuple(str(n) for n in range(T + 1))
    probs = np.array(
        [
            [math.comb(T, n) * (1.0 - rho) ** n * rho ** (T - n) for n in range(T + 1)]
            for rho in rho_set
        ]
    )
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
