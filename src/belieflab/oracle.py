"""Monte Carlo verification of the closed forms.

Everything here samples: signal streams, censoring, mental-state walks,
prior draws, decisions, payoffs. Agreement with the deterministic pipeline
(at a few standard errors) is the end-to-end correctness check.

Randomness comes from numpy's PCG64 through ``default_rng(seed)``; a given
seed fully determines every output, so estimates are bit-reproducible and
usable as regression anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _check_k, _check_n, _ladder_move_table
from .signals import (
    ContinuousSignalModel,
    DiscreteSignalModel,
    FullyCensored,
    TransitionKernel,
    _check_beta,
    _check_int,
)
from .welfare import ProblemSpec

__all__ = [
    "ChainEstimate",
    "WelfareEstimate",
    "LadderEstimate",
    "simulate_chain",
    "simulate_welfare",
    "simulate_ladder",
]


@dataclass(frozen=True)
class ChainEstimate:
    probs: np.ndarray
    stderr: np.ndarray
    trials: int
    seed: int


@dataclass(frozen=True)
class WelfareEstimate:
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int
    seed: int


@dataclass(frozen=True)
class LadderEstimate:
    probs: np.ndarray   # shape (3, 3K + 1), one row per underlying state
    stderr: np.ndarray
    trials: int
    seed: int


def _walk(table, dirs, pvals, start: int, trials: int, N: int, rng) -> np.ndarray:
    """Occupancy counts of ``trials`` walkers from ``start`` after N steps.

    Outcome k has probability ``pvals[k]`` and moves a walker in ``state``
    to ``table[state, dirs[k]]``. Each step splits the walkers of every
    state over the outcomes at once; an empty state draws nothing.
    """
    pvals = pvals / pvals.sum()
    targets = table[:, dirs]
    counts = np.zeros(table.shape[0], dtype=np.int64)
    counts[start] = trials
    for _ in range(N):
        drawn = rng.multinomial(counts, pvals)
        counts = np.zeros_like(counts)
        np.add.at(counts, targets, drawn)
    return counts


def _birth_death_table(K: int) -> np.ndarray:
    """Next state on -K..K (stored from 0) for directions (stay, up, down)."""
    i = np.arange(2 * K + 1)
    return np.stack([i, np.minimum(i + 1, 2 * K), np.maximum(i - 1, 0)], axis=1)


def simulate_chain(
    q: TransitionKernel,
    theta: int,
    K: int,
    N: int,
    trials: int,
    seed: int,
    processed_only: bool = False,
) -> ChainEstimate:
    """Empirical state distribution after N steps over independent walks.

    The walks are simulated jointly through their occupancy counts: each
    step splits the walkers in every state over the outcomes (up, down,
    stay) with one multinomial draw. That is distributionally identical to
    tracking the trials one by one and keeps a million trials over a
    thousand steps in milliseconds. ``processed_only`` is as in
    ``finite_n_distribution``.
    """
    _check_int(trials=trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_k(K)
    _check_n(N)
    rng = np.random.default_rng(seed)
    up, down, stay = q.column(theta)
    if processed_only:
        total = up + down
        if total <= 0:
            raise FullyCensored(theta)
        up, down, stay = up / total, down / total, 0.0
    counts = _walk(
        _birth_death_table(K), np.array([1, 2, 0]), np.array([up, down, stay]),
        K, trials, N, rng,
    )
    probs = counts / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return ChainEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)


def _final_states(
    model, theta: int, beta: float, K: int, N: int, n: int, rng
) -> np.ndarray:
    """Mental states of n independent agents after N raw signals.

    Discrete models walk the agents jointly through their occupancy counts
    and return the states sorted; continuous models sample every signal.
    """
    if isinstance(model, DiscreteSignalModel):
        if model.theta_count != 2:
            raise ValueError("simulate_welfare needs a two-state model")
        counts = _walk(
            _birth_death_table(K), model.directions(beta), model.probs[theta - 1],
            K, n, N, rng,
        )
        return np.repeat(np.arange(-K, K + 1), counts)
    if not isinstance(model, ContinuousSignalModel):
        raise TypeError(f"unsupported model type {type(model)!r}")
    if model.sampler is None:
        raise ValueError("continuous model has no sampler attached")
    s = np.zeros(n, dtype=np.int64)
    for _ in range(N):
        x = model.sampler(rng, theta, n)
        ratio = model.likelihood_ratio(x)
        for1 = ratio >= 1.0
        strength = np.where(for1, ratio, 1.0 / ratio)
        step = np.where(strength >= 1.0 + beta, np.where(for1, 1, -1), 0)
        s = np.clip(s + step, -K, K)
    return s


def simulate_welfare(
    model,
    spec: ProblemSpec,
    strategy,
    beta: float,
    N: int,
    trials: int,
    seed: int,
) -> WelfareEstimate:
    """Realized welfare of the full pipeline, with a 95% CI.

    Per trial: draw the state, run N raw signals through censoring and the
    mental chain (``_final_states``), draw the prior, then act 1 iff the
    posterior rho_tilde * lam * d**s clears Gamma. The prior draws are
    independent of the final states, so pairing them with sorted states is
    as good as pairing them agent by agent.
    """
    _check_int(trials=trials)
    if trials < 2:
        raise ValueError("trials must be at least 2 for a standard error")
    _check_n(N)
    _check_beta(beta)
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(trials, spec.pi))
    payoffs = np.empty(trials)
    cursor = 0
    for theta, n in ((1, n1), (2, trials - n1)):
        if n == 0:
            continue
        s = _final_states(model, theta, beta, spec.K, N, n, rng)
        if spec.prior.sigma_log > 0.0:
            rho_tilde = spec.prior.rho * np.exp(
                spec.prior.sigma_log * rng.standard_normal(n)
            )
        else:
            rho_tilde = np.full(n, spec.prior.rho)
        post = rho_tilde * strategy.lam * np.float_power(strategy.d, s)
        act1 = post >= spec.Gamma
        if theta == 1:
            pay = (1.0 - spec.gamma) * act1
        else:
            pay = spec.gamma * (~act1)
        payoffs[cursor : cursor + n] = pay
        cursor += n
    estimate = float(payoffs.mean())
    stderr = float(payoffs.std(ddof=1) / math.sqrt(trials))
    return WelfareEstimate(
        estimate=estimate,
        stderr=stderr,
        ci_low=estimate - 1.96 * stderr,
        ci_high=estimate + 1.96 * stderr,
        trials=trials,
        seed=seed,
    )


def simulate_ladder(
    model: DiscreteSignalModel,
    K: int,
    N: int,
    trials: int,
    seed: int,
    beta: float = 0.0,
) -> LadderEstimate:
    """Empirical occupancy of the three-ladder system under each state."""
    if not isinstance(model, DiscreteSignalModel) or model.theta_count != 3:
        raise ValueError("simulate_ladder needs a three-state discrete model")
    _check_int(trials=trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_k(K)
    _check_n(N)
    rng = np.random.default_rng(seed)
    table, directions = _ladder_move_table(K), model.directions(beta)
    counts = [
        _walk(table, directions, model.probs[theta - 1], 0, trials, N, rng)
        for theta in (1, 2, 3)
    ]
    probs = np.array(counts) / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return LadderEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)
