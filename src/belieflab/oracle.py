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

from .chain import _check_n, _ladder_move_table
from .signals import ContinuousSignalModel, DiscreteSignalModel, TransitionKernel
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
    step redistributes the walkers in every state with one multinomial draw.
    That is distributionally identical to tracking the trials one by one and
    keeps a million trials over a thousand steps in milliseconds.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_n(N)
    rng = np.random.default_rng(seed)
    up, down, stay = q.column(theta)
    if processed_only:
        total = up + down
        if total <= 0:
            raise ValueError(f"nothing is processed under theta={theta}")
        up, down, stay = up / total, down / total, 0.0
    pvals = np.array([up, down, stay])
    pvals = pvals / pvals.sum()
    n = 2 * K + 1
    counts = np.zeros(n, dtype=np.int64)
    counts[K] = trials
    for _ in range(N):
        nxt = np.zeros_like(counts)
        for i in range(n):
            c = int(counts[i])
            if c == 0:
                continue
            moved = rng.multinomial(c, pvals)
            nxt[min(i + 1, n - 1)] += moved[0]
            nxt[max(i - 1, 0)] += moved[1]
            nxt[i] += moved[2]
        counts = nxt
    probs = counts / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return ChainEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)


def _final_states(
    model, theta: int, beta: float, K: int, N: int, n: int, rng
) -> np.ndarray:
    """Mental states of n independent agents after N raw signals."""
    s = np.zeros(n, dtype=np.int64)
    if isinstance(model, DiscreteSignalModel):
        directions = model.directions(beta)
        moves = np.where(directions == 1, 1, np.where(directions == 0, 0, -1))
        cum = np.cumsum(model.probs[theta - 1])
        cum[-1] = 1.0
        for _ in range(N):
            idx = np.searchsorted(cum, rng.random(n), side="right")
            s = np.clip(s + moves[idx], -K, K)
        return s
    if not isinstance(model, ContinuousSignalModel):
        raise TypeError(f"unsupported model type {type(model)!r}")
    if model.sampler is None:
        raise ValueError("continuous model has no sampler attached")
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

    Per trial: draw the state, draw the prior, stream N raw signals through
    censoring and the mental chain, then act 1 iff the posterior
    rho_tilde * lam * d**s clears Gamma.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
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
    if model.theta_count != 3:
        raise ValueError("simulate_ladder needs a three-state model")
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    directions = model.directions(beta)
    table = _ladder_move_table(K)
    n_states = 3 * K + 1
    probs = np.empty((3, n_states))
    for theta in (1, 2, 3):
        cum = np.cumsum(model.probs[theta - 1])
        cum[-1] = 1.0
        s = np.zeros(trials, dtype=np.int64)
        for _ in range(N):
            idx = np.searchsorted(cum, rng.random(trials), side="right")
            s = table[s, directions[idx]]
        probs[theta - 1] = np.bincount(s, minlength=n_states) / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return LadderEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)
