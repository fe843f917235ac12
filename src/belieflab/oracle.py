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

from .chain import _birth_death_table, _ladder_move_table
from .signals import (
    DiscreteSignalModel,
    PVector,
    TransitionKernel,
    _SIGNAL_MODELS,
    _check_beta,
    _check_int,
    _check_kind,
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
    state over the outcomes at once (an empty state draws nothing) and
    gathers the split counts by target state with one ``bincount``, whose
    float sums of integer counts stay exact below 2**53 walkers.
    """
    pvals = pvals / pvals.sum()
    targets, size = table[:, dirs].ravel(), table.shape[0]
    counts = np.zeros(size, dtype=np.int64)
    counts[start] = trials
    for _ in range(N):
        drawn = rng.multinomial(counts, pvals).ravel()
        counts = np.bincount(targets, weights=drawn, minlength=size).astype(np.int64)
    return counts


def simulate_chain(
    q: TransitionKernel | PVector,
    theta: int,
    K: int,
    N: int,
    trials: int,
    seed: int,
) -> ChainEstimate:
    """Empirical state distribution after N steps over independent walks.

    The walks are simulated jointly through their occupancy counts: each
    step splits the walkers in every state over the outcomes (up, down,
    stay) with one multinomial draw. That is distributionally identical to
    tracking the trials one by one and keeps a million trials over a
    thousand steps in milliseconds. As in ``finite_n_distribution``, N
    counts raw signals under a kernel and processed signals under its
    processed-signal chain ``conditional_dynamics(q)``.
    """
    trials = _check_int(trials, "trials", 1)
    K = _check_int(K, "K", 1)
    N = _check_int(N, "N", 0)
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    up, down, stay = q.column(theta)
    counts = _walk(
        _birth_death_table(K), np.array([1, 2, 0]), np.array([up, down, stay]),
        K, trials, N, rng,
    )
    probs = counts / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return ChainEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)


def _down_bound(up_at: float) -> float:
    """The largest float r < 1 whose ``1.0 / r`` is at least ``up_at`` >= 1.

    ``fl(1 / r)`` never rises as r rises, so the floats in [0, 1) that pass
    form a prefix. Its end lies within a few float steps of ``1 / up_at``:
    step down until r passes, then up while the next float below 1 passes.
    ``1.0 / r`` is inf for the smallest r, so the first walk stops above 0.
    """
    r = min(1.0 / up_at, math.nextafter(1.0, 0.0))
    while 1.0 / r < up_at:
        r = math.nextafter(r, 0.0)
    while (up := math.nextafter(r, 1.0)) < 1.0 and 1.0 / up >= up_at:
        r = up
    return r


def _final_states(
    model, theta: int, beta: float, K: int, N: int, n: int, rng
) -> np.ndarray:
    """Mental states of n independent agents after N raw signals.

    Both read the birth-death move table: discrete models walk the agents
    jointly through their occupancy counts and return the states sorted;
    continuous models sample every signal and move each agent by its
    likelihood ratio. A signal is evidence for state 1 (up) iff its ratio
    is at least 1 + beta, and for state 2 (down) iff ``1.0 / ratio`` is,
    which for ratios in [0, 1) means ratio <= ``_down_bound(1 + beta)``.
    Both bounds come from beta alone, never from the censoring boundaries
    or masses the oracle checks; other signals are censored (stay).
    """
    if isinstance(model, DiscreteSignalModel):
        counts = _walk(
            _birth_death_table(K), model.directions(beta), model.probs[theta - 1],
            K, n, N, rng,
        )
        return np.repeat(np.arange(-K, K + 1), counts)
    up_at = 1.0 + beta
    # Compared as bit patterns, +0.0 and (0, bound] are down, while -0.0, a
    # negative ratio and NaN (sign bit set, or a pattern above inf's) stay.
    down_to = np.float64(_down_bound(up_at)).view(np.uint64)
    # flat, as one take beats [s, c]: the agent at 3s + 1 steps by c in
    # (-1 down, 0 stay, +1 up) to moves[3s + 1 + c] = 3 * next + 1
    moves = 3 * _birth_death_table(K)[:, [2, 0, 1]].ravel() + 1
    at = np.full(n, 3 * K + 1)
    for _ in range(N):
        ratio = model.likelihood_ratio(model.sampler(rng, theta, n))
        at += ratio >= up_at
        at -= ratio.view(np.uint64) <= down_to
        at = moves.take(at)
    return at // 3 - K


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
    posterior rho_tilde * lam * d**s clears Gamma or the shift lam * d**s
    is infinite. The prior draws are independent of the final states, so
    pairing them with sorted states is as good as pairing them agent by
    agent.
    """
    trials = _check_int(trials, "trials", 2)  # two for a standard error
    N = _check_int(N, "N", 0)
    beta = _check_beta(beta)
    seed = _check_int(seed, "seed", 0)
    _check_kind(model, "model", _SIGNAL_MODELS, 2)
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(trials, spec.pi))
    payoffs = np.empty(trials)
    cursor = 0
    for theta, n in ((1, n1), (2, trials - n1)):
        if n == 0:
            continue
        s = _final_states(model, theta, beta, spec.K, N, n, rng)
        # as in _act_probabilities, an infinite shift acts 1 and a zero one
        # 0, also where the prior draw makes the posterior 0 * inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            if spec.prior.sigma_log > 0.0:
                rho_tilde = spec.prior.rho * np.exp(
                    spec.prior.sigma_log * rng.standard_normal(n)
                )
            else:
                rho_tilde = np.full(n, spec.prior.rho)
            shift = np.float_power(strategy.d, s)
            post = rho_tilde * strategy.lam * shift
            act1 = (post >= spec.Gamma) | (strategy.lam * shift == math.inf)
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
    _check_kind(model, "model", DiscreteSignalModel, 3)
    trials = _check_int(trials, "trials", 1)
    K = _check_int(K, "K", 1)
    N = _check_int(N, "N", 0)
    seed = _check_int(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    table, directions = _ladder_move_table(K), model.directions(beta)
    counts = [
        _walk(table, directions, model.probs[theta - 1], 0, trials, N, rng)
        for theta in (1, 2, 3)
    ]
    probs = np.array(counts) / trials
    stderr = np.sqrt(probs * (1.0 - probs) / trials)
    return LadderEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)
