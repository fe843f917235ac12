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

from .beliefs import _check_rule
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
class LadderEstimate(ChainEstimate):
    """A ChainEstimate with one row of shape (3K + 1,) per underlying state."""


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


def _occupancy(table, dirs, rows, start: int, trials: int, N: int, seed: int):
    """Occupancy laws of ``trials`` walks and their binomial standard errors.

    One generator seeded by ``seed`` runs one ``_walk`` per row of outcome
    probabilities, in order. Walking the trials jointly through their
    counts is distributionally identical to walking them one by one, and
    runs a million trials over a thousand steps in milliseconds.
    """
    rng = np.random.default_rng(seed)
    probs = np.array([_walk(table, dirs, row, start, trials, N, rng) for row in rows]) / trials
    return probs, np.sqrt(probs * (1.0 - probs) / trials)


def simulate_chain(
    q: TransitionKernel | PVector,
    theta: int,
    K: int,
    N: int,
    trials: int,
    seed: int,
) -> ChainEstimate:
    """Empirical state distribution after N steps over independent walks.

    As in ``finite_n_distribution``, N counts raw signals under a kernel and
    processed signals under its processed-signal chain
    ``conditional_dynamics(q)``.
    """
    trials = _check_int(trials, "trials", 1)
    K = _check_int(K, "K", 1)
    N = _check_int(N, "N", 0)
    seed = _check_int(seed, "seed", 0)
    _check_kind(q, "q", (PVector, TransitionKernel))
    rows = np.array([q.column(theta)])  # one row of (up, down, stay)
    probs, stderr = _occupancy(_birth_death_table(K), [1, 2, 0], rows, K, trials, N, seed)
    return ChainEstimate(probs=probs[0], stderr=stderr[0], trials=trials, seed=seed)


def _final_states(
    model, theta: int, beta: float, K: int, N: int, n: int, rng
) -> np.ndarray:
    """Mental states of n independent agents after N raw signals.

    Both read the birth-death move table: discrete models walk the agents
    jointly through their occupancy counts and return the states sorted;
    continuous models sample every signal and move each agent by its
    closed-form log-likelihood ratio: up iff it is at least log1p(beta), down
    iff at most -log1p(beta) and below 0 (a tie at beta = 0 goes up, as in
    ``classify``), else stay, as NaN does. Both bounds come from beta alone,
    never from the censoring code the oracle checks.
    """
    if isinstance(model, DiscreteSignalModel):
        counts = _walk(
            _birth_death_table(K), model.directions(beta), model.probs[theta - 1],
            K, n, N, rng,
        )
        return np.repeat(np.arange(-K, K + 1), counts)
    up_at = math.log1p(beta)
    down_at = -max(up_at, 5e-324)
    # flat, as one take beats [s, c]: the agent at 3s + 1 steps by c in
    # (-1 down, 0 stay, +1 up) to moves[3s + 1 + c] = 3 * next + 1
    moves = 3 * _birth_death_table(K)[:, [2, 0, 1]].ravel() + 1
    at = np.full(n, 3 * K + 1)
    for _ in range(N):
        log_ratio = model.log_likelihood_ratio(model.sampler(rng, theta, n))
        at += log_ratio >= up_at
        at -= log_ratio <= down_at
        at = moves.take(at)
    return at // 3 - K


def simulate_welfare(
    model,
    spec,
    strategy,
    beta: float,
    N: int,
    trials: int,
    seed: int,
) -> WelfareEstimate:
    """Realized welfare of the full pipeline, with a 95% CI.

    spec is a ``welfare.ProblemSpec``, and strategy a posterior rule checked
    as the closed form checks it (``beliefs._check_rule``). Per trial: draw
    the state, run N raw signals through censoring and the mental chain
    (``_final_states``), draw the prior, then act 1 iff the posterior
    rho_tilde * lam * d**s clears Gamma or the shift lam * d**s is
    infinite. The prior draws are independent of the final states, so
    pairing them with sorted states is as good as pairing them agent by
    agent.
    """
    trials = _check_int(trials, "trials", 2)  # two for a standard error
    N = _check_int(N, "N", 0)
    beta = _check_beta(beta)
    seed = _check_int(seed, "seed", 0)
    _check_kind(model, "model", _SIGNAL_MODELS, 2)
    _check_rule(strategy)
    rng = np.random.default_rng(seed)
    n1 = int(rng.binomial(trials, _check_kind(spec, "spec", ProblemSpec).pi))
    payoffs = []
    for theta, n in ((1, n1), (2, trials - n1)):
        if n == 0:
            continue
        s = _final_states(model, theta, beta, spec.K, N, n, rng)
        # as in _act_probabilities, an infinite shift acts 1 and a zero one
        # 0, also where the prior draw makes the posterior 0 * inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            rho_tilde = spec.prior.rho
            if spec.prior.sigma_log > 0.0:
                rho_tilde = rho_tilde * np.exp(spec.prior.sigma_log * rng.standard_normal(n))
            shift = np.float_power(strategy.d, s)
            post = rho_tilde * strategy.lam * shift
            act1 = (post >= spec.Gamma) | (strategy.lam * shift == math.inf)
        payoffs.append((1.0 - spec.gamma) * act1 if theta == 1 else spec.gamma * (~act1))
    payoffs = np.concatenate(payoffs)
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
    probs, stderr = _occupancy(
        _ladder_move_table(K), model.directions(beta), model.probs, 0, trials, N, seed
    )
    return LadderEstimate(probs=probs, stderr=stderr, trials=trials, seed=seed)
