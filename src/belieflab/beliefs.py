"""Belief formation: priors, posterior rules, and decision thresholds.

Beliefs are tracked as odds of state 1 against state 2. An agent in mental
state s with realized prior odds rho_tilde holds posterior odds
rho_tilde * lam * d**s and takes action 1 whenever the posterior clears the
stakes ratio Gamma = gamma / (1 - gamma).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import _check_k
from .signals import PVector, _check_finite

__all__ = [
    "PriorModel",
    "BeliefStrategy",
    "BayesParams",
    "Stakes",
    "posterior",
    "decision_threshold",
    "prior_exceed_prob",
    "threshold_mass",
    "bayes_params",
]

_SQRT2 = math.sqrt(2.0)
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PriorModel:
    """Noisy prior odds: log(rho_tilde) ~ Normal(log(rho), sigma_log**2).

    sigma_log = 0 collapses to the deterministic prior rho_tilde = rho.
    """

    rho: float
    sigma_log: float = 0.0

    def __post_init__(self):
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho!r}")
        if self.sigma_log < 0:
            raise ValueError("sigma_log must be nonnegative")
        _check_finite(rho=self.rho, sigma_log=self.sigma_log)

    @classmethod
    def from_probability(cls, pi: float, sigma_log: float = 0.0) -> "PriorModel":
        if not 0.0 < pi < 1.0:
            raise ValueError(f"pi must lie in (0, 1), got {pi!r}")
        return cls(rho=pi / (1.0 - pi), sigma_log=sigma_log)


@dataclass(frozen=True)
class BeliefStrategy:
    """Agent-tunable posterior rule rho_tilde * lam * d**s.

    d is the discriminatory power granted to the mental system (d = 1 keeps
    the prior); lam shifts all posteriors by a constant factor.
    """

    d: float
    lam: float = 1.0

    def __post_init__(self):
        if not self.d >= 1.0:
            raise ValueError(f"d must be >= 1, got {self.d!r}")
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam!r}")
        _check_finite(d=self.d, lam=self.lam)


@dataclass(frozen=True)
class BayesParams:
    """Posterior-rule parameters that replicate exact Bayesian updating.

    Unlike BeliefStrategy, d may fall below 1 (the chain then leans against
    its own labels and the Bayes rule reads the mental state inverted).
    ``degenerate`` marks boundary dynamics whose posteriors are point
    beliefs; d and lam are NaN there.
    """

    d: float
    lam: float
    degenerate: bool = False


@dataclass(frozen=True)
class Stakes:
    """Payoff weight gamma on acting right in state 2, as odds Gamma."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")

    @property
    def ratio(self) -> float:
        if self.gamma == 1.0:
            return math.inf
        return self.gamma / (1.0 - self.gamma)


def posterior(strategy, rho_tilde: float, s: int) -> float:
    """Posterior odds of state 1 in mental state s; inf when d**s overflows."""
    try:
        return rho_tilde * strategy.lam * strategy.d**s
    except OverflowError:
        return math.inf


def decision_threshold(strategy, rho_tilde: float, Gamma: float, K: int) -> int:
    """Smallest mental state whose posterior clears Gamma.

    Returns -K when even the lowest state acts 1 and K + 1 when no state
    does. Indifference counts as acting 1 (the ">= Gamma" convention is used
    everywhere). Requires d >= 1 so that posteriors rise with the state.
    """
    if not strategy.d >= 1.0:
        raise ValueError("decision_threshold assumes d >= 1")
    if not rho_tilde > 0.0:
        raise ValueError(f"rho_tilde must be positive, got {rho_tilde!r}")
    for s in range(-K, K + 1):
        if posterior(strategy, rho_tilde, s) >= Gamma:
            return s
    return K + 1


def prior_exceed_prob(prior: PriorModel, t: float) -> float:
    """Pr(rho_tilde >= t) for the lognormal prior, exact via erfc."""
    if t == math.inf:
        return 0.0
    if not t > 0.0:
        if t == 0.0:
            return 1.0
        raise ValueError(f"threshold t must be positive, got {t!r}")
    if prior.sigma_log == 0.0:
        return 1.0 if prior.rho >= t else 0.0
    z = (math.log(prior.rho) - math.log(t)) / prior.sigma_log
    return 0.5 * math.erfc(-z / _SQRT2)


def _act_probabilities(prior: PriorModel, strategy, Gamma: float, K: int) -> np.ndarray:
    """Pr(posterior >= Gamma | mental state s) over prior noise, s = -K..K.

    A shift lam * d**s that overflows or underflows acts 1 or 0 outright.
    """
    d, lam = strategy.d, strategy.lam
    out = np.empty(2 * K + 1)
    for i, s in enumerate(range(-K, K + 1)):
        try:
            shift = lam * d**s
        except OverflowError:
            shift = math.inf
        t = Gamma / shift if shift not in (0.0, math.inf) else (
            math.inf if shift == 0.0 else 0.0
        )
        out[i] = prior_exceed_prob(prior, t)
    return out


def threshold_mass(
    prior: PriorModel, strategy, Gamma: float, K: int
) -> np.ndarray:
    """Law of the decision threshold over prior noise.

    Entry j is Pr(threshold = j - K) for j = 0..2K, and the last entry is
    the probability that no state acts (threshold K + 1): Pr(threshold <= s)
    is the act probability at s, so the law is its difference.
    """
    if not strategy.d >= 1.0:
        raise ValueError("threshold_mass assumes d >= 1")
    cum = _act_probabilities(prior, strategy, Gamma, K)
    return np.concatenate(
        ([cum[0]], np.maximum(np.diff(cum), 0.0), [max(1.0 - cum[-1], 0.0)])
    )


def bayes_params(p: PVector, K: int) -> BayesParams:
    """Posterior-rule parameters of the exact Bayes rule for dynamics p.

    d is the per-state posterior step r1 / r2 and lam compares the
    normalizing weights of the two long-run distributions, so
    rho * lam * d**s equals the true posterior odds in state s. Boundary
    dynamics are flagged degenerate instead of producing parameters.
    """
    _check_k(K)
    if not p.interior:
        return BayesParams(d=math.nan, lam=math.nan, degenerate=True)
    r1, r2 = p.r1, p.r2
    s = np.arange(-K, K + 1, dtype=float)
    # below this bound no power r**s and neither sum can overflow
    if K * max(abs(math.log(r1)), abs(math.log(r2))) + math.log(2 * K + 1) < _LOG_MAX:
        lam = float(np.sum(r2**s) / np.sum(r1**s))
    else:
        lam = _lam_near_overflow(p, K, s)
    return BayesParams(d=r1 / r2, lam=lam, degenerate=False)


def _lam_near_overflow(p: PVector, K: int, s: np.ndarray) -> float:
    """The Bayes lam where a power r**s may overflow.

    The direct ratio stands where both sums stay finite. Otherwise each sum
    is taken in logs over the larger of the odds and their inverse (the sum
    is the same for both), anchored at its top power; a lam beyond the float
    range is inf.
    """
    with np.errstate(over="ignore"):
        num, den = np.sum(p.r2**s), np.sum(p.r1**s)
    if math.isfinite(num) and math.isfinite(den):
        return float(num / den)
    logs = []
    for q in (p.p22, p.p11):
        odds = max(q, 1.0 - q) / min(q, 1.0 - q)
        logs.append(K * math.log(odds) + math.log(float(np.sum(odds ** (s - K)))))
    log_lam = logs[0] - logs[1]
    return math.exp(log_lam) if log_lam < _LOG_MAX else math.inf
