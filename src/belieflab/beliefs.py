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

from .signals import PVector, _check_int, _check_kind, _check_real, _interior

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
        object.__setattr__(self, "rho", _check_real(self.rho, "rho", 0, math.inf, "()"))
        object.__setattr__(
            self, "sigma_log", _check_real(self.sigma_log, "sigma_log", 0, math.inf, "[)")
        )

    @classmethod
    def from_probability(cls, pi: float, sigma_log: float = 0.0) -> "PriorModel":
        return cls(rho=_objective_odds(pi), sigma_log=sigma_log)


def _objective_odds(pi: float) -> float:
    """Odds pi / (1 - pi) of state 1 for a state frequency pi in (0, 1)."""
    pi = _check_real(pi, "pi", 0, 1, "()")
    return pi / (1.0 - pi)


@dataclass(frozen=True)
class BeliefStrategy:
    """Agent-tunable posterior rule rho_tilde * lam * d**s.

    d is the discriminatory power granted to the mental system (d = 1 keeps
    the prior); lam shifts all posteriors by a constant factor.
    """

    d: float
    lam: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", _check_real(self.d, "d", 1, math.inf, "[)"))
        object.__setattr__(self, "lam", _check_real(self.lam, "lam", 0, math.inf, "()"))


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
        object.__setattr__(self, "gamma", _check_real(self.gamma, "gamma", 0, 1, "[]"))

    @property
    def ratio(self) -> float:
        if self.gamma == 1.0:
            return math.inf
        return self.gamma / (1.0 - self.gamma)


def _check_rule(strategy):
    """``strategy``; ValueError unless it is a posterior rule: a ``BeliefStrategy``,
    or ``BayesParams`` that are not degenerate, with d and lam in (0, inf)."""
    _check_kind(strategy, "strategy", (BeliefStrategy, BayesParams))
    if isinstance(strategy, BayesParams):
        if strategy.degenerate:
            raise ValueError("degenerate parameters have no posterior rule to evaluate")
        _check_real(strategy.d, "d", 0, math.inf, "()")
        _check_real(strategy.lam, "lam", 0, math.inf, "()")
    return strategy


def posterior(strategy, rho_tilde: float, s: int) -> float:
    """Posterior odds of state 1 in mental state s; inf when d**s overflows."""
    _check_rule(strategy)
    rho_tilde = _check_real(rho_tilde, "rho_tilde", 0, math.inf, "()")
    try:
        return rho_tilde * strategy.lam * strategy.d**s
    except OverflowError:
        return math.inf


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc elementwise over the float array x.

    numpy has no erfc, so the act step takes ``math.erfc`` here, one Python
    float at a time; every other step is numpy arithmetic.
    """
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def decision_threshold(strategy, rho_tilde: float, Gamma: float, K: int) -> int:
    """Smallest mental state whose posterior clears Gamma.

    Returns -K when even the lowest state acts 1 and K + 1 when no state
    does. Indifference counts as acting 1 (the ">= Gamma" convention is used
    everywhere). This is the point mass of ``threshold_mass`` at the
    deterministic prior rho_tilde, so the two agree at ties, and it reads
    the same arguments: d >= 1 so that posteriors rise with the state, and
    Gamma >= 0 (inf included: then no finite posterior acts).
    """
    rho_tilde = _check_real(rho_tilde, "rho_tilde", 0, math.inf, "()")
    return int(threshold_mass(PriorModel(rho_tilde), strategy, Gamma, K).argmax() - K)


def prior_exceed_prob(prior: PriorModel, t: float) -> float:
    """Pr(rho_tilde >= t) for the lognormal prior, exact via erfc."""
    t = _check_real(t, "t", 0, math.inf, "[]")
    return float(_exceed_probs(_check_kind(prior, "prior", PriorModel), t))


def _exceed_probs(prior: PriorModel, t) -> np.ndarray:
    """``prior_exceed_prob`` elementwise over an array of thresholds t in [0, inf]."""
    t = np.asarray(t, dtype=float)
    if prior.sigma_log == 0.0:
        return (prior.rho >= t).astype(float)
    # t = 0 gives z = inf and exactly 1, t = inf gives z = -inf and exactly 0
    with np.errstate(all="ignore"):  # log 0 = -inf, and a float overflows to inf quietly
        z = (math.log(prior.rho) - np.log(t)) / prior.sigma_log
    return 0.5 * _erfc(-z / _SQRT2)


def _act_probabilities(prior: PriorModel, d, lam, Gamma, K: int) -> np.ndarray:
    """Pr(posterior >= Gamma | mental state s) over prior noise, s = -K..K.

    One row (..., 2K+1) per entry of the broadcast d, lam and Gamma; scalars
    give one row. The shift lam * d**s is the posterior at prior odds 1 (see
    ``posterior``); one that overflows or underflows acts 1 or 0 outright.
    Callers keep lam in (0, inf), d >= 0 and Gamma in [0, inf] (by ``_check_rule``
    or their own checks and masks), so each threshold Gamma / shift is in [0, inf].
    """
    lam, Gamma = (np.asarray(v, dtype=float)[..., None] for v in (lam, Gamma))
    with np.errstate(all="ignore"):  # a float overflows to inf quietly, as in Python
        shift = lam * np.asarray(d, dtype=float)[..., None] ** np.arange(-K, K + 1.0)
        t = np.where(shift == math.inf, 0.0, Gamma / shift)
    return _exceed_probs(prior, np.where(shift == 0.0, math.inf, t))


def threshold_mass(
    prior: PriorModel, strategy, Gamma: float, K: int
) -> np.ndarray:
    """Law of the decision threshold over prior noise.

    Entry j is Pr(threshold = j - K) for j = 0..2K, and the last entry is
    the probability that no state acts (threshold K + 1): Pr(threshold <= s)
    is the act probability at s, so the law is its difference.
    """
    _check_kind(prior, "prior", PriorModel)
    _check_real(_check_rule(strategy).d, "strategy.d", 1, math.inf, "[]")
    K = _check_int(K, "K", 1)
    Gamma = _check_real(Gamma, "Gamma", 0, math.inf, "[]")
    cum = _act_probabilities(prior, strategy.d, strategy.lam, Gamma, K)
    return np.concatenate(
        ([cum[0]], np.maximum(np.diff(cum), 0.0), [max(1.0 - cum[-1], 0.0)])
    )


def bayes_params(p: PVector, K: int) -> BayesParams:
    """Posterior-rule parameters of the exact Bayes rule for dynamics p.

    d is the per-state posterior step r1 / r2 and lam compares the
    normalizing weights of the two long-run distributions, so
    rho * lam * d**s equals the true posterior odds in state s. Boundary
    dynamics, and odds past the float range (a subnormal p22), are flagged
    degenerate instead of producing parameters.
    """
    K = _check_int(K, "K", 1)
    if _check_kind(p, "p", PVector).interior:
        d, lam = _bayes_params(p.p11, p.p22, K)
        if not math.isnan(d):
            return BayesParams(d=float(d), lam=float(lam), degenerate=False)
    return BayesParams(d=math.nan, lam=math.nan, degenerate=True)


def _bayes_params(p11, p22, K: int):
    """(d, lam) of ``bayes_params`` elementwise over arrays of p; NaN where p
    is not interior or its odds are not finite."""
    inner, r = _drift_odds(p11, p22)
    lam = np.empty(inner.shape)
    # below this bound no power r**s and neither sum can overflow
    bound = K * np.abs(np.log(r)).max(axis=-1) + math.log(2 * K + 1)
    small = bound < _LOG_MAX
    s = np.arange(-K, K + 1, dtype=float)
    z = (r[small][..., None] ** s).sum(axis=-1)
    lam[small] = z[..., 1] / z[..., 0]
    if not small.all():
        log_z = _log_normalizer(np.log(r[~small]), K)
        log_lam = log_z[..., 1] - log_z[..., 0]
        big = log_lam < _LOG_MAX
        lam[~small] = np.where(big, np.exp(np.where(big, log_lam, 0.0)), math.inf)
    return (
        np.where(inner, r[..., 0] / r[..., 1], math.nan),
        np.where(inner, lam, math.nan),
    )


def _drift_odds(p11, p22):
    """Whether p is interior with finite odds, and its odds (r1, r2) on a
    last axis (1 where it is not), elementwise over arrays of p.

    A p22 at or below 2**-1024 is interior, but its r2 = (1 - p22) / p22
    overflows to inf; such a p counts as a boundary p. r1 <= 2**53 is finite.
    """
    inner = np.asarray(_interior(p11, p22) & (p22 > 2.0**-1024))
    r = np.ones(inner.shape + (2,))
    np.divide(p11, 1.0 - p11, out=r[..., 0], where=inner)
    np.divide(1.0 - p22, p22, out=r[..., 1], where=inner)
    return inner, r


def _log_normalizer(log_r, K: int, with_mean: bool = False):
    """log sum_s r**s over s = -K..K, elementwise over an array of log r.

    Each weight is taken relative to the largest, so none overflows;
    ``with_mean`` adds the mean of s under the weights, the sum's log
    derivative.
    """
    log_r = np.asarray(log_r, dtype=float)[..., None]
    s = np.arange(-K, K + 1)
    top = np.copysign(K, log_r)  # the state of the largest weight
    w = np.exp(log_r * (s - top))
    z = w.sum(axis=-1)
    log_z = (top * log_r)[..., 0] + np.log(z)
    return (log_z, np.vecdot(w, s) / z) if with_mean else log_z
