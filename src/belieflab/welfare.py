"""Welfare functionals, censoring sensitivities, grid sweeps and the props-check battery.

Welfare is the expected payoff of the induced decision rule: an agent who
acts 1 in state theta = 1 earns 1 - gamma, one who acts 2 in state 2 earns
gamma, anything else earns 0. All expectations over prior noise are closed
form through the normal CDF, so every quantity here is deterministic; the
Monte Carlo cross-checks live in ``oracle``.

The marginal-censoring analysis works in p-space: removing the weakest
evidence takes equal probability mass x off both move probabilities, which is
the map p -> (p - x) / (1 - 2x) applied to each coordinate. Signal-space
censoring (the exact, nonlocal version) lives in ``signals``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from collections import namedtuple
from collections.abc import Iterable, Sequence

import numpy as np

from .beliefs import (
    BeliefStrategy,
    PriorModel,
    Stakes,
    _act_probabilities,
    _bayes_params,
    _check_rule,
    _drift_odds,
    _exceed_probs,
    _normalizer,
    _objective_odds,
    bayes_params,
    prior_exceed_prob,
)
from .chain import _laws
from .signals import (
    PVector,
    TransitionKernel,
    _censored_masses,
    _check_beta,
    _check_int,
    _check_kind,
    _check_real,
    _columns,
    _interior,
    _p_columns,
    _shares,
)

__all__ = [
    "ProblemSpec",
    "WelfareReport",
    "DeltaFixed",
    "CensorSensitivity",
    "DWitness",
    "baseline_welfare",
    "welfare_at_threshold",
    "expected_welfare",
    "bayes_welfare",
    "delta_fixed",
    "in_B",
    "regularity",
    "censored_p",
    "default_censor_step",
    "censor_sensitivity",
    "regular_censoring_gain",
    "finite_n_welfare",
    "find_D_witness",
    "GridArgmax",
    "grid_argmax",
    "sweep",
    "SWEEP_METRICS",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Decision-problem context: state frequency, stakes, prior, chain size."""

    pi: float
    gamma: float
    prior: PriorModel
    K: int

    def __post_init__(self):
        _check_kind(self.prior, "prior", PriorModel)
        object.__setattr__(self, "_rho", _objective_odds(self.pi))
        object.__setattr__(self, "_stakes", Stakes(self.gamma))
        object.__setattr__(self, "K", _check_int(self.K, "K", 1))

    @classmethod
    def correct_priors(cls, pi: float, gamma: float, K: int) -> "ProblemSpec":
        """Spec whose prior odds equal the objective odds, with no noise."""
        return cls.noisy_priors(pi, gamma, K, sigma_log=0.0)

    @classmethod
    def noisy_priors(
        cls, pi: float, gamma: float, K: int, sigma_log: float = 0.5,
        rho: float | None = None,
    ) -> "ProblemSpec":
        """Spec with lognormal prior noise around the prior odds rho, by
        default the objective odds pi / (1 - pi) (pi is checked first)."""
        if rho is None:
            return cls(pi, gamma, PriorModel.from_probability(pi, sigma_log), K)
        return cls(pi, gamma, PriorModel(rho, sigma_log), K)

    @property
    def rho(self) -> float:
        return self._rho

    @property
    def Gamma(self) -> float:
        return self._stakes.ratio

    @property
    def weights(self) -> tuple[float, float]:
        """Payoff weights of acting right in states 1 and 2."""
        return self.pi * (1.0 - self.gamma), (1.0 - self.pi) * self.gamma

    @property
    def has_correct_priors(self) -> bool:
        return self.prior.sigma_log == 0.0 and math.isclose(
            self.prior.rho, self.rho, rel_tol=1e-12
        )


@dataclass(frozen=True)
class WelfareReport:
    value: float
    baseline: float          # acting on the (noisy) prior alone
    baseline_correct: float  # acting on correct deterministic priors
    delta: float             # value - baseline


def baseline_welfare(spec: ProblemSpec) -> tuple[float, float]:
    """Welfare of ignoring all signals: (noisy-prior value, correct-prior value)."""
    w1, w2 = _check_kind(spec, "spec", ProblemSpec).weights
    return float(_baselines(spec.prior, spec.Gamma, w1, w2)), max(w1, w2)


def _baselines(prior: PriorModel, Gamma, w1, w2) -> np.ndarray:
    """Noisy-prior baseline welfare elementwise over arrays of stakes and weights."""
    act = _exceed_probs(prior, Gamma)
    return w1 * act + w2 * (1.0 - act)


def welfare_at_threshold(k: int, p: PVector, spec: ProblemSpec) -> float:
    """Welfare of the rule 'act 1 iff the mental state is at least k' (k <= K + 1)."""
    k = _check_int(k, "k", -_check_kind(spec, "spec", ProblemSpec).K, spec.K + 1)
    act = (np.arange(-spec.K, spec.K + 1) >= k).astype(float)
    return float(_combine(spec.weights, _laws(p, spec.K), act))


def _act(spec: ProblemSpec, strategy) -> np.ndarray:
    """The act step of a rule, checked first, for the prior, stakes and K of ``spec``."""
    _check_kind(spec, "spec", ProblemSpec)
    _check_rule(strategy)
    return _act_probabilities(spec.prior, strategy.d, strategy.lam, spec.Gamma, spec.K)


def _acts_where(ok, prior: PriorModel, d, lam, Gamma, K: int) -> np.ndarray:
    """Act rows of the rules (d, lam) where ok, NaN rows where a rule is undefined."""
    acts = _act_probabilities(prior, np.where(ok, d, 1.0), np.where(ok, lam, 1.0), Gamma, K)
    return np.where(np.asarray(ok)[..., None], acts, math.nan)


def _combine(weights, phis: np.ndarray, act: np.ndarray) -> np.ndarray:
    """Welfare of acting 1 with probability act[..., s] in mental state s.

    phis holds the laws under states 1 and 2, (..., 2, 2K+1) (see ``_laws``),
    weights are ``ProblemSpec.weights``; leading axes of all three broadcast.
    """
    w1, w2 = weights
    return w1 * np.vecdot(phis[..., 0, :], act) + w2 * np.vecdot(
        phis[..., 1, :], 1.0 - act
    )


def _envelope(weights, phis: np.ndarray) -> np.ndarray:
    """Welfare of the better payoff branch in every mental state, over stacks."""
    w1, w2 = (np.asarray(w)[..., None] for w in weights)
    return np.maximum(w1 * phis[..., 0, :], w2 * phis[..., 1, :]).sum(axis=-1)


def _p_laws(p11, p22, K: int, N=None) -> np.ndarray:
    """``_laws`` of dynamics (p11, p22), elementwise over arrays of p."""
    cols = np.empty(np.broadcast_shapes(np.shape(p11), np.shape(p22)) + (2, 3))
    for theta, col in enumerate(_p_columns(p11, p22)):
        for j, v in enumerate(col):
            cols[..., theta, j] = v
    return _laws(cols, K, N)


def expected_welfare(p: PVector, spec: ProblemSpec, strategy) -> WelfareReport:
    """Welfare of a posterior rule, averaging over prior noise and states.

    Computed state by state: the final mental state and the prior draw are
    independent, so the value is sum_s of phi_theta(s) times the chance the
    posterior at s clears Gamma. This matches the threshold decomposition
    (threshold_mass against welfare_at_threshold) for d >= 1 and extends it
    to the inverted-reading rules with d < 1 that exact Bayes parameters can
    produce.
    """
    act = _act(spec, strategy)
    value = float(_combine(spec.weights, _laws(p, spec.K), act))
    under, under0 = baseline_welfare(spec)
    return WelfareReport(
        value=value, baseline=under, baseline_correct=under0, delta=value - under
    )


def bayes_welfare(p: PVector, spec: ProblemSpec) -> float:
    """Welfare of exact Bayesian use of the mental state.

    With correct deterministic priors this is the per-state maximum of the
    two payoff branches, the best any belief-formation rule can do. With
    noisy priors the Bayes-parameter rule is evaluated through
    expected_welfare instead (it is no longer the optimum then, and the gain
    over the baseline can go negative).
    """
    if _check_kind(spec, "spec", ProblemSpec).has_correct_priors:
        return float(_envelope(spec.weights, _laws(p, spec.K)))
    return expected_welfare(p, spec, bayes_params(p, spec.K)).value


@dataclass(frozen=True)
class DeltaFixed:
    """Gain of a fixed-power rule over the prior, with its state split.

    ``direct`` is expected welfare minus the baseline; ``decomposed`` is the
    equivalent sum over states of psi(s) * j(s), where psi(s) weighs how
    much ending in state s favors action 1 and j(s) is the extra chance of
    acting 1 there. The two agree to floating-point error.
    """

    direct: float
    decomposed: float
    psi: np.ndarray
    j: np.ndarray


def delta_fixed(p: PVector, spec: ProblemSpec, d: float) -> DeltaFixed:
    strategy = _power_rule(d, "delta_fixed")
    act = _act(spec, strategy)
    phis = _laws(p, spec.K)
    under, _ = baseline_welfare(spec)
    base = prior_exceed_prob(spec.prior, spec.Gamma)
    psi, j, decomposed = _decomposed_gains(spec.weights, phis, act, base)
    direct = float(_combine(spec.weights, phis, act)) - under
    return DeltaFixed(direct=direct, decomposed=float(decomposed), psi=psi, j=j)


def _decomposed_gains(weights, phis: np.ndarray, act: np.ndarray, base):
    """(psi, j, sum over s of psi * j) of ``DeltaFixed``, over stacks.

    base is the prior's act probability; leading axes broadcast as in
    ``_combine``.
    """
    w1, w2 = (np.asarray(w)[..., None] for w in weights)
    psi = w1 * phis[..., 0, :] - w2 * phis[..., 1, :]
    j = act - np.asarray(base)[..., None]
    return psi, j, np.vecdot(psi, j)


def _fixed_power_gains(p11, p22, specs, ds) -> np.ndarray:
    """``delta_fixed(p, spec, d).decomposed`` over an array of p (leading
    axes), then the specs, then the powers ds; the specs share prior and K."""
    Gamma, w1, w2 = np.array([(s.Gamma, *s.weights) for s in specs]).T
    prior, K = specs[0].prior, specs[0].K
    acts = _act_probabilities(prior, ds, 1.0, Gamma[:, None], K)  # spec, d
    laws = _p_laws(p11, p22, K)[..., None, None, :, :]
    base = _exceed_probs(prior, Gamma)[:, None]
    return _decomposed_gains((w1[:, None], w2[:, None]), laws, acts, base)[2]


def _power_rule(d, metric: str) -> BeliefStrategy:
    """The rule of power d and lam 1 that ``metric`` evaluates.

    Raises ValueError for a d outside the metric's domain: d > 1 for
    delta_fixed, a finite d >= 1 for the other metrics that read d.
    """
    ends = "()" if metric == "delta_fixed" else "[)"
    return BeliefStrategy(d=_check_real(d, "d", 1, math.inf, ends), lam=1.0)


def in_B(p: PVector, spec: ProblemSpec) -> bool:
    """Whether every nonzero mental state is trusted evidence for its side.

    Inside this set the per-step posterior shift d_p dominates both the
    stakes-to-prior imbalance and the chain's own drift, so any monotone
    rule with any power gains from the mental system. The bar is
    Gamma / (rho * lam); at Gamma = 0 or a lam that underflows or overflows
    it is 0 or inf, and no d clears it.
    """
    if not _check_kind(p, "p", PVector).interior:
        raise ValueError("in_B needs interior dynamics")
    return bool(_in_B(p.p11, p.p22, _check_kind(spec, "spec", ProblemSpec).rho, spec.Gamma, spec.K))


def _in_B(p11, p22, rho, Gamma, K: int) -> np.ndarray:
    """``in_B`` elementwise over arrays of p and Gamma; False where p is not
    interior."""
    d, lam = _bayes_params(p11, p22, K)
    scale = rho * lam
    with np.errstate(all="ignore"):
        bar = np.where(scale > 0.0, Gamma / scale, math.inf)
        return (0.0 < bar) & (bar < math.inf) & (d > np.maximum(bar, 1.0 / bar))


def regularity(p: PVector) -> str:
    """'regular' when the chain leans toward the truth under both states."""
    _check_kind(p, "p", PVector)
    return "regular" if _regular(p.p11, p.p22) else "irregular"


def _regular(p11, p22):
    """Whether dynamics are regular, elementwise over arrays of p."""
    return (p11 > 0.5) & (p22 > 0.5)


def censored_p(p: PVector, x: float) -> PVector:
    """First-order censoring map in p-space: both coordinates lose mass x."""
    _check_kind(p, "p", PVector)
    return PVector(*_censor_map(p.p11, p.p22, _check_real(x, "x", -0.5, 0.5, "()")))


def _censor_map(p11, p22, x):
    """``censored_p`` elementwise over arrays of p and x; raises where p leaves [0, 1]."""
    new11 = (p11 - x) / (1.0 - 2.0 * x)
    new22 = (p22 - x) / (1.0 - 2.0 * x)
    if not np.all((0.0 <= new11) & (new11 <= 1.0) & (0.0 <= new22) & (new22 <= 1.0)):
        raise ValueError(f"censor step x={x!r} pushes p=({p11}, {p22}) out of [0, 1]")
    return new11, new22


def default_censor_step(p: PVector) -> float:
    """A censor step small enough to keep p strictly interior."""
    _check_kind(p, "p", PVector)
    return float(_default_step(p.p11, p.p22))


def _default_step(p11, p22):
    """``default_censor_step`` elementwise over arrays of p."""
    room = np.minimum(np.minimum(p11, 1.0 - p11), np.minimum(p22, 1.0 - p22))
    return 0.5 * np.minimum(room, 0.02)


def _lambda_bars(p11, p22, K: int) -> np.ndarray:
    """lambda_bar of ``_censor_response`` elementwise over arrays of p; NaN
    where p is not interior or the value is past the float range."""
    lambda_bar = _censor_response(p11, p22, K).lambda_bar
    return np.where(lambda_bar < math.inf, lambda_bar, math.nan)


def _censor_response(p11, p22, K: int) -> CensorSensitivity:
    """Every field of ``CensorSensitivity``, elementwise over interior p.

    Censoring moves p by 2p - 1, and d_p = d1 d2 with d = p / (1 - p) in
    each coordinate, so dd = (2p - 1) / (1 - p)**2 and ddp = dd1 d2 + d1 dd2.
    With Z(r) = rho**K z of ``beliefs._normalizer``, lam = Z(r2) / Z(r1) is
    (rho2 / rho1)**K z2 / z1 and lambda_bar = lam d_p**K is
    (rho2 d_p / rho1)**K z2 / z1. Censoring moves log rho by |dlog r|, where
    dlog r1 = (2 p11 - 1) / (p11 (1 - p11)), dlog r2 = (1 - 2 p22) / (p22 (1 - p22)),
    and the log derivative of Z(rho) is the mean m of s: dlog lam =
    m2 |dlog r2| - m1 |dlog r1|, and lambda_bar adds K dlog d_p. Past the
    float range these are not finite, and NaN where p has no finite odds.
    """
    # each normalizer on its coordinate's own shape: an n x n grid of p takes 2n, not 2n**2
    (in1, r1), (in2, r2) = _drift_odds(p11, 0.5), _drift_odds(0.5, p22)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho1, z1, m1 = _normalizer(np.where(in1, p11, math.nan), K)
        rho2, z2, m2 = _normalizer(np.where(in2, p22, math.nan), K)
        dp11, dp22 = 2.0 * p11 - 1.0, 2.0 * p22 - 1.0
        dd1, dd2 = dp11 / np.square(1.0 - p11), dp22 / np.square(1.0 - p22)
        ddp = dd1 * (p22 / (1.0 - p22)) + (p11 / (1.0 - p11)) * dd2
        dlog_r1, dlog_r2 = dp11 / (p11 * (1.0 - p11)), -dp22 / (p22 * (1.0 - p22))
        dlog_lam = m2 * np.abs(dlog_r2) - m1 * np.abs(dlog_r1)
        d_p = np.where(in1 & in2, r1[..., 0] / r2[..., 1], math.nan)
        lam = ((rho2 / rho1) ** K)[..., 0] * (z2 / z1)
        lambda_bar = ((rho2 * d_p[..., None] / rho1) ** K)[..., 0] * (z2 / z1)
        return CensorSensitivity(
            dp11=dp11, dp22=dp22, dd1=dd1, dd2=dd2, ddp=ddp, dlam=lam * dlog_lam,
            dlambar=lambda_bar * (dlog_lam + K * (dlog_r1 - dlog_r2)), lam=lam,
            lambda_bar=lambda_bar, d_p=d_p,
        )


@dataclass(frozen=True)
class CensorSensitivity:
    """First-order response of the dynamics to marginal censoring at beta=0.

    All in closed form from ``_censor_response``, which holds arrays in these
    fields: dp11/dp22 and dd1/dd2/ddp by the chain rule, and lam,
    lambda_bar, dlam and dlambar over one normalizer per coordinate.
    """

    dp11: float
    dp22: float
    dd1: float
    dd2: float
    ddp: float
    dlam: float
    dlambar: float
    lam: float
    lambda_bar: float
    d_p: float


def censor_sensitivity(p: PVector, K: int) -> CensorSensitivity:
    """The float row of ``_censor_response``; raises where a field is not finite."""
    if not _check_kind(p, "p", PVector).interior:
        raise ValueError("censor_sensitivity needs interior dynamics")
    K = _check_int(K, "K", 1)
    sens = CensorSensitivity(*map(float, vars(_censor_response(p.p11, p.p22, K)).values()))
    if sens.lambda_bar == math.inf:
        raise ValueError(f"lambda_bar overflows at K={K}")
    bad = [name for name, v in vars(sens).items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{', '.join(bad)} not finite at p=({p.p11!r}, {p.p22!r}), K={K}")
    return sens


def regular_censoring_gain(
    p: PVector, spec: ProblemSpec, k: int, x: float | None = None
) -> float:
    """Welfare change at threshold k from censoring step x, regular p only.

    For regular dynamics the change is nonnegative for every threshold in
    (-K, K]: censoring pushes both long-run distributions toward their own
    side, raising the action-1 tail under state 1 and lowering it under
    state 2.
    """
    _check_kind(p, "p", PVector)
    k = _check_int(k, "k", 1 - _check_kind(spec, "spec", ProblemSpec).K, spec.K)
    if x is not None:
        x = _check_real(x, "x", 0, 0.5, "()")
    return float(_censoring_gains(p.p11, p.p22, spec, x)[k + spec.K - 1])


def _censoring_gains(p11, p22, spec: ProblemSpec, x=None) -> np.ndarray:
    """``regular_censoring_gain`` at k = 1-K..K, (..., 2K), over arrays of p."""
    if not np.all(_regular(p11, p22)):
        raise ValueError(f"dynamics p=({p11}, {p22}) are not regular")
    if x is None:
        x = _default_step(p11, p22)
    if not np.all(x > 0.0):  # a default step of 0, at p11 or p22 = 1
        raise ValueError("censor step x must be positive")
    s, K = np.arange(-spec.K, spec.K + 1), spec.K
    acts = (s >= s[1:, None]).astype(float)  # one threshold rule per row
    laws = np.stack([_p_laws(*_censor_map(p11, p22, x), K), _p_laws(p11, p22, K)])
    cut, kept = _combine(spec.weights, laws[..., None, :, :], acts)
    return cut - kept


def finite_n_welfare(
    p_or_q: PVector | TransitionKernel,
    spec: ProblemSpec,
    strategy,
    N: int,
) -> float:
    """Welfare when the decision is taken after only N signals."""
    act = _act(spec, strategy)
    return float(_combine(spec.weights, _laws(p_or_q, spec.K, N), act))


@dataclass(frozen=True)
class DWitness:
    """Dynamics where marginal censoring strictly hurts a Bayesian agent.

    The stakes are tuned so that only the top mental state clears the bar
    before censoring (gamma puts Gamma/rho inside ``window``, just below the
    maximum posterior shift). After one censoring step of size
    ``censor_step`` (1e-3) the maximum shift falls below the bar, every
    posterior loses to the prior, and welfare drops to the baseline.
    """

    p: PVector
    dlambar: float
    censor_step: float
    pi: float
    gamma: float
    window: tuple[float, float]
    welfare_before: float
    welfare_after: float
    baseline: float


def find_D_witness(K: int) -> DWitness | None:
    """Search a p-grid for dynamics whose top posterior shift censoring erodes.

    Scores 100 x 100 dynamics on [0.01, 0.99]^2 by the closed-form response
    of lambda_bar, skipping cells with d_p <= 1 (the top state must be the
    informative one) or a response that overflows. Returns the first most
    negative cell in row-major order (p11 outer) with a verified stakes
    window, or None when the grid shows no negative response.
    """
    K = _check_int(K, "K", 2)  # the censoring-hurts region needs K >= 2
    grid = np.linspace(0.01, 0.99, 100)
    censor_step = 1e-3
    resp = _censor_response(grid[:, None], grid, K)  # p11 down, p22 across
    score = np.where((resp.d_p > 1.0) & np.isfinite(resp.dlambar), resp.dlambar, math.inf)
    i, j = divmod(int(np.argmin(score)), grid.size)  # argmin takes the first minimum
    if not score[i, j] < 0.0:
        return None
    dlambar, p = float(score[i, j]), PVector(p11=float(grid[i]), p22=float(grid[j]))
    cut = censored_p(p, censor_step)
    before, after = (float(_lambda_bars(q.p11, q.p22, K)) for q in (p, cut))
    target = 0.5 * (before + after)  # Gamma / rho inside (after, before)
    pi = 0.5
    gamma = target / (1.0 + target)  # rho = 1, so Gamma = target
    spec = ProblemSpec.correct_priors(pi=pi, gamma=gamma, K=K)
    w_before = bayes_welfare(p, spec)
    w_after = bayes_welfare(cut, spec)
    _, base = baseline_welfare(spec)
    if not (w_before > base and w_after < w_before):
        raise RuntimeError(
            "stakes window failed to demonstrate the welfare drop; "
            f"witness p=({p.p11}, {p.p22})"
        )
    return DWitness(
        p=p,
        dlambar=dlambar,
        censor_step=censor_step,
        pi=pi,
        gamma=gamma,
        window=(after, before),
        welfare_before=w_before,
        welfare_after=w_after,
        baseline=base,
    )


def _props_battery(K: int) -> list[tuple[str, bool, str]]:
    """Reduced versions of the optimality and censoring checks."""
    rng = np.random.default_rng(12345)
    results = []

    # Exact Bayes parameters dominate every fixed rule under correct priors.
    worst = math.inf
    witness = equality = ""  # an equality failure's witness wins over the min gap's
    ok = True
    skipped = 0
    for _ in range(30):
        p = PVector(*rng.uniform(0.02, 0.98, size=2))
        gamma = float(rng.uniform(0.1, 0.9))
        spec = ProblemSpec.correct_priors(0.5, gamma, K)
        best = bayes_welfare(p, spec)
        # 200 rules (d, lam) = exp of uniform draws on [0, 3) and [-2, 2)
        d, lam = np.exp(rng.uniform([0.0, -2.0], [3.0, 2.0], size=(200, 2))).T
        acts = _act_probabilities(spec.prior, d, lam, spec.Gamma, K)
        gaps = best - _combine(spec.weights, _laws(p, K), acts)
        if gaps.min() < worst:
            worst = float(gaps.min())
            witness = f"p=({p.p11:.3f},{p.p22:.3f}) gamma={gamma:.3f}"
        ok = ok and not np.any(gaps < -1e-12)
        params = bayes_params(p, spec.K)
        if not 0.0 < params.lam < math.inf:  # a balance past the float range
            skipped += 1
            continue
        if abs(best - expected_welfare(p, spec, params).value) > 1e-12:
            ok = False
            equality = f"equality failed at p=({p.p11:.3f},{p.p22:.3f})"
    detail = f"min gap {worst:.3e} ({equality or witness})"
    if skipped:
        detail += f" ({skipped} skipped: Bayes lam past the float range)"
    results.append(("bayes-rule-dominance", ok, detail))

    # Fixed-power rules gain on the balanced-informative set B.
    grid, ds = np.linspace(0.02, 0.98, 21), (1.5, 3.0, 10.0)
    specs = [ProblemSpec.noisy_priors(0.5, float(gamma), K) for gamma in grid]
    Gamma = np.array([s.Gamma for s in specs])
    inside = _in_B(0.8, grid[:, None], specs[0].rho, Gamma, K)  # p22 down, gamma across
    # the term-by-term form is cancellation-free, so strict positivity
    # survives even where the gain is ~1e-20
    gains = _fixed_power_gains(0.8, grid, specs, ds)  # p22, gamma, d
    bad = np.argwhere(inside[..., None] & ~(gains > 0.0))  # the witness is the last
    witness = "all positive"
    if bad.size:
        i, j, k = bad[-1]
        witness = f"p22={grid[i]:.3f} gamma={grid[j]:.3f} d={ds[k]}: {gains[i, j, k]:.3e}"
    results.append(("fixed-power-gain-on-B", not bad.size, witness))

    # Censoring-response: analytic derivatives match finite differences.
    p11, p22 = rng.uniform(0.05, 0.95, size=(1000, 2)).T
    resp = _censor_response(p11, p22, K)
    h = 1e-6
    (hi11, hi22), (lo11, lo22) = _censor_map(p11, p22, h), _censor_map(p11, p22, -h)
    fd_d = (_bayes_params(hi11, hi22, K)[0] - _bayes_params(lo11, lo22, K)[0]) / (2 * h)
    rel = lambda a, b: abs(a - b) / np.maximum(np.maximum(abs(a), abs(b)), 1e-9)
    derivative = (
        (rel((hi11 - lo11) / (2 * h), resp.dp11) > 1e-4)
        | (rel((hi22 - lo22) / (2 * h), resp.dp22) > 1e-4)
        | (rel(fd_d, resp.ddp) > 1e-4)
    )
    with np.errstate(all="ignore"):  # past the float range, as in Python floats
        balance = (abs(resp.lam - 1.0) > 1e-6) & (resp.dlam * (resp.lam - 1.0) < 0)
    # lambda_bar past the float range is skipped, as find_D_witness skips it
    skip = ~np.isfinite(resp.lambda_bar)
    failures = np.flatnonzero(~skip & (derivative | balance))
    stop = failures[0] if failures.size else p11.size  # the first failure ends the check
    witness = "1000 draws"
    if failures.size:
        at = f"p=({p11[stop]:.4f},{p22[stop]:.4f})"
        witness = at if derivative[stop] else f"balance sign at {at}"
    skipped = int(skip[:stop].sum())
    if skipped:
        witness += f" ({skipped} skipped: lambda_bar overflows)"
    results.append(("censoring-derivatives", not failures.size, witness))

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
    grid = np.linspace(0.52, 0.98, 21)
    spec = ProblemSpec.correct_priors(0.5, 0.6, K)
    gains = _censoring_gains(grid[:, None], grid, spec)  # p11 outer, p22, k = 1-K..K
    bad = np.argwhere(gains < -1e-12)  # the witness is the last, in loop order
    witness = "all nonnegative"
    if bad.size:
        i, j, k = bad[-1]
        witness = f"p=({grid[i]:.3f},{grid[j]:.3f}) k={k - K + 1}: {gains[i, j, k]:.3e}"
    results.append(("regular-censoring-gain", not bad.size, witness))
    return results


@dataclass(frozen=True)
class GridArgmax:
    """Best (beta, d) over a grid of candidate processing parameters."""

    beta: float
    d: float
    value: float
    table: tuple[dict, ...]


def grid_argmax(
    problems: Sequence[tuple],
    beta_grid: Sequence[float],
    d_grid: Sequence[float],
    lam: float = 1.0,
) -> GridArgmax:
    """Pick the censoring level and power maximizing weighted welfare.

    ``problems`` is a sequence of (model, spec, weight) triples: the agent
    commits to one (beta, d) across all of them, and the report averages
    each problem's long-run welfare by the given weights. This is plain
    grid reporting, not an optimizer; ties resolve to the first cell in
    row-major (beta outer, d inner) order.
    """
    probs = []
    for item in _check_kind(problems, "problems", Iterable):
        try:
            model, spec, w = item
        except (TypeError, ValueError):  # not three values to unpack
            msg = f"problems must be (model, spec, weight) triples, got {item!r}"
            raise ValueError(msg) from None
        spec = _check_kind(spec, "spec", ProblemSpec)
        probs.append((model, spec, _check_real(w, "weight", 0, math.inf, "[)")))
    total = sum(w for _, _, w in probs)
    if not total > 0.0:
        raise ValueError("problems must carry weights positive in total")
    # act depends on (problem, d) only, the laws on (problem, beta) only; a rule checks each d
    ds = [BeliefStrategy(d=d, lam=lam).d for d in _check_kind(d_grid, "d_grid", Iterable)]
    betas = [_check_beta(beta) for beta in _check_kind(beta_grid, "beta_grid", Iterable)]
    for name, grid in (("beta_grid", betas), ("d_grid", ds)):
        if not grid:
            raise ValueError(f"{name} is empty: no (beta, d) to choose from")
    values = np.zeros((len(betas), len(ds)))
    for model, spec, w in probs:  # one (B, D) table per problem, added in problem order
        acts = _act_probabilities(spec.prior, ds, lam, spec.Gamma, spec.K)  # (D, 2K+1)
        laws = _laws(_columns(_censored_masses(model, betas)), spec.K)  # (B, 2, 2K+1)
        values += w * _combine(spec.weights, laws[:, None], acts)
    cells = itertools.product(betas, ds)  # row-major, beta outer
    table = [
        {"beta": beta, "d": d, "value": v}
        for (beta, d), v in zip(cells, (values / total).ravel().tolist())
    ]
    best = max(table, key=lambda row: row["value"])  # first of any tie
    return GridArgmax(**best, table=tuple(table))


# ---------------------------------------------------------------------------
# grid sweeps

_AXES = ("p11", "p22", "gamma", "K", "d", "beta")


def _refuses(fn, *args) -> bool:
    """Whether fn(*args) raises ValueError."""
    try:
        fn(*args)
    except ValueError:
        return True
    return False


# The sweep grid at one K, each input an array over the grid axes it varies
# on ((1, nx) on x, (ny, 1) on y, (1, 1) when fixed): p11 and p22 (0.5 in the
# cells without dynamics), the stakes odds Gamma, the power d, the weights
# (w1, w2), the noisy-prior baseline welfare and the long-run laws; spec
# holds the prior and rho the cells share (its gamma and K are not theirs).
_Cells = namedtuple("_Cells", "p11 p22 Gamma d K N w under laws spec")


def _power_acts(c: _Cells, metric: str) -> np.ndarray:
    """Act rows of the power-d rule ``metric`` reads, one act step over the
    (Gamma, d) axes; NaN rows where ``_power_rule`` refuses d."""
    ok = [not _refuses(_power_rule, v, metric) for v in c.d.ravel().tolist()]
    return _acts_where(np.reshape(ok, c.d.shape), c.spec.prior, c.d, 1.0, c.Gamma, c.K)


# Each metric returns one value per cell, NaN where the cell is undefined.


def _metric_delta_bayes(c: _Cells) -> np.ndarray:
    """As ``bayes_welfare``: the envelope under correct priors, else the rule."""
    if c.spec.has_correct_priors:
        return _envelope(c.w, c.laws) - c.under
    d, lam = _bayes_params(c.p11, c.p22, c.K)
    ok = (0.0 < lam) & (lam < math.inf)  # a lam past the float range has no rule
    acts = _acts_where(ok, c.spec.prior, d, lam, c.Gamma, c.K)
    return _combine(c.w, c.laws, acts) - c.under


def _metric_censor_gain(c: _Cells) -> np.ndarray:
    acts = _power_acts(c, "censor_gain")
    cut = _p_laws(*_censor_map(c.p11, c.p22, _default_step(c.p11, c.p22)), c.K)
    return _combine(c.w, cut, acts) - _combine(c.w, c.laws, acts)


def _metric_finite_n_ratio(c: _Cells) -> np.ndarray:
    acts = _power_acts(c, "finite_n_ratio")
    full = _combine(c.w, c.laws, acts)
    partial = _combine(c.w, _p_laws(c.p11, c.p22, c.K, c.N), acts)
    # undefined where the weight of the act the prior always takes underflowed
    return (full - partial) / np.where(c.under == 0.0, math.nan, c.under)


SWEEP_METRICS = {
    "delta_bayes": _metric_delta_bayes,
    "delta_fixed": lambda c: (
        _combine(c.w, c.laws, _power_acts(c, "delta_fixed")) - c.under
    ),
    "censor_gain": _metric_censor_gain,
    "finite_n_ratio": _metric_finite_n_ratio,
    "lambda_bar": lambda c: _lambda_bars(c.p11, c.p22, c.K),
    "in_B": lambda c: np.where(
        _interior(c.p11, c.p22), _in_B(c.p11, c.p22, c.spec.rho, c.Gamma, c.K), math.nan
    ),
    "regularity": lambda c: _regular(c.p11, c.p22).astype(float),
}


def sweep(
    metric: str,
    x: str,
    x_values: Sequence[float],
    y: str,
    y_values: Sequence[float],
    *,
    p11: float | None = None,
    p22: float | None = None,
    pi: float = 0.5,
    gamma: float = 0.6,
    sigma_log: float = 0.0,
    rho: float | None = None,
    K: int = 2,
    d: float = 3.0,
    N: int = 10,
    beta: float | None = None,
    model=None,
) -> list[dict]:
    """Evaluate a metric over a 2-d grid; one dict per cell, row-major.

    Axes come from {p11, p22, gamma, K, d, beta}; the beta axis (or a fixed
    beta) derives the dynamics from ``model`` through signal-space
    censoring, otherwise the dynamics are (p11, p22) directly. The outer
    loop runs over y, the inner over x, so rows come out row-major with x
    varying fastest. Inputs that hold for every cell (the problem, a fixed
    beta, a beta or a model without the other, a model without two-state
    censoring, N for finite_n_ratio, a fixed d for the metrics that read
    it, and each axis value or fixed value by the rule of its axis, which
    refuses a NaN p or d) are checked once and raise ValueError; cells
    whose evaluation is undefined (no dynamics, fully censored, degenerate,
    a d axis value outside the metric's domain) carry value NaN.
    """
    if metric not in SWEEP_METRICS:
        raise ValueError(
            f"unknown metric {metric!r}; choose from {sorted(SWEEP_METRICS)}"
        )
    for axis in (x, y):
        if axis not in _AXES:
            raise ValueError(f"unknown axis {axis!r}; choose from {_AXES}")
    if x == y:
        raise ValueError("x and y axes must differ")
    if model is None and (beta is not None or "beta" in (x, y)):
        raise ValueError("a beta axis or a fixed beta needs a signal model")
    if model is not None and beta is None and "beta" not in (x, y):
        raise ValueError("a signal model needs a beta axis or a fixed beta")
    if metric == "finite_n_ratio":
        N = _check_int(N, "N", 0)
    if metric in ("delta_fixed", "censor_gain", "finite_n_ratio") and "d" not in (x, y):
        _power_rule(d, metric)
    base = {"gamma": gamma, "K": _axis_value("K", K), "d": _axis_value("d", d)}
    for axis, v in (("p11", p11), ("p22", p22), ("beta", beta)):  # None: not fixed
        base[axis] = None if v is None else _axis_value(axis, v)
    spec = ProblemSpec.noisy_priors(pi, gamma, base["K"], sigma_log, rho)
    xs = [_axis_value(x, v) for v in _check_kind(x_values, "x_values", Iterable)]
    ys = [_axis_value(y, v) for v in _check_kind(y_values, "y_values", Iterable)]
    if not xs or not ys:
        return []

    def values(axis):  # the axis values, or the one fixed value
        return xs if axis == x else ys if axis == y else [base[axis]]

    def on_axis(v, axis):  # v along the grid axis of ``axis``, (1, 1) when fixed
        return np.reshape(v, (-1, 1) if axis == y else (1, -1))

    grid = lambda axis, dtype=float: on_axis(np.array(values(axis), dtype), axis)
    # one spec per gamma value, in order: the first bad gamma raises
    specs = [replace(spec, gamma=g) for g in values("gamma")]
    stakes = np.array([(s.Gamma, *s.weights) for s in specs])
    Gamma, w1, w2 = (on_axis(v, "gamma") for v in stakes.T)
    under = _baselines(spec.prior, Gamma, w1, w2)
    if beta is not None or "beta" in (x, y):  # one censoring call for all betas
        shares = _shares(_columns(_censored_masses(model, values("beta"))))
        p11, p22 = (on_axis(v, "beta") for v in shares.T)
    else:  # a p neither fixed nor an axis is NaN
        p11, p22 = grid("p11"), grid("p22")
    # a p outside [0, 1], missing, or silenced by censoring leaves no dynamics:
    # such cells are evaluated at p = 0.5 and set to NaN
    inside = [(0.0 <= v) & (v <= 1.0) for v in (p11, p22)]
    p11, p22 = (np.where(ok, v, 0.5) for ok, v in zip(inside, (p11, p22)))
    Ks, ds, value = grid("K", int), grid("d"), np.full((len(ys), len(xs)), math.nan)
    for K in dict.fromkeys(Ks.ravel().tolist()):  # nothing else varies along a K axis
        c = _Cells(p11, p22, Gamma, ds, K, N, (w1, w2), under, _p_laws(p11, p22, K), spec)
        value = np.where(Ks == K, SWEEP_METRICS[metric](c), value)
    value = np.where(inside[0] & inside[1], value, math.nan)
    regular = np.where(np.isnan(value), math.nan, _regular(p11, p22))
    cells = ((xv, yv) for yv in ys for xv in xs)
    return [
        {x: xv, y: yv, "value": v, "regular": r}
        for (xv, yv), v, r in zip(cells, value.ravel().tolist(), regular.ravel().tolist())
    ]


def _axis_value(axis: str, v) -> float | int:
    """A grid or fixed value by the rule of its axis: K, beta and gamma by their
    own; a p or d is any number but NaN, and one outside its domain a NaN cell."""
    if axis == "K":
        if isinstance(v, float) and v.is_integer():  # a CLI grid value such as 2.0
            v = int(v)
        return _check_int(v, "K", 1)
    if axis == "beta":
        return _check_beta(v)
    if axis == "gamma":
        return Stakes(v).gamma
    return _check_real(v, axis, -math.inf, math.inf, "[]")
