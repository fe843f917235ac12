"""Welfare functionals, censoring sensitivities, and grid sweeps.

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

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .beliefs import (
    _LOG_MAX,
    BeliefStrategy,
    PriorModel,
    Stakes,
    _act_probabilities,
    _log_normalizer,
    _objective_odds,
    bayes_params,
    prior_exceed_prob,
)
from .chain import _laws
from .signals import (
    PVector,
    TransitionKernel,
    _check_beta,
    _check_finite,
    _check_int,
    censored_transitions,
    conditional_dynamics,
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
    act = prior_exceed_prob(spec.prior, spec.Gamma)
    w1, w2 = spec.weights
    return w1 * act + w2 * (1.0 - act), max(w1, w2)


def welfare_at_threshold(k: int, p: PVector, spec: ProblemSpec) -> float:
    """Welfare of the rule 'act 1 iff the mental state is at least k' (k <= K + 1)."""
    k = _check_int(k, "k", -spec.K)
    if k > spec.K + 1:
        raise ValueError(f"k={k} outside -K..K+1 for K={spec.K}")
    act = (np.arange(-spec.K, spec.K + 1) >= k).astype(float)
    return _combine(spec, _laws(p, spec.K), act)


def _act(spec: ProblemSpec, strategy) -> np.ndarray:
    """The act step for the prior, stakes and chain size of ``spec``."""
    return _act_probabilities(spec.prior, strategy, spec.Gamma, spec.K)


def _combine(spec: ProblemSpec, phis: np.ndarray, act: np.ndarray) -> float:
    """Welfare of acting 1 with probability act[s] in mental state s.

    phis holds the mental-state laws under states 1 and 2 (see ``_laws``).
    """
    w1, w2 = spec.weights
    return w1 * float(phis[0] @ act) + w2 * float(phis[1] @ (1.0 - act))


def expected_welfare(p: PVector, spec: ProblemSpec, strategy) -> WelfareReport:
    """Welfare of a posterior rule, averaging over prior noise and states.

    Computed state by state: the final mental state and the prior draw are
    independent, so the value is sum_s of phi_theta(s) times the chance the
    posterior at s clears Gamma. This matches the threshold decomposition
    (threshold_mass against welfare_at_threshold) for d >= 1 and extends it
    to the inverted-reading rules with d < 1 that exact Bayes parameters can
    produce.
    """
    if getattr(strategy, "degenerate", False):
        raise ValueError("degenerate parameters have no posterior rule to evaluate")
    value = _combine(spec, _laws(p, spec.K), _act(spec, strategy))
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
    if spec.has_correct_priors:
        phis = _laws(p, spec.K)
        w1, w2 = spec.weights
        return float(np.maximum(w1 * phis[0], w2 * phis[1]).sum())
    params = bayes_params(p, spec.K)
    if params.degenerate:
        raise ValueError(
            "noisy-prior Bayes evaluation needs interior dynamics; "
            f"got p=({p.p11!r}, {p.p22!r})"
        )
    return expected_welfare(p, spec, params).value


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
    phis = _laws(p, spec.K)
    act = _act(spec, strategy)
    under, _ = baseline_welfare(spec)
    w1, w2 = spec.weights
    psi = w1 * phis[0] - w2 * phis[1]
    j = act - prior_exceed_prob(spec.prior, spec.Gamma)
    direct = _combine(spec, phis, act) - under
    return DeltaFixed(direct=direct, decomposed=float(psi @ j), psi=psi, j=j)


def _power_rule(d: float, metric: str) -> BeliefStrategy:
    """The rule of power d and lam 1 that ``metric`` evaluates.

    Raises ValueError for a d outside the metric's domain: d > 1 for
    delta_fixed, a finite d >= 1 for the other metrics that read d.
    """
    if metric == "delta_fixed" and not d > 1.0:
        raise ValueError("delta_fixed assumes d > 1")
    return BeliefStrategy(d=d, lam=1.0)


def in_B(p: PVector, spec: ProblemSpec) -> bool:
    """Whether every nonzero mental state is trusted evidence for its side.

    Inside this set the per-step posterior shift d_p dominates both the
    stakes-to-prior imbalance and the chain's own drift, so any monotone
    rule with any power gains from the mental system. The bar is
    Gamma / (rho * lam); at Gamma = 0 or a lam that underflows or overflows
    it is 0 or inf, and no d clears it.
    """
    if not p.interior:
        raise ValueError("in_B needs interior dynamics")
    params = bayes_params(p, spec.K)
    scale = spec.rho * params.lam
    bar = spec.Gamma / scale if scale > 0.0 else math.inf
    return 0.0 < bar < math.inf and params.d > max(bar, 1.0 / bar)


def regularity(p: PVector) -> str:
    """'regular' when the chain leans toward the truth under both states."""
    return "regular" if (p.p11 > 0.5 and p.p22 > 0.5) else "irregular"


def censored_p(p: PVector, x: float) -> PVector:
    """First-order censoring map in p-space: both coordinates lose mass x."""
    if not -0.5 < x < 0.5:
        raise ValueError("censor step x must lie in (-0.5, 0.5)")
    new11 = (p.p11 - x) / (1.0 - 2.0 * x)
    new22 = (p.p22 - x) / (1.0 - 2.0 * x)
    if not (0.0 <= new11 <= 1.0 and 0.0 <= new22 <= 1.0):
        raise ValueError(
            f"censor step x={x!r} pushes p=({p.p11}, {p.p22}) out of [0, 1]"
        )
    return PVector(p11=new11, p22=new22)


def default_censor_step(p: PVector) -> float:
    """A censor step small enough to keep p strictly interior."""
    room = min(p.p11, 1.0 - p.p11, p.p22, 1.0 - p.p22, 0.02)
    return 0.5 * room


def _lambda_bar(p: PVector, K: int) -> float:
    """Largest Bayesian posterior shift lam * d_p**K, taken in logs.

    exp(log Z(r2) - log Z(r1) + K log d_p) over the normalizers Z(r) of
    ``beliefs._log_normalizer``; raises where it is past the float range.
    """
    if not p.interior:
        raise ValueError("lambda_bar needs interior dynamics")
    log_r = np.log([p.r1, p.r2])
    log_z = _log_normalizer(log_r, K)
    log_value = float(log_z[1] - log_z[0] + K * (log_r[0] - log_r[1]))
    if not log_value < _LOG_MAX:
        raise ValueError(f"lambda_bar overflows at K={K}")
    return float(np.exp(log_value))


def _censor_response(p11, p22, K: int):
    """(d_p, lam, lambda_bar, dlam, dlambar), elementwise over interior p.

    lam and lambda_bar are taken in logs as in ``_lambda_bar``. Censoring
    moves p by 2p - 1, so dlog r1 = (2 p11 - 1) / (p11 (1 - p11)) and
    dlog r2 = (1 - 2 p22) / (p22 (1 - p22)). The log derivative of Z(r) is
    the long-run mean m(r) of s, so dlog lam = m(r2) dlog r2 - m(r1) dlog r1,
    and lambda_bar adds K dlog d_p. Past the float range these are not finite.
    """
    r1, r2 = p11 / (1.0 - p11), (1.0 - p22) / p22
    dlog_r1 = (2.0 * p11 - 1.0) / (p11 * (1.0 - p11))
    dlog_r2 = (1.0 - 2.0 * p22) / (p22 * (1.0 - p22))
    log_r1, log_r2 = np.log(r1), np.log(r2)
    log_z1, m1 = _log_normalizer(log_r1, K, with_mean=True)
    log_z2, m2 = _log_normalizer(log_r2, K, with_mean=True)
    dlog_lam = m2 * dlog_r2 - m1 * dlog_r1
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.exp(log_z2 - log_z1)
        lambda_bar = np.exp(log_z2 - log_z1 + K * (log_r1 - log_r2))
        dlambar = lambda_bar * (dlog_lam + K * (dlog_r1 - dlog_r2))
        return r1 / r2, lam, lambda_bar, lam * dlog_lam, dlambar


@dataclass(frozen=True)
class CensorSensitivity:
    """First-order response of the dynamics to marginal censoring at beta=0.

    All in closed form: dp11/dp22 and dd1/dd2/ddp by the chain rule, and
    lam, lambda_bar, dlam and dlambar in logs from one ``_censor_response``.
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
    if not p.interior:
        raise ValueError("censor_sensitivity needs interior dynamics")
    K = _check_int(K, "K", 1)
    dp11 = 2.0 * p.p11 - 1.0
    dp22 = 2.0 * p.p22 - 1.0
    d1 = p.p11 / (1.0 - p.p11)
    d2 = p.p22 / (1.0 - p.p22)
    dd1 = (2.0 * p.p11 - 1.0) / (1.0 - p.p11) ** 2
    dd2 = (2.0 * p.p22 - 1.0) / (1.0 - p.p22) ** 2
    ddp = dd1 * d2 + d1 * dd2
    d_p, lam, lambda_bar, dlam, dlambar = _censor_response(p.p11, p.p22, K)
    if not math.isfinite(lambda_bar):
        raise ValueError(f"lambda_bar overflows at K={K}")
    return CensorSensitivity(
        dp11=dp11,
        dp22=dp22,
        dd1=dd1,
        dd2=dd2,
        ddp=ddp,
        dlam=float(dlam),
        dlambar=float(dlambar),
        lam=float(lam),
        lambda_bar=float(lambda_bar),
        d_p=d_p,
    )


def regular_censoring_gain(
    p: PVector, spec: ProblemSpec, k: int, x: float | None = None
) -> float:
    """Welfare change at threshold k from censoring step x, regular p only.

    For regular dynamics the change is nonnegative for every threshold in
    (-K, K]: censoring pushes both long-run distributions toward their own
    side, raising the action-1 tail under state 1 and lowering it under
    state 2.
    """
    if regularity(p) != "regular":
        raise ValueError(f"dynamics p=({p.p11}, {p.p22}) are not regular")
    if not -spec.K < k <= spec.K:
        raise ValueError(f"threshold k={k} outside (-K, K] for K={spec.K}")
    if x is None:
        x = default_censor_step(p)
    if not x > 0.0:
        raise ValueError("censor step x must be positive")
    return welfare_at_threshold(k, censored_p(p, x), spec) - welfare_at_threshold(
        k, p, spec
    )


def finite_n_welfare(
    p_or_q: PVector | TransitionKernel,
    spec: ProblemSpec,
    strategy,
    N: int,
) -> float:
    """Welfare when the decision is taken after only N signals."""
    phis = _laws(p_or_q, spec.K, N)
    return _combine(spec, phis, _act(spec, strategy))


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
    d_p, _, _, _, dlambar = _censor_response(grid[:, None], grid, K)  # p11 down, p22 across
    score = np.where((d_p > 1.0) & np.isfinite(dlambar), dlambar, math.inf)
    i, j = divmod(int(np.argmin(score)), grid.size)  # argmin takes the first minimum
    if not score[i, j] < 0.0:
        return None
    dlambar, p = float(score[i, j]), PVector(p11=float(grid[i]), p22=float(grid[j]))
    before = _lambda_bar(p, K)
    after = _lambda_bar(censored_p(p, censor_step), K)
    target = 0.5 * (before + after)  # Gamma / rho inside (after, before)
    pi = 0.5
    gamma = target / (1.0 + target)  # rho = 1, so Gamma = target
    spec = ProblemSpec.correct_priors(pi=pi, gamma=gamma, K=K)
    w_before = bayes_welfare(p, spec)
    w_after = bayes_welfare(censored_p(p, censor_step), spec)
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
    probs = [(m, s, float(w)) for m, s, w in problems]
    weights = tuple(w for _, _, w in probs)
    _check_finite(weights=weights)
    total = sum(weights)
    if not probs or min(weights) < 0.0 or total <= 0.0:
        raise ValueError("problems must carry nonnegative weights, positive in total")
    # act depends on (problem, d) only, the laws on (problem, beta) only
    acts = [
        [_act(spec, BeliefStrategy(d=float(d), lam=lam)) for _, spec, _ in probs]
        for d in d_grid
    ]
    table = []
    for beta in beta_grid:
        laws = [
            _laws(censored_transitions(model, float(beta)), spec.K)
            for model, spec, _ in probs
        ]
        for d, act in zip(d_grid, acts):
            terms = zip(probs, laws, act)
            value = sum(w * _combine(s, ph, a) for (_, s, w), ph, a in terms) / total
            table.append({"beta": float(beta), "d": float(d), "value": value})
    best = max(table, key=lambda row: row["value"])  # first of any tie
    return GridArgmax(**best, table=tuple(table))


# ---------------------------------------------------------------------------
# grid sweeps

_AXES = ("p11", "p22", "gamma", "K", "d", "beta")


def _metric_delta_bayes(p, spec, ctx):
    under, _ = baseline_welfare(spec)
    return bayes_welfare(p, spec) - under


def _metric_delta_fixed(p, spec, ctx):
    return delta_fixed(p, spec, ctx["d"]).direct


def _metric_censor_gain(p, spec, ctx):
    act = _act(spec, BeliefStrategy(d=ctx["d"], lam=1.0))
    cut = _combine(spec, _laws(censored_p(p, default_censor_step(p)), spec.K), act)
    return cut - _combine(spec, _laws(p, spec.K), act)


def _metric_finite_n_ratio(p, spec, ctx):
    act = _act(spec, BeliefStrategy(d=ctx["d"], lam=1.0))
    full = _combine(spec, _laws(p, spec.K), act)
    partial = _combine(spec, _laws(p, spec.K, ctx["N"]), act)
    under, _ = baseline_welfare(spec)
    if under == 0.0:  # the weight of the act the prior always takes underflowed
        raise ValueError("finite_n_ratio needs a positive baseline welfare")
    return (full - partial) / under


def _metric_lambda_bar(p, spec, ctx):
    return _lambda_bar(p, spec.K)


def _metric_in_B(p, spec, ctx):
    return 1.0 if in_B(p, spec) else 0.0


def _metric_regularity(p, spec, ctx):
    return 1.0 if regularity(p) == "regular" else 0.0


SWEEP_METRICS = {
    "delta_bayes": _metric_delta_bayes,
    "delta_fixed": _metric_delta_fixed,
    "censor_gain": _metric_censor_gain,
    "finite_n_ratio": _metric_finite_n_ratio,
    "lambda_bar": _metric_lambda_bar,
    "in_B": _metric_in_B,
    "regularity": _metric_regularity,
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
    beta, a beta without a model, N for finite_n_ratio, a fixed d for the
    metrics that read it) are checked once and raise ValueError; cells
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
    if metric == "finite_n_ratio":
        N = _check_int(N, "N", 0)
    if metric in ("delta_fixed", "censor_gain", "finite_n_ratio") and "d" not in (x, y):
        _power_rule(d, metric)
    fn = SWEEP_METRICS[metric]
    base = {
        "p11": p11,
        "p22": p22,
        "gamma": gamma,
        "K": _axis_value("K", K),
        "d": d,
        "N": N,
        "beta": None if beta is None else _axis_value("beta", beta),
    }
    spec = ProblemSpec.noisy_priors(pi, gamma, base["K"], sigma_log, rho)
    spec_axes = {x, y} & {"gamma", "K"}
    xs = [_axis_value(x, v) for v in x_values]
    ys = [_axis_value(y, v) for v in y_values]
    kernels = {}  # censored kernel per distinct beta, local to this call
    rows = []
    for yv in ys:
        for xv in xs:
            ctx = dict(base)
            ctx[x], ctx[y] = xv, yv
            if spec_axes:
                spec = replace(spec, gamma=ctx["gamma"], K=ctx["K"])
            row = {x: ctx[x], y: ctx[y]}
            try:
                p = _sweep_dynamics(ctx, model, kernels)
                row["value"] = float(fn(p, spec, ctx))
                row["regular"] = 1.0 if regularity(p) == "regular" else 0.0
            except ValueError:
                row["value"] = math.nan
                row["regular"] = math.nan
            rows.append(row)
    return rows


def _axis_value(axis: str, v) -> float | int:
    """A grid value as a float, or as an int on the K axis; a beta is checked."""
    if axis == "K":
        if isinstance(v, float) and v.is_integer():  # a CLI grid value such as 2.0
            v = int(v)
        return _check_int(v, "K", 1)
    if axis == "beta":
        _check_beta(float(v))
    return float(v)


def _sweep_dynamics(ctx: dict, model, kernels: dict) -> PVector:
    beta = ctx["beta"]
    if beta is not None:
        if beta not in kernels:
            kernels[beta] = censored_transitions(model, beta)
        return conditional_dynamics(kernels[beta])
    if ctx["p11"] is None or ctx["p22"] is None:
        raise ValueError("sweep needs p11 and p22 (as axes or fixed values)")
    return PVector(p11=ctx["p11"], p22=ctx["p22"])
