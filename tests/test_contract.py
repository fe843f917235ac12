"""Boundary contract: bad input raises ValueError instead of passing through."""

import math
import warnings

import numpy as np
import pytest

from belieflab import (
    BayesParams,
    BeliefStrategy,
    ContinuousSignalModel,
    DiscreteSignalModel,
    PriorModel,
    PVector,
    Stakes,
    TransitionKernel,
    asymmetric_tilt_model,
    batch,
    bayes_params,
    bayes_welfare,
    censor_path,
    censored_direction_matrix,
    censor_sensitivity,
    censored_p,
    censored_transitions,
    classify,
    coin_model,
    decision_threshold,
    evidence_table,
    expected_welfare,
    finite_n_distribution,
    general_stationary,
    grid_argmax,
    illusory_model,
    in_B,
    kernel_from_p,
    ladder_transition,
    load_model,
    lunar_model,
    lunar_strength_rows,
    model_from_config,
    pool,
    posterior,
    prior_exceed_prob,
    regular_censoring_gain,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    sweep,
    threshold_mass,
    tilt_model,
    welfare_at_threshold,
)
from belieflab.scenarios import autocorr_model
from belieflab.welfare import ProblemSpec


def _ladder(K=2, N=5, beta=0.0):
    model = autocorr_model(draws=6)[0]
    return simulate_ladder(model, K, N, trials=10, seed=0, beta=beta)


def _welfare(model, N=5, beta=0.0, trials=10):
    spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
    return simulate_welfare(
        model, spec, BeliefStrategy(2.0), beta, N=N, trials=trials, seed=0
    )


def _sweep(metric="delta_bayes", **kwargs):
    grid = dict(x="p11", x_values=[0.7], y="p22", y_values=[0.6])
    return sweep(metric, **{**grid, **kwargs})


def _bayes_rule_welfare(p, K):
    spec = ProblemSpec.correct_priors(0.5, 0.5, K)
    return expected_welfare(p, spec, bayes_params(p, K))


def _argmax(weight, beta_grid=(0.0,), d_grid=(2.0,)):
    spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
    problems = [(tilt_model(1.0), spec, 1.0), (lunar_model(), spec, weight)]
    return grid_argmax(problems, beta_grid, d_grid)


_P3 = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
_PAIR = DiscreteSignalModel(outcomes=("a", "b"), probs=np.array([[0.6, 0.4], [0.3, 0.7]]))


# case -> (call, pattern the ValueError message must match)
_BAD_INPUTS = {
    "kernel-nan-entry": (
        lambda: TransitionKernel(up=(math.nan, 0.5), down=(0.5, 0.5), stay=(0.0, 0.0)),
        r"up must be a real number in \[-1e-15, 1\.000000000000001\], got nan",
    ),
    "prior-nan-sigma": (
        lambda: PriorModel(1.0, sigma_log=math.nan),
        r"sigma_log must be a real number in \[0, inf\), got nan",
    ),
    "prior-inf-rho": (
        lambda: PriorModel(rho=math.inf),
        r"rho must be a real number in \(0, inf\), got inf",
    ),
    "spec-fractional-K": (
        lambda: ProblemSpec(pi=0.5, gamma=0.6, prior=PriorModel(1.0), K=2.5),
        "K must be an integer >= 1",
    ),
    "transitions-nan-beta": (
        lambda: censored_transitions(tilt_model(1.0), math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "direction-matrix-nan-beta": (
        lambda: censored_direction_matrix(autocorr_model(draws=6)[0], math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "discrete-nan-probs": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[math.nan, 0.5], [0.5, 0.5]])
        ),
        "probs rows must be finite",
    ),
    "discrete-one-state": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[0.5, 0.5]]), theta_count=1
        ),
        "theta_count must be an integer >= 2",
    ),
    "chain-negative-N": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 2, N=-1, trials=10, seed=0),
        "N must be an integer >= 0",
    ),
    "chain-zero-K": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 0, N=5, trials=10, seed=0),
        "K must be an integer >= 1",
    ),
    "ladder-negative-N": (lambda: _ladder(N=-1), "N must be an integer >= 0"),
    "ladder-nan-beta": (
        lambda: _ladder(beta=math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "ladder-negative-beta": (
        lambda: _ladder(beta=-1.0),
        r"beta must be a real number in \[0, inf\), got -1\.0",
    ),
    "ladder-zero-K": (lambda: _ladder(K=0), "K must be an integer >= 1"),
    "welfare-lunar-negative-N": (
        lambda: _welfare(lunar_model(), N=-1), "N must be an integer >= 0"
    ),
    "welfare-lunar-nan-beta": (
        lambda: _welfare(lunar_model(), beta=math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "welfare-lunar-negative-beta": (
        lambda: _welfare(lunar_model(), beta=-0.5),
        r"beta must be a real number in \[0, inf\), got -0\.5",
    ),
    "welfare-tilt-negative-N": (
        lambda: _welfare(tilt_model(1.0), N=-1), "N must be an integer >= 0"
    ),
    "welfare-tilt-nan-beta": (
        lambda: _welfare(tilt_model(1.0), beta=math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "welfare-tilt-negative-beta": (
        lambda: _welfare(tilt_model(1.0), beta=-0.5),
        r"beta must be a real number in \[0, inf\), got -0\.5",
    ),
    "welfare-three-state-discrete": (
        lambda: _welfare(autocorr_model(draws=6)[0]),
        "model must be a ContinuousSignalModel or a DiscreteSignalModel with 2 states, "
        "got DiscreteSignalModel with 3 states",
    ),
    "welfare-one-trial": (
        lambda: _welfare(lunar_model(), trials=1), "trials must be an integer >= 2"
    ),
    "welfare-none-spec": (
        lambda: simulate_welfare(
            lunar_model(), None, BeliefStrategy(2.0), 0.0, N=5, trials=20, seed=0
        ),
        "^spec must be a ProblemSpec, got NoneType$",
    ),
    "finite-n-fractional-N": (
        lambda: finite_n_distribution(kernel_from_p(0.7, 0.6), 1, 2, N=2.5),
        "N must be an integer",
    ),
    "chain-fractional-N": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 2, N=2.5, trials=10, seed=0),
        "N must be an integer",
    ),
    "ladder-fractional-N": (lambda: _ladder(N=2.5), "N must be an integer"),
    "stationary-empty-matrix": (
        lambda: general_stationary(np.zeros((0, 0))), "square and nonempty"
    ),
    "sweep-fractional-K-axis": (
        lambda: _sweep(y="K", y_values=[2.0, 2.5]), "K must be an integer >= 1"
    ),
    "sweep-fractional-K-fixed": (
        lambda: _sweep(K=2.5), "K must be an integer >= 1"
    ),
    "sweep-beta-three-state": (
        lambda: _sweep("delta_fixed", x="beta", x_values=[0.0, 0.5], y="d", y_values=[2.0],
                       model=autocorr_model()[0]),
        "model must be a ContinuousSignalModel or a DiscreteSignalModel with 2 states, "
        "got DiscreteSignalModel with 3 states",
    ),
    "lambda-bar-overflow": (
        lambda: censor_sensitivity(PVector(0.999, 0.999), 60), "lambda_bar overflows"
    ),
    # a subnormal p22 is interior, but r2 overflows to inf
    "censor-sensitivity-subnormal-p22": (
        lambda: censor_sensitivity(PVector(0.5, 1e-310), 2),
        r"lam, lambda_bar, d_p not finite at p=\(0.5, 1e-310\)",
    ),
    # a subnormal p11 has finite odds, but dlog r1 overflows
    "censor-sensitivity-subnormal-p11": (
        lambda: censor_sensitivity(PVector(1e-310, 0.5), 2),
        r"dlam, dlambar not finite at p=\(1e-310, 0.5\), K=2",
    ),
    # a Bayes lam past the float range has no posterior rule to evaluate
    "bayes-welfare-inf-lam": (
        lambda: _bayes_rule_welfare(PVector(0.45, 0.98), 200),
        r"^lam must be a real number in \(0, inf\), got inf$",
    ),
    "bayes-welfare-zero-lam": (
        lambda: _bayes_rule_welfare(PVector(0.02, 0.6), 300),
        r"^lam must be a real number in \(0, inf\), got 0\.0$",
    ),
    "noisy-bayes-welfare-inf-lam": (
        lambda: bayes_welfare(
            PVector(0.6, 0.99), ProblemSpec.noisy_priors(0.5, 0.5, 300, 0.5)
        ),
        r"^lam must be a real number in \(0, inf\), got inf$",
    ),
    "strategy-inf-lam": (
        lambda: BeliefStrategy(1e200, lam=math.inf),
        r"lam must be a real number in \(0, inf\), got inf",
    ),
    "strategy-inf-d": (
        lambda: BeliefStrategy(math.inf),
        r"d must be a real number in \[1, inf\), got inf",
    ),
    "ladder-continuous-model": (
        lambda: simulate_ladder(tilt_model(1.0), 2, 5, trials=10, seed=0),
        "model must be a DiscreteSignalModel with 3 states, got ContinuousSignalModel$",
    ),
    "threshold-welfare-fractional-k": (
        lambda: welfare_at_threshold(0.5, PVector(0.7, 0.6), _SPEC),
        "k must be an integer",
    ),
    "censoring-gain-fractional-k": (
        lambda: regular_censoring_gain(PVector(0.7, 0.6), _SPEC, 0.5),
        "k must be an integer",
    ),
    "argmax-nan-weight": (
        lambda: _argmax(math.nan),
        r"weight must be a real number in \[0, inf\), got nan",
    ),
    "argmax-inf-weight": (
        lambda: _argmax(math.inf),
        r"weight must be a real number in \[0, inf\), got inf",
    ),
    "argmax-negative-weight": (
        lambda: _argmax(-0.5),
        r"weight must be a real number in \[0, inf\), got -0\.5",
    ),
    "argmax-empty-beta-grid": (
        lambda: _argmax(1.0, beta_grid=[]),
        "beta_grid is empty",
    ),
    "argmax-empty-d-grid": (
        lambda: _argmax(1.0, d_grid=[]),
        "d_grid is empty",
    ),
    # a grid, an axis's values or a path that is not one
    "argmax-none-beta-grid": (
        lambda: _argmax(1.0, beta_grid=None),
        "^beta_grid must be an Iterable, got NoneType$",
    ),
    "argmax-none-d-grid": (
        lambda: _argmax(1.0, d_grid=None),
        "^d_grid must be an Iterable, got NoneType$",
    ),
    "argmax-none-problems": (
        lambda: grid_argmax(None, [0.0], [2.0]),
        "^problems must be an Iterable, got NoneType$",
    ),
    "argmax-none-spec": (
        lambda: grid_argmax([(tilt_model(1.0), None, 1.0)], [0.0], [2.0]),
        "^spec must be a ProblemSpec, got NoneType$",
    ),
    "argmax-pair-problem": (
        lambda: grid_argmax([(tilt_model(1.0), _SPEC)], [0.0], [2.0]),
        r"^problems must be \(model, spec, weight\) triples, got \(",
    ),
    # s is the exponent of d**s: any real, infinities included, but no NaN
    "posterior-tuple-s": (
        lambda: posterior(BeliefStrategy(2.0), 1.0, (1,)),
        r"^s must be a real number in \[-inf, inf\], got \(1,\)$",
    ),
    "posterior-str-s": (
        lambda: posterior(BeliefStrategy(2.0), 1.0, "x"),
        r"^s must be a real number in \[-inf, inf\], got 'x'$",
    ),
    "posterior-none-s": (
        lambda: posterior(BeliefStrategy(2.0), 1.0, None),
        r"^s must be a real number in \[-inf, inf\], got None$",
    ),
    "posterior-nan-s": (
        lambda: posterior(BeliefStrategy(2.0), 1.0, math.nan),
        r"^s must be a real number in \[-inf, inf\], got nan$",
    ),
    "censor-path-none-grid": (
        lambda: censor_path(tilt_model(1.0), None),
        "^beta_grid must be an Iterable, got NoneType$",
    ),
    "sweep-none-x-values": (
        lambda: _sweep(x_values=None),
        "^x_values must be an Iterable, got NoneType$",
    ),
    "sweep-number-y-values": (
        lambda: _sweep(y_values=3),
        "^y_values must be an Iterable, got int$",
    ),
    "load-model-none-path": (
        lambda: load_model(None),
        "^path must be a str or a PathLike, got NoneType$",
    ),
    "load-model-tuple-path": (
        lambda: load_model((0.7,)),
        "^path must be a str or a PathLike, got tuple$",
    ),
    "prior-exceed-nan-threshold": (
        lambda: prior_exceed_prob(PriorModel(1.0, 0.5), math.nan),
        r"t must be a real number in \[0, inf\], got nan",
    ),
    "decision-threshold-nan-prior": (
        lambda: decision_threshold(BeliefStrategy(2.0), math.nan, 1.5, 2),
        r"rho_tilde must be a real number in \(0, inf\), got nan",
    ),
    "decision-threshold-nan-gamma": (
        lambda: decision_threshold(BeliefStrategy(2.0), 1.0, math.nan, 2),
        r"Gamma must be a real number in \[0, inf\], got nan",
    ),
    "decision-threshold-negative-gamma": (
        lambda: decision_threshold(BeliefStrategy(2.0), 1.0, -1.0, 2),
        r"Gamma must be a real number in \[0, inf\], got -1\.0",
    ),
    "model-doc-unknown-param": (
        lambda: model_from_config({"family": "tilt", "params": {"bogus": 1}}),
        "bad params for model 'tilt'.*unexpected keyword argument 'bogus'",
    ),
    "model-doc-params-not-object": (
        lambda: model_from_config({"family": "tilt", "params": [1]}),
        "params must be a JSON object",
    ),
    "lunar-empty-truncated-table": (
        lambda: lunar_model(base_rate=1e3),
        "no delivery count up to cutoff=40 has mass",
    ),
    "lunar-nan-base-rate": (
        lambda: lunar_model(base_rate=math.nan),
        r"base_rate must be a real number in \(0, inf\), got nan",
    ),
    "lunar-inf-base-rate": (
        lambda: lunar_model(base_rate=math.inf),
        r"base_rate must be a real number in \(0, inf\), got inf",
    ),
    "lunar-nan-effect": (
        lambda: lunar_model(effect=math.nan),
        r"effect must be a real number in \(1, inf\), got nan",
    ),
    "illusory-nan-alpha": (
        lambda: illusory_model(math.nan, 0.1, 0.05),
        r"alpha must be a real number in \(1, inf\), got nan",
    ),
    "model-doc-unknown-family": (
        lambda: model_from_config({"family": "nope"}),
        r"unknown family 'nope'; known: \['asymmetric_tilt', 'autocorr', 'coin',",
    ),
    "model-doc-family-not-a-name": (
        lambda: model_from_config({"family": ["tilt"]}), "unknown family",
    ),
    "model-doc-not-object": (
        lambda: model_from_config([1]), "model document must be a JSON object"
    ),
    "model-doc-no-outcomes": (
        lambda: model_from_config({"probs": {"1": [1.0], "2": [1.0]}}),
        "needs 'outcomes' and 'probs'",
    ),
    "model-doc-missing-probs-row": (
        lambda: model_from_config(
            {"outcomes": ["a", "b"], "probs": {"1": [0.6, 0.4]}}
        ),
        "'probs' has no row for state 2",
    ),
    "model-doc-fractional-theta-count": (
        lambda: model_from_config(
            {"theta_count": 2.5, "outcomes": ["a", "b"],
             "probs": {"1": [0.6, 0.4], "2": [0.3, 0.7]}}
        ),
        "theta_count must be an integer",
    ),
    "model-doc-null-theta-count": (
        lambda: model_from_config(
            {"theta_count": None, "outcomes": ["a", "b"],
             "probs": {"1": [0.6, 0.4], "2": [0.3, 0.7]}}
        ),
        "theta_count must be an integer",
    ),
    "model-doc-outcomes-not-array": (
        lambda: model_from_config(
            {"outcomes": 5, "probs": {"1": [0.6, 0.4], "2": [0.3, 0.7]}}
        ),
        "needs 'outcomes' and 'probs'",
    ),
    "evidence-table-nan-beta": (
        lambda: evidence_table(lunar_model(), beta=math.nan),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "chain-fractional-trials": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 2, N=5, trials=2.5, seed=0),
        "trials must be an integer",
    ),
    "ladder-fractional-trials": (
        lambda: simulate_ladder(
            autocorr_model(draws=6)[0], 2, 5, trials=2.5, seed=0
        ),
        "trials must be an integer",
    ),
    "bayes-params-zero-K": (
        lambda: bayes_params(PVector(0.7, 0.6), 0), "K must be an integer >= 1"
    ),
    "bayes-params-fractional-K": (
        lambda: bayes_params(PVector(0.7, 0.6), 2.5), "K must be an integer >= 1"
    ),
    "spec-pi-one-with-rho": (
        lambda: ProblemSpec.noisy_priors(1.0, 0.6, 2, rho=1.0),
        r"pi must be a real number in \(0, 1\), got 1\.0",
    ),
    "sweep-pi-one": (
        lambda: _sweep(pi=1.0),
        r"pi must be a real number in \(0, 1\), got 1\.0",
    ),
    "sweep-nan-sigma": (
        lambda: _sweep(sigma_log=math.nan),
        r"sigma_log must be a real number in \[0, inf\), got nan",
    ),
    "sweep-negative-rho": (
        lambda: _sweep(rho=-1.0),
        r"rho must be a real number in \(0, inf\), got -1\.0",
    ),
    "sweep-negative-N": (
        lambda: _sweep("finite_n_ratio", N=-1), "N must be an integer >= 0"
    ),
    "sweep-fractional-N": (
        lambda: _sweep("finite_n_ratio", N=2.5), "N must be an integer"
    ),
    "sweep-fixed-beta-without-model": (
        lambda: _sweep("delta_fixed", beta=0.5), "needs a signal model"
    ),
    "sweep-beta-axis-without-model": (
        lambda: _sweep(y="beta", y_values=[0.0, 0.5]), "needs a signal model"
    ),
    "sweep-model-without-beta": (
        lambda: _sweep("delta_fixed", model=tilt_model(1.0)),
        "^a signal model needs a beta axis or a fixed beta$",
    ),
    "sweep-negative-fixed-beta": (
        lambda: _sweep(beta=-0.5, model=tilt_model(1.0)),
        r"beta must be a real number in \[0, inf\), got -0\.5",
    ),
    "sweep-nan-fixed-beta": (
        lambda: _sweep(beta=math.nan, model=tilt_model(1.0)),
        r"beta must be a real number in \[0, inf\), got nan",
    ),
    "sweep-delta-fixed-fixed-d-one": (
        lambda: _sweep("delta_fixed", d=1.0),
        r"d must be a real number in \(1, inf\), got 1\.0",
    ),
    "sweep-censor-gain-fixed-d-below-one": (
        lambda: _sweep("censor_gain", d=0.5),
        r"d must be a real number in \[1, inf\), got 0\.5",
    ),
    "sweep-finite-n-ratio-nan-d": (
        lambda: _sweep("finite_n_ratio", d=math.nan),
        r"d must be a real number in \[1, inf\), got nan",
    ),
    "coin-fractional-J": (lambda: coin_model(0.7, 0.8, 2.5), "J must be an integer"),
    "batch-fractional-J": (
        lambda: batch(illusory_model(2.0, 0.1, 0.05), 2.5), "J must be an integer"
    ),
    "autocorr-fractional-draws": (
        lambda: autocorr_model(draws=6.5), "draws must be an integer"
    ),
    "lunar-fractional-capacity": (
        lambda: lunar_model(capacity=12.5), "capacity must be an integer"
    ),
    "lunar-fractional-cutoff": (
        lambda: lunar_model(cutoff=40.5), "cutoff must be an integer"
    ),
    "lunar-fractional-ceiling": (
        lambda: lunar_model(tension_ceiling=8.5), "tension_ceiling must be an integer"
    ),
    "chain-bool-arguments": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, True, True, True, 0),
        "trials must be an integer >= 1, got True",
    ),
    "discrete-float-theta-count": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[0.6, 0.4], [0.3, 0.7]]),
            theta_count=2.0,
        ),
        "theta_count must be an integer >= 2, got 2.0",
    ),
    "ladder-nan-law": (
        lambda: ladder_transition(
            np.array([[math.nan, 0.2, 0.2], [0.5, 0.6, 0.2], [0.5, 0.2, 0.6]]), 2, 1
        ),
        "p3 columns must be finite",
    ),
    "stationary-nan-row": (
        lambda: general_stationary([[0.5, 0.5], [0.5, math.nan]]),
        "matrix rows must be finite",
    ),
    "stationary-negative-entry": (
        lambda: general_stationary([[1.5, -0.5], [0.5, 0.5]]),
        "matrix rows must be finite, nonnegative",
    ),
    "discrete-negative-prob": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[1.2, -0.2], [0.5, 0.5]])
        ),
        "probs rows must be finite, nonnegative",
    ),
    "kernel-bool-theta": (
        lambda: kernel_from_p(0.7, 0.6).column(True),
        r"theta must be an integer in \[1, 2\], got True",
    ),
    "finite-n-bool-theta": (
        lambda: finite_n_distribution(kernel_from_p(0.7, 0.6), True, 1, 2),
        r"theta must be an integer in \[1, 2\], got True",
    ),
    "ladder-bool-theta": (
        lambda: ladder_transition(_P3, 1, True),
        r"theta must be an integer in \[1, 3\], got True",
    ),
    "ladder-float-theta": (
        lambda: ladder_transition(_P3, 1, 1.0),
        r"theta must be an integer in \[1, 3\], got 1\.0",
    ),
    "discrete-prob-zero-theta": (
        lambda: _PAIR.prob("a", 0), r"theta must be an integer in \[1, 2\], got 0"
    ),
    "discrete-prob-high-theta": (
        lambda: _PAIR.prob("a", 3), r"theta must be an integer in \[1, 2\], got 3"
    ),
    "tilt-overflowing-lam": (lambda: tilt_model(1000.0), "overflows"),
    "asymmetric-tilt-overflowing-spike": (
        lambda: asymmetric_tilt_model(spike=1000.0), "overflows"
    ),
    "tilt-inf-lam": (
        lambda: tilt_model(math.inf),
        r"lam must be a real number in \(0, inf\), got inf",
    ),
    "tilt-nan-lam": (
        lambda: tilt_model(math.nan),
        r"lam must be a real number in \(0, inf\), got nan",
    ),
    "asymmetric-tilt-inf-spike": (
        lambda: asymmetric_tilt_model(spike=math.inf),
        r"spike must be a real number in \(0\.1, inf\), got inf",
    ),
    "asymmetric-tilt-nan-lam": (
        lambda: asymmetric_tilt_model(lam=math.nan),
        r"lam must be a real number in \(0, inf\), got nan",
    ),
    "decision-threshold-inverted-power": (
        lambda: decision_threshold(BayesParams(0.5, 1.0), 1.0, 1.5, 2),
        r"strategy\.d must be a real number in \[1, inf\], got 0\.5",
    ),
    "threshold-mass-prior-a-str": (
        lambda: threshold_mass("prior", BeliefStrategy(2.0), 1.5, 2),
        "^prior must be a PriorModel, got str$",
    ),
    "lunar-strength-rows-swapped-states": (
        lambda: lunar_strength_rows(
            DiscreteSignalModel(lunar_model().outcomes, lunar_model().probs[::-1])
        ),
        "^outcome 0,1 points to 1, expected 2$",
    ),
    "lunar-strength-rows-continuous-model": (
        lambda: lunar_strength_rows(tilt_model(1.0)),
        "^model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "threshold-mass-inverted-power": (
        lambda: threshold_mass(PriorModel(1.0), BayesParams(0.5, 1.0), 1.5, 2),
        r"strategy\.d must be a real number in \[1, inf\], got 0\.5",
    ),
    "ladder-two-by-two-law": (
        lambda: ladder_transition(np.eye(2), 1, 1), r"p3 must be 3x3, got shape \(2, 2\)"
    ),
    "lunar-moon-fraction-above-one": (
        lambda: lunar_model(full_moon_frac=1.5),
        r"full_moon_frac must be a real number in \(0, 1\), got 1\.5",
    ),
    "illusory-r-above-one": (
        lambda: illusory_model(2.0, 1.5, 0.05),
        r"r must be a real number in \(0, 1\), got 1\.5",
    ),
    "coin-bias-above-one": (
        lambda: coin_model(1.5, 0.8),
        r"alpha1 must be a real number in \(0, 1\), got 1\.5",
    ),
    "autocorr-two-rhos": (
        lambda: autocorr_model(rho_set=(0.5, 0.5)),
        "rho_set must be three probabilities",
    ),
    "kernel-entry-above-one": (
        lambda: TransitionKernel((1.5, 0.5), (-0.5, 0.5), (0.0, 0.0)),
        r"up must be a real number in \[-1e-15, 1\.000000000000001\], got 1\.5",
    ),
    "discrete-table-shape": (
        lambda: DiscreteSignalModel(outcomes=("a", "b"), probs=np.array([[0.6, 0.4]])),
        r"probs shape \(1, 2\) does not match 2 states x 2 outcomes",
    ),
    "discrete-repeated-label": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "a"), probs=np.array([[0.6, 0.4], [0.3, 0.7]])
        ),
        "outcome labels must be unique",
    ),
    "tilt-negative-lam": (
        lambda: tilt_model(-1.0),
        r"lam must be a real number in \(0, inf\), got -1\.0",
    ),
    "asymmetric-tilt-lam-above-spike": (
        lambda: asymmetric_tilt_model(lam=2.0, spike=1.0),
        r"spike must be a real number in \(2\.0, inf\), got 1\.0",
    ),
    "asymmetric-tilt-weight-above-one": (
        lambda: asymmetric_tilt_model(weight=1.5),
        r"weight must be a real number in \(0, 1\), got 1\.5",
    ),
    "classify-signal-outside-support": (
        lambda: classify(tilt_model(1.0), 1.5),
        r"x must be a real number in \[0, 1\], got 1\.5",
    ),
    "pool-empty-group": (
        lambda: pool(coin_model(0.7, 0.8), [[], ["0", "1"]]), "empty partition group"
    ),
    "pool-partition-an-int": (
        lambda: pool(coin_model(0.7, 0.8), 5),
        "partition must map labels to groups of outcome labels or be an iterable of such "
        "groups, got 5",
    ),
    "pool-group-an-int": (
        lambda: pool(coin_model(0.7, 0.8), {"a": 5}),
        r"partition must map labels to groups .*, got \{'a': 5\}",
    ),
    "transitions-model-a-name": (
        lambda: censored_transitions("tilt", 0.1),
        "model must be a ContinuousSignalModel or a DiscreteSignalModel with 2 states, "
        "got str$",
    ),
    "sweep-model-a-name": (
        lambda: _sweep(x="beta", x_values=[0.0], y="d", y_values=[2.0], model="tilt"),
        "model must be a ContinuousSignalModel or a DiscreteSignalModel with 2 states, "
        "got str$",
    ),
    "evidence-table-continuous-model": (
        lambda: evidence_table(tilt_model(1.0)),
        "model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "welfare-model-a-name": (
        lambda: _welfare("tilt"),
        "model must be a ContinuousSignalModel or a DiscreteSignalModel with 2 states, "
        "got str$",
    ),
    "welfare-degenerate-parameters": (
        lambda: expected_welfare(
            PVector(0.7, 0.6), _SPEC, BayesParams(math.nan, math.nan, True)
        ),
        "degenerate parameters have no posterior rule",
    ),
    "in-b-boundary-p": (
        lambda: in_B(PVector(1.0, 0.5), _SPEC), "in_B needs interior dynamics"
    ),
    "censor-sensitivity-boundary-p": (
        lambda: censor_sensitivity(PVector(1.0, 0.5), 2),
        "censor_sensitivity needs interior dynamics",
    ),
    "censored-p-step-too-large": (
        lambda: censored_p(PVector(0.7, 0.6), 0.7),
        r"x must be a real number in \(-0\.5, 0\.5\), got 0\.7",
    ),
    "censoring-gain-k-above-K": (
        lambda: regular_censoring_gain(PVector(0.8, 0.7), _SPEC, 3),
        r"k must be an integer in \[-1, 2\], got 3",
    ),
    "sweep-unknown-axis": (
        lambda: _sweep(x="bogus"), "unknown axis 'bogus'; choose from"
    ),
    "sweep-same-axis-twice": (
        lambda: _sweep(y="p11"), "x and y axes must differ"
    ),
    "decision-threshold-inf-prior": (
        lambda: decision_threshold(BeliefStrategy(2.0), math.inf, 1.5, 2),
        r"rho_tilde must be a real number in \(0, inf\), got inf",
    ),
    "kernel-list-field": (
        lambda: TransitionKernel([0.5, 0.5], (0.5, 0.5), (0.0, 0.0)),
        r"up must be a tuple of two probabilities, got \[0\.5, 0\.5\]",
    ),
    "kernel-array-field": (
        lambda: TransitionKernel(np.array([0.5, 0.5]), (0.5, 0.5), (0.0, 0.0)),
        "up must be a tuple of two probabilities, got array",
    ),
    "continuous-zero-tilt": (
        lambda: ContinuousSignalModel((((0.0, 1.0),), ((-1.0, 1.0),))),
        r"tilt must be nonzero, got 0\.0",
    ),
    "continuous-nan-tilt": (
        lambda: ContinuousSignalModel((((math.nan, 1.0),), ((-1.0, 1.0),))),
        r"tilt must be a real number in \(-inf, inf\), got nan",
    ),
    # expm1(-710) is finite, but the density exp(-710 x) underflows near x = 1
    "continuous-tilt-past-expm1-range": (
        lambda: ContinuousSignalModel((((1.0, 1.0),), ((-710.0, 1.0),))),
        "tilt -710.0 overflows the density's normalizer",
    ),
    "continuous-nan-weight": (
        lambda: ContinuousSignalModel((((1.0, math.nan),), ((-1.0, 1.0),))),
        r"weight must be a real number in \(-inf, inf\), got nan",
    ),
    "continuous-weights-not-a-law": (
        lambda: ContinuousSignalModel((((1.0, 0.6), (2.0, 0.6)), ((-1.0, 1.0),))),
        "state 1 tilt weights must be finite, nonnegative and sum to 1",
    ),
    "continuous-state-1-tilt-not-above-state-2": (
        lambda: ContinuousSignalModel((((1.0, 0.5), (3.0, 0.5)), ((2.0, 1.0),))),
        "every state-1 tilt must exceed every state-2 tilt",
    ),
    "continuous-three-components": (
        lambda: ContinuousSignalModel(
            (((1.0, 0.5), (2.0, 0.25), (3.0, 0.25)), ((-1.0, 1.0),))
        ),
        "state 1 needs one or two tilt components, got 3",
    ),
    "continuous-tilts-not-pairs": (
        lambda: ContinuousSignalModel((1.0, -1.0)),
        r"tilts must be two states of \(t, weight\) pairs, got \(1.0, -1.0\)",
    ),
    "continuous-one-state": (
        lambda: ContinuousSignalModel((((1.0, 1.0),),)),
        r"tilts must be two states of \(t, weight\) pairs",
    ),
    "continuous-tilt-not-a-number": (
        lambda: ContinuousSignalModel(((("1.0", 1.0),), ((-1.0, 1.0),))),
        r"tilt must be a real number in \(-inf, inf\), got '1\.0'",
    ),
    "prior-list-rho": (
        lambda: PriorModel([1.0]),
        r"rho must be a real number in \(0, inf\), got \[1\.0\]",
    ),
    "prior-none-rho": (
        lambda: PriorModel(None),
        r"rho must be a real number in \(0, inf\), got None",
    ),
    "prior-str-sigma": (
        lambda: PriorModel(1.0, "0.5"),
        r"sigma_log must be a real number in \[0, inf\), got '0\.5'",
    ),
    "strategy-list-d": (
        lambda: BeliefStrategy([2.0]),
        r"d must be a real number in \[1, inf\), got \[2\.0\]",
    ),
    "strategy-array-lam": (
        lambda: BeliefStrategy(2.0, np.array([1.0, 2.0])),
        r"lam must be a real number in \(0, inf\), got array",
    ),
    "pvector-list-field": (
        lambda: PVector([0.5], 0.5),
        r"p11 must be a real number in \[0, 1\], got \[0\.5\]",
    ),
    "pvector-str-field": (
        lambda: PVector("0.5", 0.5), r"p11 must be a real number in \[0, 1\], got '0\.5'"
    ),
    "pvector-array-field": (
        lambda: PVector(0.5, np.array([0.5, 0.6])),
        r"p22 must be a real number in \[0, 1\], got array",
    ),
    "stakes-list-gamma": (
        lambda: Stakes([0.5]), r"gamma must be a real number in \[0, 1\], got \[0\.5\]"
    ),
    "spec-none-pi": (
        lambda: ProblemSpec(None, 0.6, PriorModel(1.0), 2),
        r"pi must be a real number in \(0, 1\), got None",
    ),
    "spec-str-gamma": (
        lambda: ProblemSpec(0.5, "0.6", PriorModel(1.0), 2),
        r"gamma must be a real number in \[0, 1\], got '0\.6'",
    ),
    "spec-str-prior": (
        lambda: ProblemSpec(0.5, 0.6, "prior", 2), "^prior must be a PriorModel, got str$"
    ),
    "direction-matrix-continuous-model": (
        lambda: censored_direction_matrix(tilt_model(1.0), 0.1),
        "^model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "direction-matrix-model-a-name": (
        lambda: censored_direction_matrix("x", 0.1),
        "^model must be a DiscreteSignalModel, got str$",
    ),
    "pool-continuous-model": (
        lambda: pool(tilt_model(1.0), [["a"]]),
        "^model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "batch-continuous-model": (
        lambda: batch(tilt_model(1.0), 2),
        "^model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "batch-continuous-model-one-at-a-time": (
        lambda: batch(tilt_model(1.0), 1),
        "^model must be a DiscreteSignalModel, got ContinuousSignalModel$",
    ),
    "classify-model-a-name": (
        lambda: classify("x", 0.5),
        "^model must be a ContinuousSignalModel or a DiscreteSignalModel, got str$",
    ),
    "ladder-two-state-model": (
        lambda: simulate_ladder(lunar_model(), 2, 5, trials=10, seed=0),
        "^model must be a DiscreteSignalModel with 3 states, got DiscreteSignalModel with 2 "
        "states$",
    ),
    "threshold-welfare-k-above-K": (
        lambda: welfare_at_threshold(4, PVector(0.7, 0.6), _SPEC),
        r"^k must be an integer in \[-2, 3\], got 4$",
    ),
    "threshold-welfare-k-below-minus-K": (
        lambda: welfare_at_threshold(-3, PVector(0.7, 0.6), _SPEC),
        r"^k must be an integer in \[-2, 3\], got -3$",
    ),
    "censoring-gain-k-at-minus-K": (
        lambda: regular_censoring_gain(PVector(0.8, 0.7), _SPEC, -2),
        r"^k must be an integer in \[-1, 2\], got -2$",
    ),
    "sweep-nan-p11-axis": (
        lambda: _sweep(x_values=[0.7, math.nan]),
        r"^p11 must be a real number in \[-inf, inf\], got nan$",
    ),
    "sweep-nan-p22-fixed": (
        lambda: _sweep(y="gamma", y_values=[0.6], p22=math.nan),
        r"^p22 must be a real number in \[-inf, inf\], got nan$",
    ),
    "sweep-nan-d-axis": (
        lambda: _sweep("delta_fixed", x="d", x_values=[2.0, math.nan], p11=0.7),
        r"^d must be a real number in \[-inf, inf\], got nan$",
    ),
    "sweep-str-gamma-axis": (
        lambda: _sweep(y="gamma", y_values=["0.6"], p22=0.6),
        r"^gamma must be a real number in \[0, 1\], got '0\.6'$",
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_raises_value_error(case):
    call, pattern = _BAD_INPUTS[case]
    with pytest.raises(ValueError, match=pattern):
        call()


def test_odds_past_the_float_range_give_a_degenerate_bayes_rule():
    # a subnormal p22 is interior, but r2 = (1 - p22) / p22 overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = bayes_params(PVector(0.5, 1e-310), 2)
    assert rule.degenerate
    assert math.isnan(rule.d) and math.isnan(rule.lam)


def test_odds_overflow_from_p22_at_two_to_the_minus_1024_down():
    # 1 / 2**-1024 rounds to inf; the next float up keeps r2 finite
    tiny = 2.0**-1024
    assert bayes_params(PVector(0.5, tiny), 2).degenerate
    above = float(np.nextafter(tiny, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = bayes_params(PVector(0.5, above), 2)
    assert not rule.degenerate and rule.d == above and rule.lam == math.inf


def test_integral_values_of_integer_arguments_still_accepted():
    q = kernel_from_p(0.7, 0.6)
    np.testing.assert_array_equal(
        finite_n_distribution(q, 1, 2, N=np.int64(3)),
        finite_n_distribution(q, 1, 2, N=3),
    )
    rows = _sweep(y="K", y_values=[1.0, 2.0, 3.0])  # a CLI grid such as 1:3:3
    assert [r["K"] for r in rows] == [1, 2, 3]
    assert all(isinstance(r["K"], int) for r in rows)
    assert _sweep(K=2.0) == _sweep(K=2)


# An overflowing or underflowing shift lam * d**s acts 1 or 0 outright.
_HUGE_D = 1e200
_SPEC = ProblemSpec.noisy_priors(0.5, 0.6, K=2, sigma_log=0.5)


def test_expected_welfare_is_total_for_huge_power():
    report = expected_welfare(PVector(0.8, 0.7), _SPEC, BeliefStrategy(_HUGE_D))
    assert math.isfinite(report.value) and 0.0 <= report.value <= 1.0


def test_threshold_mass_is_total_for_huge_power():
    mass = threshold_mass(_SPEC.prior, BeliefStrategy(_HUGE_D), _SPEC.Gamma, 2)
    # states below 0 never act, states above 0 always do, state 0 keeps the prior
    act_now = prior_exceed_prob(_SPEC.prior, _SPEC.Gamma)
    np.testing.assert_array_equal(mass, [0.0, 0.0, act_now, 1.0 - act_now, 0.0, 0.0])


@pytest.mark.parametrize("metric", ["delta_fixed", "censor_gain", "finite_n_ratio"])
def test_sweep_is_total_for_huge_power(metric):
    rows = sweep(metric, "p11", [0.6, 0.8], "d", [2.0, _HUGE_D], p22=0.7, K=2)
    assert all(math.isfinite(r["value"]) for r in rows)


def test_decision_threshold_is_total_for_huge_power():
    # d**2 overflows: the posterior is inf, which clears even an infinite bar
    assert decision_threshold(BeliefStrategy(_HUGE_D), 1.0, math.inf, 2) == 2


def test_a_d_axis_keeps_per_cell_nan():
    rows = sweep("delta_fixed", "p11", [0.7], "d", [1.0, 2.0], p22=0.6)
    assert math.isnan(rows[0]["value"]) and math.isfinite(rows[1]["value"])


def test_a_metric_that_ignores_d_does_not_check_it():
    assert _sweep("delta_bayes", d=0.5) == _sweep("delta_bayes")


def test_sweep_lambda_bar_overflow_is_a_nan_cell():
    rows = sweep("lambda_bar", "p11", [0.999999], "p22", [0.999999], K=40)
    assert math.isnan(rows[0]["value"])


def test_sweep_lambda_bar_is_finite_where_d_to_the_K_overflows():
    # d**K overflows and lam underflows; lambda_bar itself is about 94.7
    rows = sweep("lambda_bar", "p11", [0.95], "p22", [0.4975], K=260)
    assert rows[0]["value"] == pytest.approx(94.69, rel=1e-3)


# in_B compares d_p with the bar Gamma / (rho * lam) and its inverse; a bar of
# 0 or inf (Gamma = 0, or lam underflowing to 0 or overflowing to inf) is the
# limit where no d clears both, so these dynamics are outside the set.
@pytest.mark.parametrize(
    "p, K, gamma",
    [
        (PVector(0.8, 0.7), 2, 0.0),     # Gamma = 0
        (PVector(0.999, 0.6), 200, 0.6),  # lam = 0
        (PVector(0.6, 0.999), 200, 0.6),  # lam = inf
    ],
    ids=["gamma-zero", "lam-zero", "lam-inf"],
)
def test_in_B_is_false_at_a_zero_or_infinite_bar(p, K, gamma):
    lam = bayes_params(p, K).lam
    assert lam in (0.0, math.inf) or gamma == 0.0
    assert in_B(p, ProblemSpec.correct_priors(0.5, gamma, K)) is False


def test_sweep_in_B_at_zero_stakes_is_a_value():
    rows = sweep("in_B", "p11", [0.8], "gamma", [0.0], p22=0.7)
    assert (rows[0]["value"], rows[0]["regular"]) == (0.0, 1.0)


def test_finite_n_ratio_without_baseline_welfare_is_a_nan_cell():
    # pi * (1 - gamma) underflows to 0 and the prior always acts 1
    rows = sweep("finite_n_ratio", "p11", [0.7], "p22", [0.6],
                 pi=5e-324, rho=1e300, gamma=0.5)
    assert math.isnan(rows[0]["value"]) and math.isnan(rows[0]["regular"])
