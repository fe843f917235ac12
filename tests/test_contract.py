"""Boundary contract: bad input raises ValueError instead of passing through."""

import math

import numpy as np
import pytest

from belieflab import (
    BeliefStrategy,
    DiscreteSignalModel,
    PriorModel,
    PVector,
    TransitionKernel,
    asymmetric_tilt_model,
    batch,
    bayes_params,
    censored_direction_matrix,
    censor_sensitivity,
    censored_transitions,
    coin_model,
    decision_threshold,
    evidence_table,
    expected_welfare,
    finite_n_distribution,
    general_stationary,
    grid_argmax,
    illusory_model,
    kernel_from_p,
    lunar_model,
    prior_exceed_prob,
    regular_censoring_gain,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    sweep,
    threshold_mass,
    tilt_model,
    upper_tail,
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


def _argmax(weight):
    spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
    problems = [(tilt_model(1.0), spec, 1.0), (lunar_model(), spec, weight)]
    return grid_argmax(problems, [0.0], [2.0])


# case -> (call, pattern the ValueError message must match)
_BAD_INPUTS = {
    "kernel-nan-entry": (
        lambda: TransitionKernel(up=(math.nan, 0.5), down=(0.5, 0.5), stay=(0.0, 0.0)),
        "up must be finite",
    ),
    "prior-nan-sigma": (
        lambda: PriorModel(1.0, sigma_log=math.nan),
        "sigma_log must be finite",
    ),
    "prior-inf-rho": (lambda: PriorModel(rho=math.inf), "rho must be finite"),
    "spec-fractional-K": (
        lambda: ProblemSpec(pi=0.5, gamma=0.6, prior=PriorModel(1.0), K=2.5),
        "K must be a positive integer",
    ),
    "transitions-nan-beta": (
        lambda: censored_transitions(tilt_model(1.0), math.nan),
        "beta must be finite",
    ),
    "direction-matrix-nan-beta": (
        lambda: censored_direction_matrix(autocorr_model(draws=6)[0], math.nan),
        "beta must be finite",
    ),
    "discrete-nan-probs": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[math.nan, 0.5], [0.5, 0.5]])
        ),
        "probs must be finite",
    ),
    "discrete-one-state": (
        lambda: DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[0.5, 0.5]]), theta_count=1
        ),
        "at least two states",
    ),
    "chain-negative-N": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 2, N=-1, trials=10, seed=0),
        "N must be nonnegative",
    ),
    "chain-zero-K": (
        lambda: simulate_chain(kernel_from_p(0.7, 0.6), 1, 0, N=5, trials=10, seed=0),
        "K must be a positive integer",
    ),
    "chain-processed-only-fully-censored": (
        lambda: simulate_chain(
            TransitionKernel(up=(0.5, 0.0), down=(0.5, 0.0), stay=(0.0, 1.0)),
            2, 2, N=5, trials=10, seed=0, processed_only=True,
        ),
        "fully censored under state theta=2",
    ),
    "ladder-negative-N": (lambda: _ladder(N=-1), "N must be nonnegative"),
    "ladder-nan-beta": (lambda: _ladder(beta=math.nan), "beta must be finite"),
    "ladder-negative-beta": (lambda: _ladder(beta=-1.0), "beta must be nonnegative"),
    "ladder-zero-K": (lambda: _ladder(K=0), "K must be a positive integer"),
    "welfare-lunar-negative-N": (
        lambda: _welfare(lunar_model(), N=-1), "N must be nonnegative"
    ),
    "welfare-lunar-nan-beta": (
        lambda: _welfare(lunar_model(), beta=math.nan), "beta must be finite"
    ),
    "welfare-lunar-negative-beta": (
        lambda: _welfare(lunar_model(), beta=-0.5), "beta must be nonnegative"
    ),
    "welfare-tilt-negative-N": (
        lambda: _welfare(tilt_model(1.0), N=-1), "N must be nonnegative"
    ),
    "welfare-tilt-nan-beta": (
        lambda: _welfare(tilt_model(1.0), beta=math.nan), "beta must be finite"
    ),
    "welfare-tilt-negative-beta": (
        lambda: _welfare(tilt_model(1.0), beta=-0.5), "beta must be nonnegative"
    ),
    "welfare-three-state-discrete": (
        lambda: _welfare(autocorr_model(draws=6)[0]), "two-state model"
    ),
    "welfare-one-trial": (
        lambda: _welfare(lunar_model(), trials=1), "trials must be at least 2"
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
        lambda: _sweep(y="K", y_values=[2.0, 2.5]), "K must be a positive integer"
    ),
    "sweep-fractional-K-fixed": (
        lambda: _sweep(K=2.5), "K must be a positive integer"
    ),
    "lambda-bar-overflow": (
        lambda: censor_sensitivity(PVector(0.999, 0.999), 60), "lambda_bar overflows"
    ),
    "strategy-inf-lam": (
        lambda: BeliefStrategy(1e200, lam=math.inf), "lam must be finite"
    ),
    "strategy-inf-d": (lambda: BeliefStrategy(math.inf), "d must be finite"),
    "ladder-continuous-model": (
        lambda: simulate_ladder(tilt_model(1.0), 2, 5, trials=10, seed=0),
        "three-state discrete model",
    ),
    "upper-tail-fractional-k": (
        lambda: upper_tail(0.5, 2.0, 2), "k must be an integer"
    ),
    "threshold-welfare-fractional-k": (
        lambda: welfare_at_threshold(0.5, PVector(0.7, 0.6), _SPEC),
        "k must be an integer",
    ),
    "censoring-gain-fractional-k": (
        lambda: regular_censoring_gain(PVector(0.7, 0.6), _SPEC, 0.5),
        "k must be an integer",
    ),
    "argmax-nan-weight": (lambda: _argmax(math.nan), "weights must be finite"),
    "argmax-inf-weight": (lambda: _argmax(math.inf), "weights must be finite"),
    "argmax-negative-weight": (lambda: _argmax(-0.5), "nonnegative weights"),
    "prior-exceed-nan-threshold": (
        lambda: prior_exceed_prob(PriorModel(1.0, 0.5), math.nan),
        "threshold t must be positive",
    ),
    "decision-threshold-nan-prior": (
        lambda: decision_threshold(BeliefStrategy(2.0), math.nan, 1.5, 2),
        "rho_tilde must be positive",
    ),
    "evidence-table-nan-beta": (
        lambda: evidence_table(lunar_model(), beta=math.nan), "beta must be finite"
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
        lambda: bayes_params(PVector(0.7, 0.6), 0), "K must be a positive integer"
    ),
    "bayes-params-fractional-K": (
        lambda: bayes_params(PVector(0.7, 0.6), 2.5), "K must be a positive integer"
    ),
    "spec-pi-one-with-rho": (
        lambda: ProblemSpec.noisy_priors(1.0, 0.6, 2, rho=1.0), "pi must lie in"
    ),
    "sweep-pi-one": (lambda: _sweep(pi=1.0), "pi must lie in"),
    "sweep-nan-sigma": (lambda: _sweep(sigma_log=math.nan), "sigma_log must be finite"),
    "sweep-negative-rho": (lambda: _sweep(rho=-1.0), "rho must be positive"),
    "sweep-negative-N": (
        lambda: _sweep("finite_n_ratio", N=-1), "N must be nonnegative"
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
    "sweep-negative-fixed-beta": (
        lambda: _sweep(beta=-0.5, model=tilt_model(1.0)), "beta must be nonnegative"
    ),
    "sweep-nan-fixed-beta": (
        lambda: _sweep(beta=math.nan, model=tilt_model(1.0)), "beta must be finite"
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
    "tilt-overflowing-lam": (lambda: tilt_model(1000.0), "overflows"),
    "asymmetric-tilt-overflowing-spike": (
        lambda: asymmetric_tilt_model(spike=1000.0), "overflows"
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_raises_value_error(case):
    call, pattern = _BAD_INPUTS[case]
    with pytest.raises(ValueError, match=pattern):
        call()


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


def test_sweep_lambda_bar_overflow_is_a_nan_cell():
    rows = sweep("lambda_bar", "p11", [0.999999], "p22", [0.999999], K=40)
    assert math.isnan(rows[0]["value"])
