"""Boundary contract: bad input raises ValueError instead of passing through."""

import math

import numpy as np
import pytest

from belieflab import (
    BeliefStrategy,
    DiscreteSignalModel,
    PriorModel,
    TransitionKernel,
    censored_direction_matrix,
    censored_transitions,
    kernel_from_p,
    lunar_model,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    tilt_model,
)
from belieflab.scenarios import autocorr_model
from belieflab.welfare import ProblemSpec


def _ladder(K=2, N=5, beta=0.0):
    model = autocorr_model(draws=6)[0]
    return simulate_ladder(model, K, N, trials=10, seed=0, beta=beta)


def _welfare(model, N=5, beta=0.0):
    spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
    return simulate_welfare(
        model, spec, BeliefStrategy(2.0), beta, N=N, trials=10, seed=0
    )


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
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_raises_value_error(case):
    call, pattern = _BAD_INPUTS[case]
    with pytest.raises(ValueError, match=pattern):
        call()
