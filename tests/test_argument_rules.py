"""The argument rules: an integer rule, a real-number rule, a probability-law
rule, a kind rule and a posterior-rule rule.

Every integer argument of the public API (a state theta among them) goes
through ``signals._check_int``, every scalar real argument through
``signals._check_real``, every probability array through ``signals._check_law``,
every model argument through ``signals._check_kind`` and every posterior rule
through ``beliefs._check_rule``. The property tests below run each integer and
each real argument through bad values (which must raise ValueError) and
through numpy scalars (which must give the output of the same Python number).
Each object argument is given a tuple, a str and None, and the arguments that
still escape the rules are a list that can only shrink. The last test keeps
any rule from being written out again outside its home.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import belieflab
from belieflab import (
    BayesParams,
    BeliefStrategy,
    ContinuousSignalModel,
    DiscreteSignalModel,
    Evidence,
    PriorModel,
    PVector,
    Stakes,
    TransitionKernel,
    asymmetric_tilt_model,
    autocorr_model,
    baseline_welfare,
    batch,
    bayes_params,
    bayes_welfare,
    censor_path,
    censor_sensitivity,
    censored_direction_matrix,
    censored_p,
    censored_transitions,
    classify,
    coin_model,
    conditional_dynamics,
    decision_threshold,
    default_censor_step,
    delta_fixed,
    evidence_table,
    expected_welfare,
    finite_n_distribution,
    finite_n_welfare,
    find_D_witness,
    grid_argmax,
    illusory_model,
    in_B,
    kernel_from_p,
    ladder_state_labels,
    ladder_transition,
    lunar_model,
    lunar_strength_rows,
    model_from_config,
    pool,
    posterior,
    prior_exceed_prob,
    regular_censoring_gain,
    regularity,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    stationary,
    sweep,
    threshold_mass,
    tilt_model,
    welfare_at_threshold,
)
from belieflab.signals import _check_real
from belieflab.welfare import ProblemSpec

_Q = kernel_from_p(0.7, 0.6)
_P = PVector(0.7, 0.6)
_SPEC = ProblemSpec.correct_priors(0.5, 0.6, 2)
_P3 = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
_LADDER_MODEL = autocorr_model(draws=4)[0]
_PAIR = DiscreteSignalModel(outcomes=("a", "b"), probs=np.array([[0.6, 0.4], [0.3, 0.7]]))
_TILT = tilt_model(1.0)


def _grid(metric, **kwargs):
    return sweep(metric, "p11", [0.7], "p22", [0.6], **kwargs)


def _doc(theta_count):
    return {"theta_count": theta_count, "outcomes": ["a", "b"],
            "probs": {"1": [0.6, 0.4], "2": [0.3, 0.7]}}


# argument -> (call taking the argument, its lower bound, largest value tried)
_INTEGER_ARGUMENTS = {
    "column-theta": (_P.column, 1, 2),
    "prob-theta": (lambda v: _PAIR.prob("a", v), 1, 2),
    "finite_n_distribution-theta": (lambda v: finite_n_distribution(_Q, v, 2, 3), 1, 2),
    "ladder_transition-theta": (lambda v: ladder_transition(_P3, 2, v), 1, 3),
    "simulate_chain-theta": (lambda v: simulate_chain(_Q, v, 2, 5, 20, 0), 1, 2),
    "stationary-K": (lambda v: stationary(2.0, v), 1, 4),
    "finite_n_distribution-K": (lambda v: finite_n_distribution(_Q, 1, v, 3), 1, 4),
    "finite_n_distribution-N": (lambda v: finite_n_distribution(_Q, 1, 2, v), 0, 6),
    "ladder_state_labels-K": (ladder_state_labels, 1, 4),
    "ladder_transition-K": (lambda v: ladder_transition(_P3, v, 1), 1, 4),
    "decision_threshold-K": (
        lambda v: decision_threshold(BeliefStrategy(2.0), 1.0, 1.5, v), 1, 4
    ),
    "threshold_mass-K": (
        lambda v: threshold_mass(PriorModel(1.0, 0.5), BeliefStrategy(2.0), 1.5, v),
        1, 4,
    ),
    "bayes_params-K": (lambda v: bayes_params(_P, v), 1, 4),
    "censor_sensitivity-K": (lambda v: censor_sensitivity(_P, v), 1, 4),
    "ProblemSpec-K": (lambda v: ProblemSpec.noisy_priors(0.5, 0.6, v), 1, 4),
    "welfare_at_threshold-k": (lambda v: welfare_at_threshold(v, _P, _SPEC), -2, 3),
    "regular_censoring_gain-k": (lambda v: regular_censoring_gain(_P, _SPEC, v), -1, 2),
    "find_D_witness-K": (find_D_witness, 2, 2),
    "sweep-K": (lambda v: _grid("delta_bayes", K=v), 1, 4),
    "sweep-N": (lambda v: _grid("finite_n_ratio", N=v), 0, 6),
    "simulate_chain-K": (lambda v: simulate_chain(_Q, 1, v, 5, 20, 0), 1, 4),
    "simulate_chain-N": (lambda v: simulate_chain(_Q, 1, 2, v, 20, 0), 0, 6),
    "simulate_chain-trials": (lambda v: simulate_chain(_Q, 1, 2, 5, v, 0), 1, 6),
    "simulate_chain-seed": (lambda v: simulate_chain(_Q, 1, 2, 5, 20, v), 0, 6),
    "simulate_welfare-N": (
        lambda v: simulate_welfare(_PAIR, _SPEC, BeliefStrategy(2.0), 0.0, v, 20, 0),
        0, 6,
    ),
    "simulate_welfare-trials": (
        lambda v: simulate_welfare(_PAIR, _SPEC, BeliefStrategy(2.0), 0.0, 5, v, 0),
        2, 6,
    ),
    "simulate_welfare-seed": (
        lambda v: simulate_welfare(_PAIR, _SPEC, BeliefStrategy(2.0), 0.0, 5, 20, v),
        0, 6,
    ),
    "simulate_ladder-K": (lambda v: simulate_ladder(_LADDER_MODEL, v, 5, 20, 0), 1, 4),
    "simulate_ladder-N": (lambda v: simulate_ladder(_LADDER_MODEL, 2, v, 20, 0), 0, 6),
    "simulate_ladder-trials": (
        lambda v: simulate_ladder(_LADDER_MODEL, 2, 5, v, 0), 1, 6
    ),
    "simulate_ladder-seed": (lambda v: simulate_ladder(_LADDER_MODEL, 2, 5, 20, v), 0, 6),
    "batch-J": (lambda v: batch(_PAIR, v), 1, 4),
    "coin_model-J": (lambda v: coin_model(0.3, 0.6, v), 1, 6),
    "autocorr_model-draws": (lambda v: autocorr_model(draws=v), 2, 8),
    "lunar_model-capacity": (lambda v: lunar_model(capacity=v), 1, 20),
    "lunar_model-cutoff": (lambda v: lunar_model(capacity=12, cutoff=v), 13, 45),
    "lunar_model-tension_ceiling": (lambda v: lunar_model(tension_ceiling=v), 1, 30),
    "lunar_strength_rows-max_tension": (lambda v: lunar_strength_rows(max_tension=v), 0, 8),
    "DiscreteSignalModel-theta_count": (
        lambda v: DiscreteSignalModel(_PAIR.outcomes, _PAIR.probs, theta_count=v), 2, 2
    ),
    "model_from_config-theta_count": (lambda v: model_from_config(_doc(v)), 2, 2),
}

# argument -> its upper end, for the integer arguments bounded above
_UPPER_ENDS = {
    "column-theta": 2,
    "prob-theta": 2,
    "finite_n_distribution-theta": 2,
    "ladder_transition-theta": 3,
    "simulate_chain-theta": 2,
    "welfare_at_threshold-k": 3,
    "regular_censoring_gain-k": 2,
}


_INF = math.inf

# argument -> (call taking the argument, its interval (low, high, ends), the
# valid values tried); the name in the message is the part after the "-"
_REAL_ARGUMENTS = {
    "TransitionKernel-up": (
        lambda v: TransitionKernel((v, 0.3), (0.75, 0.7), (0.0, 0.0)),
        (-1e-15, 1 + 1e-15, "[]"), (0.25, 0.25),
    ),
    "TransitionKernel-down": (
        lambda v: TransitionKernel((0.75, 0.3), (v, 0.7), (0.0, 0.0)),
        (-1e-15, 1 + 1e-15, "[]"), (0.25, 0.25),
    ),
    "TransitionKernel-stay": (
        lambda v: TransitionKernel((0.75, 0.3), (0.0, 0.7), (v, 0.0)),
        (-1e-15, 1 + 1e-15, "[]"), (0.25, 0.25),
    ),
    "PVector-p11": (lambda v: PVector(v, 0.6), (0, 1, "[]"), (0, 1)),
    "PVector-p22": (lambda v: PVector(0.7, v), (0, 1, "[]"), (0, 1)),
    "kernel_from_p-p11": (lambda v: kernel_from_p(v, 0.6), (0, 1, "[]"), (0, 1)),
    "kernel_from_p-p22": (lambda v: kernel_from_p(0.7, v), (0, 1, "[]"), (0, 1)),
    "ContinuousSignalModel-tilt": (
        lambda v: ContinuousSignalModel((((v, 1.0),), ((-1.0, 1.0),))),
        (-_INF, _INF, "()"), (0.5, 20),
    ),
    "ContinuousSignalModel-weight": (
        lambda v: ContinuousSignalModel((((1.0, v),), ((-1.0, 1.0),))),
        (-_INF, _INF, "()"), (1, 1),
    ),
    "tilt_model-lam": (tilt_model, (0, _INF, "()"), (0.01, 20)),
    "asymmetric_tilt_model-lam": (
        lambda v: asymmetric_tilt_model(lam=v), (0, _INF, "()"), (0.01, 10)
    ),
    "asymmetric_tilt_model-spike": (
        lambda v: asymmetric_tilt_model(spike=v), (0.1, _INF, "()"), (0.2, 30)
    ),
    "asymmetric_tilt_model-weight": (
        lambda v: asymmetric_tilt_model(weight=v), (0, 1, "()"), (0.01, 0.99)
    ),
    "classify-x": (lambda v: classify(_TILT, v), (0, 1, "[]"), (0, 1)),
    "censored_transitions-beta": (
        lambda v: censored_transitions(_TILT, v), (0, _INF, "[)"), (0, 2)
    ),
    "censored_direction_matrix-beta": (
        lambda v: censored_direction_matrix(_PAIR, v), (0, _INF, "[)"), (0, 0.5)
    ),
    "directions-beta": (_PAIR.directions, (0, _INF, "[)"), (0, 3)),
    "censor_path-beta": (lambda v: censor_path(_PAIR, [v]), (0, _INF, "[)"), (0, 3)),
    "evidence_table-beta": (lambda v: evidence_table(_PAIR, v), (0, _INF, "[)"), (0, 3)),
    "PriorModel-rho": (PriorModel, (0, _INF, "()"), (0.01, 100)),
    "PriorModel-sigma_log": (lambda v: PriorModel(1.0, v), (0, _INF, "[)"), (0, 3)),
    "BeliefStrategy-d": (BeliefStrategy, (1, _INF, "[)"), (1, 50)),
    "BeliefStrategy-lam": (lambda v: BeliefStrategy(2.0, v), (0, _INF, "()"), (0.01, 100)),
    "Stakes-gamma": (Stakes, (0, 1, "[]"), (0, 1)),
    "ProblemSpec-pi": (
        lambda v: ProblemSpec(v, 0.6, PriorModel(1.0), 2), (0, 1, "()"), (0.01, 0.99)
    ),
    "ProblemSpec-gamma": (lambda v: ProblemSpec(0.5, v, PriorModel(1.0), 2), (0, 1, "[]"), (0, 1)),
    "posterior-rho_tilde": (
        lambda v: posterior(BeliefStrategy(2.0), v, 1), (0, _INF, "()"), (0.01, 100)
    ),
    "decision_threshold-rho_tilde": (
        lambda v: decision_threshold(BeliefStrategy(2.0), v, 1.5, 2), (0, _INF, "()"), (0.01, 100)
    ),
    "decision_threshold-Gamma": (
        lambda v: decision_threshold(BeliefStrategy(2.0), 1.0, v, 2), (0, _INF, "[]"), (0, 100)
    ),
    "threshold_mass-Gamma": (
        lambda v: threshold_mass(PriorModel(1.0, 0.5), BeliefStrategy(2.0), v, 2),
        (0, _INF, "[]"), (0, 100),
    ),
    "stationary-r": (lambda v: stationary(v, 2), (0, _INF, "[]"), (0, 50)),
    "prior_exceed_prob-t": (
        lambda v: prior_exceed_prob(PriorModel(1.0, 0.5), v), (0, _INF, "[]"), (0, 100)
    ),
    "processed-beta": (Evidence(1, 2.0).processed, (0, _INF, "[)"), (0, 3)),
    "censored_p-x": (lambda v: censored_p(_P, v), (-0.5, 0.5, "()"), (-0.1, 0.1)),
    "regular_censoring_gain-x": (
        lambda v: regular_censoring_gain(_P, _SPEC, 1, v), (0, 0.5, "()"), (0.001, 0.1)
    ),
    "delta_fixed-d": (lambda v: delta_fixed(_P, _SPEC, v), (1, _INF, "()"), (1.01, 50)),
    "grid_argmax-weight": (
        lambda v: grid_argmax([(_PAIR, _SPEC, v)], [0.0], [2.0]), (0, _INF, "[)"), (0.1, 10)
    ),
    "grid_argmax-beta": (
        lambda v: grid_argmax([(_PAIR, _SPEC, 1.0)], [v], [2.0]), (0, _INF, "[)"), (0, 3)
    ),
    "grid_argmax-d": (
        lambda v: grid_argmax([(_PAIR, _SPEC, 1.0)], [0.0], [v]), (1, _INF, "[)"), (1, 50)
    ),
    "sweep-d": (lambda v: _grid("delta_fixed", d=v), (1, _INF, "()"), (1.01, 50)),
    "sweep-d-ignored": (lambda v: _grid("delta_bayes", d=v), (-_INF, _INF, "[]"), (0.5, 50)),
    "sweep-d-axis": (
        lambda v: sweep("delta_fixed", "d", [v], "p22", [0.6], p11=0.7),
        (-_INF, _INF, "[]"), (0.5, 50),
    ),
    "sweep-p11-axis": (
        lambda v: sweep("delta_bayes", "p11", [v], "p22", [0.6]), (-_INF, _INF, "[]"), (-1, 2)
    ),
    "sweep-p22-axis": (
        lambda v: sweep("delta_bayes", "p11", [0.7], "p22", [v]), (-_INF, _INF, "[]"), (-1, 2)
    ),
    "sweep-p11-fixed": (
        lambda v: sweep("delta_bayes", "p22", [0.6], "gamma", [0.6], p11=v),
        (-_INF, _INF, "[]"), (-1, 2),
    ),
    "sweep-p22-fixed": (
        lambda v: sweep("delta_bayes", "p11", [0.7], "gamma", [0.6], p22=v),
        (-_INF, _INF, "[]"), (-1, 2),
    ),
    "sweep-beta": (
        lambda v: sweep("delta_fixed", "gamma", [0.6], "d", [2.0], beta=v, model=_PAIR),
        (0, _INF, "[)"), (0, 0.5),
    ),
    "sweep-pi": (lambda v: _grid("delta_bayes", pi=v), (0, 1, "()"), (0.01, 0.99)),
    "sweep-gamma": (lambda v: _grid("delta_bayes", gamma=v), (0, 1, "[]"), (0, 1)),
    "sweep-sigma_log": (lambda v: _grid("delta_bayes", sigma_log=v), (0, _INF, "[)"), (0, 3)),
    "sweep-rho": (lambda v: _grid("delta_bayes", rho=v), (0, _INF, "()"), (0.01, 100)),
    "lunar_model-base_rate": (lambda v: lunar_model(base_rate=v), (0, _INF, "()"), (2, 20)),
    "lunar_model-effect": (lambda v: lunar_model(effect=v), (1, _INF, "()"), (1.01, 3)),
    "lunar_model-full_moon_frac": (
        lambda v: lunar_model(full_moon_frac=v), (0, 1, "()"), (0.01, 0.99)
    ),
    "illusory_model-alpha": (lambda v: illusory_model(v, 0.1, 0.05), (1, _INF, "()"), (1.01, 50)),
    "illusory_model-r": (lambda v: illusory_model(2.0, v, 0.05), (0, 1, "()"), (0.01, 0.99)),
    "illusory_model-q": (lambda v: illusory_model(2.0, 0.1, v), (0, 1, "()"), (0.01, 0.4)),
    "coin_model-alpha1": (lambda v: coin_model(v, 0.6), (0, 1, "()"), (0.01, 0.99)),
    "coin_model-alpha2": (lambda v: coin_model(0.3, v), (0, 1, "()"), (0.01, 0.99)),
    "autocorr_model-rho_set": (
        lambda v: autocorr_model(rho_set=(v, 1.0 / 3.0, 0.5)), (0, 1, "()"), (0.01, 0.99)
    ),
    "simulate_welfare-beta": (
        lambda v: simulate_welfare(_PAIR, _SPEC, BeliefStrategy(2.0), v, 5, 20, 0),
        (0, _INF, "[)"), (0, 0.5),
    ),
    "simulate_ladder-beta": (
        lambda v: simulate_ladder(_LADDER_MODEL, 2, 5, 20, 0, beta=v), (0, _INF, "[)"), (0, 0.3)
    ),
}

# call -> (the argument its message names, the call); each raised TypeError,
# or passed, before the real-number rule
_FORMER_ESCAPES = {
    "tilt_model-tuple": ("lam", lambda: tilt_model((1.0,))),
    "asymmetric_tilt_model-tuple-spike": (
        "spike", lambda: asymmetric_tilt_model(spike=(14.0,))
    ),
    "censored_transitions-tuple": ("beta", lambda: censored_transitions(_TILT, (0.5,))),
    "censor_path-tuple-beta": ("beta", lambda: censor_path(_TILT, [(0.5,)])),
    "classify-tuple": ("x", lambda: classify(_TILT, (0.5,))),
    "coin_model-list": ("alpha1", lambda: coin_model([0.7], 0.8)),
    "illusory_model-str": ("alpha", lambda: illusory_model("2", 0.1, 0.05)),
    "lunar_model-str-base_rate": ("base_rate", lambda: lunar_model(base_rate="10")),
    "lunar_model-none-effect": ("effect", lambda: lunar_model(effect=None)),
    "autocorr_model-str-rhos": ("rho_set", lambda: autocorr_model(rho_set=("a", "b", "c"))),
    "stationary-list": ("r", lambda: stationary([1.0], 2)),
    "stationary-str": ("r", lambda: stationary("x", 2)),
    "decision_threshold-str": (
        "rho_tilde", lambda: decision_threshold(BeliefStrategy(2.0), "a", 1.0, 2)
    ),
    "posterior-str": ("rho_tilde", lambda: posterior(BeliefStrategy(2.0), "x", 1)),
    "censored_p-list": ("x", lambda: censored_p(_P, [0.1])),
    "censored_p-str": ("x", lambda: censored_p(_P, "x")),
    "regular_censoring_gain-str": ("x", lambda: regular_censoring_gain(_P, _SPEC, 1, "x")),
    "regular_censoring_gain-list": (
        "x", lambda: regular_censoring_gain(_P, _SPEC, 1, [0.01])
    ),
    "sweep-str-d": ("d", lambda: _grid("delta_fixed", d="x")),
    "PVector-bool": ("p11", lambda: PVector(True, 0.5)),
    "BeliefStrategy-bool": ("d", lambda: BeliefStrategy(True)),
    "sweep-tuple-p11-axis": ("p11", lambda: sweep("delta_bayes", "p11", [(0.7,)], "p22", [0.6])),
    "sweep-list-p11-fixed": (
        "p11", lambda: sweep("delta_bayes", "p22", [0.6], "gamma", [0.6], p11=[0.7])
    ),
    "sweep-str-p11-fixed": (
        "p11", lambda: sweep("delta_bayes", "p22", [0.6], "gamma", [0.6], p11="x")
    ),
    "prior_exceed_prob-list": ("t", lambda: prior_exceed_prob(PriorModel(1.0, 0.5), [1.0])),
    "prior_exceed_prob-str": ("t", lambda: prior_exceed_prob(PriorModel(1.0, 0.5), "x")),
    "processed-str": ("beta", lambda: Evidence(1, 2.0).processed("x")),
    "processed-nan": ("beta", lambda: Evidence(1, 2.0).processed(math.nan)),
    "processed-negative": ("beta", lambda: Evidence(1, 2.0).processed(-1.0)),
}


# arguments where None selects a default (or, for a fixed p, no p: NaN cells)
_OPTIONAL = {
    "regular_censoring_gain-x", "sweep-beta", "sweep-rho", "sweep-p11-fixed", "sweep-p22-fixed",
}


def _inside(x, low, high, ends):
    return (low < x or x == low and ends[0] == "[") and (x < high or x == high and ends[1] == "]")


def _bad_reals(low, high, ends, valid):
    """Values the real-number rule refuses for the interval (low, high, ends):
    no single number, a bool, NaN, or a number outside."""
    outside = [st.sampled_from([math.nan, np.float64(math.nan), -_INF, _INF])]
    if low > -_INF:
        outside.append(st.floats(max_value=low))
    if high < _INF:
        outside.append(st.floats(min_value=high))
    return st.one_of(
        st.booleans(),
        st.sampled_from(
            [None, np.True_, (valid,), [valid], str(valid), np.array([valid]), np.array(valid)]
        ),
        st.one_of(outside).filter(lambda x: not _inside(x, low, high, ends)),
    )


@pytest.mark.parametrize("argument", sorted(_REAL_ARGUMENTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bad_real_raises_value_error(argument, data):
    call, (low, high, ends), (valid, _) = _REAL_ARGUMENTS[argument]
    bad = _bad_reals(low, high, ends, float(valid))
    if argument in _OPTIONAL:
        bad = bad.filter(lambda v: v is not None)
    value = data.draw(bad, label="value")
    name = argument.split("-")[1]
    interval = re.escape(f"{ends[0]}{low!r}, {high!r}{ends[1]}")
    with pytest.raises(ValueError, match=f"^{name} must be a real number in {interval}, got "):
        call(value)


@pytest.mark.parametrize("argument", sorted(_REAL_ARGUMENTS))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_a_numpy_float_gives_the_python_float_output(argument, data):
    call, (low, high, ends), (first, last) = _REAL_ARGUMENTS[argument]
    value = data.draw(
        st.floats(first, last).filter(lambda x: _inside(x, low, high, ends)), label="value"
    )
    np.testing.assert_equal(_plain(call(np.float64(value))), _plain(call(value)))


@pytest.mark.parametrize("case", sorted(_FORMER_ESCAPES))
def test_a_former_escape_raises_value_error_naming_its_argument(case):
    name, call = _FORMER_ESCAPES[case]
    with pytest.raises(ValueError, match=f"^{name} must be a real number in "):
        call()


_RULE = BeliefStrategy(2.0)

# (function, argument) -> the call taking the argument, on otherwise good
# arguments: each object argument of the public API (a dynamics, a problem,
# a prior, a posterior rule, a model), a grid_argmax problem and posterior's s
_OBJECT_ARGUMENTS = {
    ("bayes_params", "p"): lambda v: bayes_params(v, 2),
    ("bayes_welfare", "p"): lambda v: bayes_welfare(v, _SPEC),
    ("censor_sensitivity", "p"): lambda v: censor_sensitivity(v, 2),
    ("censored_p", "p"): lambda v: censored_p(v, 0.1),
    ("default_censor_step", "p"): lambda v: default_censor_step(v),
    ("delta_fixed", "p"): lambda v: delta_fixed(v, _SPEC, 2.0),
    ("expected_welfare", "p"): lambda v: expected_welfare(v, _SPEC, _RULE),
    ("finite_n_welfare", "p"): lambda v: finite_n_welfare(v, _SPEC, _RULE, 5),
    ("in_B", "p"): lambda v: in_B(v, _SPEC),
    ("regular_censoring_gain", "p"): lambda v: regular_censoring_gain(v, _SPEC, 1),
    ("regularity", "p"): regularity,
    ("welfare_at_threshold", "p"): lambda v: welfare_at_threshold(1, v, _SPEC),
    ("conditional_dynamics", "q"): conditional_dynamics,
    ("finite_n_distribution", "q"): lambda v: finite_n_distribution(v, 1, 2, 5),
    ("simulate_chain", "q"): lambda v: simulate_chain(v, 1, 2, 5, 20, 0),
    ("baseline_welfare", "spec"): baseline_welfare,
    ("bayes_welfare", "spec"): lambda v: bayes_welfare(_P, v),
    ("delta_fixed", "spec"): lambda v: delta_fixed(_P, v, 2.0),
    ("expected_welfare", "spec"): lambda v: expected_welfare(_P, v, _RULE),
    ("finite_n_welfare", "spec"): lambda v: finite_n_welfare(_P, v, _RULE, 5),
    ("in_B", "spec"): lambda v: in_B(_P, v),
    ("regular_censoring_gain", "spec"): lambda v: regular_censoring_gain(_P, v, 1),
    ("simulate_welfare", "spec"): lambda v: simulate_welfare(_PAIR, v, _RULE, 0.0, 5, 20, 0),
    ("welfare_at_threshold", "spec"): lambda v: welfare_at_threshold(1, _P, v),
    ("ProblemSpec", "prior"): lambda v: ProblemSpec(0.5, 0.6, v, 2),
    ("prior_exceed_prob", "prior"): lambda v: prior_exceed_prob(v, 1.0),
    ("threshold_mass", "prior"): lambda v: threshold_mass(v, _RULE, 1.5, 2),
    ("decision_threshold", "strategy"): lambda v: decision_threshold(v, 1.0, 1.5, 2),
    ("expected_welfare", "strategy"): lambda v: expected_welfare(_P, _SPEC, v),
    ("finite_n_welfare", "strategy"): lambda v: finite_n_welfare(_P, _SPEC, v, 5),
    ("posterior", "strategy"): lambda v: posterior(v, 1.0, 1),
    ("simulate_welfare", "strategy"): lambda v: simulate_welfare(_PAIR, _SPEC, v, 0.0, 5, 20, 0),
    ("threshold_mass", "strategy"): lambda v: threshold_mass(PriorModel(1.0, 0.5), v, 1.5, 2),
    ("batch", "model"): lambda v: batch(v, 2),
    ("censor_path", "model"): lambda v: censor_path(v, [0.1]),
    ("censored_direction_matrix", "model"): lambda v: censored_direction_matrix(v, 0.1),
    ("censored_transitions", "model"): lambda v: censored_transitions(v, 0.1),
    ("classify", "model"): lambda v: classify(v, 0.5),
    ("evidence_table", "model"): evidence_table,
    ("lunar_strength_rows", "model"): lunar_strength_rows,
    ("pool", "model"): lambda v: pool(v, [["a"], ["b"]]),
    ("simulate_ladder", "model"): lambda v: simulate_ladder(v, 2, 5, 20, 0),
    ("simulate_welfare", "model"): lambda v: simulate_welfare(v, _SPEC, _RULE, 0.0, 5, 20, 0),
    ("sweep", "model"): lambda v: sweep("delta_fixed", "beta", [0.1], "gamma", [0.6], model=v),
    ("grid_argmax", "problems"): lambda v: grid_argmax([v], [0.1], [2.0]),
    ("posterior", "s"): lambda v: posterior(_RULE, 1.0, v),
}

# arguments where None selects a default
_NONE_DEFAULTS = {("lunar_strength_rows", "model"), ("sweep", "model")}

# the pairs where a tuple, a str or None still raises something other than a
# ValueError naming the argument. The list only shrinks: a pair that stops
# escaping fails the test below until it is removed here.
_KNOWN_ESCAPES = {
    # a problem is a (model, spec, weight) triple to unpack, not one class to check
    ("grid_argmax", "problems"),
    # s is the exponent of d**s, which takes any real, so no count rule fits it
    ("posterior", "s"),
}


def _refuses(call, name, value) -> bool:
    """True when call(value) raises a ValueError whose message names the argument."""
    try:
        call(value)
    except ValueError as exc:
        return str(exc).startswith(f"{name} must be ")
    except Exception:  # an escape
        pass
    return False


def test_the_object_argument_escapes_are_the_known_ones():
    escapes = set()
    for (function, name), call in _OBJECT_ARGUMENTS.items():
        values = [(0.7,), "x"] if (function, name) in _NONE_DEFAULTS else [(0.7,), "x", None]
        if not all(_refuses(call, name, value) for value in values):
            escapes.add((function, name))
    assert escapes == _KNOWN_ESCAPES


def _bad_values(low, high):
    """Values the integer rule refuses for an argument in [low, high]."""
    bad = [
        st.booleans(),
        st.sampled_from([np.True_, math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda x: not x.is_integer()
        ),
        st.integers(max_value=low - 1),
        st.integers(min_value=-(2**62), max_value=low - 1).map(np.int64),
    ]
    if high < math.inf:
        bad += [
            st.integers(min_value=high + 1),
            st.integers(min_value=high + 1, max_value=2**62).map(np.int64),
        ]
    return st.one_of(bad)


def _plain(out):
    """``out`` with dataclasses unpacked, for np.testing.assert_equal."""
    if isinstance(out, DiscreteSignalModel):  # its batch_builder is a fresh closure
        return [out.outcomes, out.probs, out.theta_count]
    if dataclasses.is_dataclass(out):
        return {f.name: _plain(getattr(out, f.name)) for f in dataclasses.fields(out)}
    if isinstance(out, (list, tuple)):
        return [_plain(item) for item in out]
    if isinstance(out, dict):
        return {key: _plain(value) for key, value in out.items()}
    return out


@pytest.mark.parametrize("argument", sorted(_INTEGER_ARGUMENTS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_a_non_integer_or_low_value_raises_value_error(argument, data):
    call, low, _ = _INTEGER_ARGUMENTS[argument]
    high = _UPPER_ENDS.get(argument, math.inf)
    value = data.draw(_bad_values(low, high), label="value")
    name = argument.split("-")[1]
    interval = f">= {low}" if high == math.inf else re.escape(f"in [{low}, {high}]")
    with pytest.raises(ValueError, match=f"^{name} must be an integer {interval}, got "):
        call(value)


@pytest.mark.parametrize("argument", sorted(_INTEGER_ARGUMENTS))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_a_numpy_integer_gives_the_python_int_output(argument, data):
    call, low, high = _INTEGER_ARGUMENTS[argument]
    value = data.draw(st.integers(low, high), label="value")
    dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint16]), label="dtype")
    if value < 0:
        dtype = np.int64
    np.testing.assert_equal(_plain(call(dtype(value))), _plain(call(value)))


def test_an_int_past_the_float_range_reads_as_an_infinity():
    assert _check_real(10**400, "t", 0, _INF, "[]") == _INF
    assert _check_real(-(10**400), "x", -_INF, 0, "[]") == -_INF
    prior = PriorModel(1.0, 0.5)
    assert prior_exceed_prob(prior, 10**400) == prior_exceed_prob(prior, _INF) == 0.0
    with pytest.raises(ValueError, match=r"^rho must be a real number in \(0, inf\), got 1000"):
        PriorModel(10**400)


# each public function that takes a posterior rule, called with the rule
_RULE_CALLS = {
    "expected_welfare": lambda rule: expected_welfare(_P, _SPEC, rule),
    "finite_n_welfare": lambda rule: finite_n_welfare(_P, _SPEC, rule, 5),
    "threshold_mass": lambda rule: threshold_mass(PriorModel(1.0, 0.5), rule, 1.5, 2),
    "decision_threshold": lambda rule: decision_threshold(rule, 1.0, 1.5, 2),
    "posterior": lambda rule: posterior(rule, 1.0, 1),
    "simulate_welfare": lambda rule: simulate_welfare(_PAIR, _SPEC, rule, 0.0, 5, 20, 0),
}

# a value that is no posterior rule -> the message every call above raises
_BAD_RULES = {
    "degenerate": (
        BayesParams(math.nan, math.nan, True),
        "degenerate parameters have no posterior rule to evaluate",
    ),
    "zero-lam": (BayesParams(2.0, 0.0), r"lam must be a real number in \(0, inf\), got 0\.0"),
    "inf-lam": (BayesParams(2.0, _INF), r"lam must be a real number in \(0, inf\), got inf"),
    "nan-d": (BayesParams(math.nan, 1.0), r"d must be a real number in \(0, inf\), got nan"),
    "none": (None, "strategy must be a BeliefStrategy or a BayesParams, got NoneType"),
    "tuple": ((2.0, 1.0), "strategy must be a BeliefStrategy or a BayesParams, got tuple"),
}


@pytest.mark.parametrize("rule", sorted(_BAD_RULES))
@pytest.mark.parametrize("call", sorted(_RULE_CALLS))
def test_a_bad_posterior_rule_raises_the_same_value_error(call, rule):
    value, message = _BAD_RULES[rule]
    with pytest.raises(ValueError, match=f"^{message}$"):
        _RULE_CALLS[call](value)


# a string holding the message of a hand-written scalar range refusal, which
# _check_real replaces
_SCALAR_REFUSALS = (
    r"""["'][^"']*(must be (finite|nonnegative|a number|>= )|must lie in|outside \[0, 1\])"""
)


# the messages of the hand-written state, threshold and model refusals, which
# _check_int and _check_kind replace
_OLD_REFUSALS = (
    r"theta must be 1|outside -K|outside \(-K|needs a ContinuousSignalModel"
    r"|needs a DiscreteSignalModel|two-state model|three-state"
)


# the late act-step refusals of a rule's lam and thresholds, a duck test for a
# degenerate rule and any hasattr duck test for a kind, which _check_rule and
# _check_kind replace in every module
_RULE_REFUSALS = (
    r"threshold t must be positive|lam must be positive and finite"
    r"""|getattr\([^)]*["']degenerate|hasattr\("""
)


def test_each_argument_rule_has_one_home():
    modules = sorted(Path(belieflab.__file__).parent.glob("*.py"))
    assert len(modules) == 8  # a glob that finds no source checks nothing
    strays = [
        f"{path.name}:{number}"
        for path in modules
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(_RULE_REFUSALS, line)
        or path.name != "signals.py"
        and (
            re.search(r"np\.\w*integer|1e-15", line)
            or re.search(_SCALAR_REFUSALS, line)
            or re.search(_OLD_REFUSALS, line)
        )
    ]
    assert strays == []
