"""The two argument rules: one integer rule and one probability-law rule.

Every integer argument of the public API goes through ``signals._check_int``
and every probability array through ``signals._check_law``. The property
tests below run each integer argument through bad values (which must raise
ValueError) and through numpy integers (which must give the output of the
same Python int). The last test keeps either rule from being written out
again outside ``signals.py``.
"""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieflab import (
    BeliefStrategy,
    DiscreteSignalModel,
    PriorModel,
    PVector,
    autocorr_model,
    batch,
    bayes_params,
    censor_sensitivity,
    coin_model,
    decision_threshold,
    finite_n_distribution,
    find_D_witness,
    kernel_from_p,
    ladder_state_labels,
    ladder_transition,
    lunar_model,
    lunar_strength_rows,
    model_from_config,
    regular_censoring_gain,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    stationary,
    sweep,
    threshold_mass,
    welfare_at_threshold,
)
from belieflab.welfare import ProblemSpec

_Q = kernel_from_p(0.7, 0.6)
_P = PVector(0.7, 0.6)
_SPEC = ProblemSpec.correct_priors(0.5, 0.6, 2)
_P3 = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
_LADDER_MODEL = autocorr_model(draws=4)[0]
_PAIR = DiscreteSignalModel(outcomes=("a", "b"), probs=np.array([[0.6, 0.4], [0.3, 0.7]]))


def _grid(metric, **kwargs):
    return sweep(metric, "p11", [0.7], "p22", [0.6], **kwargs)


def _doc(theta_count):
    return {"theta_count": theta_count, "outcomes": ["a", "b"],
            "probs": {"1": [0.6, 0.4], "2": [0.3, 0.7]}}


# argument -> (call taking the argument, its lower bound, largest value tried)
_INTEGER_ARGUMENTS = {
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


def _bad_values(low):
    """Values the integer rule refuses for an argument bounded below by low."""
    return st.one_of(
        st.booleans(),
        st.sampled_from([np.True_, math.nan, math.inf, -math.inf]),
        st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda x: not x.is_integer()
        ),
        st.integers(max_value=low - 1),
        st.integers(min_value=-(2**62), max_value=low - 1).map(np.int64),
    )


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
    value = data.draw(_bad_values(low), label="value")
    name = argument.split("-")[1]
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
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


def test_each_argument_rule_has_one_home():
    source = Path(__file__).resolve().parents[1] / "src" / "belieflab"
    strays = [
        f"{path.name}:{number}"
        for path in sorted(source.glob("*.py"))
        if path.name != "signals.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"np\.\w*integer|1e-15", line)
    ]
    assert strays == []
