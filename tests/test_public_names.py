"""The package's public surface: each name declared once, in its module."""

import belieflab
from belieflab import beliefs, chain, oracle, scenarios, signals, welfare

_MODULES = (signals, scenarios, chain, beliefs, welfare, oracle)

# the names the package exported by hand before it re-exported ``__all__``
_HAND_EXPORTED = {
    "AutocorrRow", "BayesParams", "BeliefStrategy", "CensorPoint",
    "CensorSensitivity", "ChainEstimate", "ContinuousSignalModel", "DWitness",
    "DeltaFixed", "DiscreteSignalModel", "Evidence", "EvidenceRow",
    "FullyCensored", "GridArgmax", "LadderEstimate", "PVector", "PriorModel",
    "ProblemSpec", "Stakes", "TransitionKernel", "WelfareEstimate",
    "WelfareReport", "asymmetric_tilt_model", "autocorr_model",
    "baseline_welfare", "batch", "bayes_params", "bayes_welfare", "censor_path",
    "censor_sensitivity", "censored_direction_matrix", "censored_p",
    "censored_transitions", "classify", "coin_model", "conditional_dynamics",
    "decision_threshold", "default_censor_step", "delta_fixed",
    "evidence_table", "expected_welfare", "find_D_witness",
    "finite_n_distribution", "finite_n_welfare", "general_stationary",
    "grid_argmax", "illusory_model", "in_B", "kernel_from_p",
    "ladder_state_labels", "ladder_transition", "load_model", "lunar_model",
    "lunar_strength_rows", "model_from_config", "pool", "posterior",
    "prior_exceed_prob", "regular_censoring_gain", "regularity",
    "simulate_chain", "simulate_ladder", "simulate_welfare", "stationary",
    "sweep", "threshold_mass", "tilt_model", "welfare_at_threshold",
}


def test_all_joins_the_module_lists_in_order_without_duplicates():
    joined = [name for module in _MODULES for name in module.__all__]
    assert belieflab.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_name_is_its_defining_modules_object():
    for module in _MODULES:
        for name in module.__all__:
            assert getattr(belieflab, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from belieflab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(belieflab.__all__)


def test_all_keeps_the_hand_exports_and_adds_the_tables():
    assert len(_HAND_EXPORTED) == 68
    assert set(belieflab.__all__) >= _HAND_EXPORTED | {
        "MODELS", "SCENARIOS", "SWEEP_METRICS"
    }
