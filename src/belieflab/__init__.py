"""Numerical laboratory for censored coarse-evidence belief dynamics.

Signals are classified into direction and strength, weak evidence is
censored, the survivors drive a bounded mental-state chain, and simple
posterior rules map chain states to decisions. The package computes the
induced welfare landscape in closed form and checks every piece against a
seeded Monte Carlo oracle.
"""

from .beliefs import (
    BayesParams,
    BeliefStrategy,
    PriorModel,
    Stakes,
    bayes_params,
    decision_threshold,
    posterior,
    prior_exceed_prob,
    threshold_mass,
)
from .chain import (
    finite_n_distribution,
    general_stationary,
    kernel_from_p,
    ladder_state_labels,
    ladder_transition,
    stationary,
)
from .oracle import (
    ChainEstimate,
    LadderEstimate,
    WelfareEstimate,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
)
from .scenarios import (
    AutocorrRow,
    EvidenceRow,
    autocorr_model,
    coin_model,
    evidence_table,
    illusory_model,
    lunar_model,
    lunar_strength_rows,
)
from .signals import (
    CensorPoint,
    ContinuousSignalModel,
    DiscreteSignalModel,
    Evidence,
    FullyCensored,
    PVector,
    TransitionKernel,
    asymmetric_tilt_model,
    batch,
    censor_path,
    censored_direction_matrix,
    censored_transitions,
    classify,
    conditional_dynamics,
    load_model,
    model_from_config,
    pool,
    tilt_model,
)
from .welfare import (
    CensorSensitivity,
    DeltaFixed,
    DWitness,
    GridArgmax,
    ProblemSpec,
    WelfareReport,
    baseline_welfare,
    bayes_welfare,
    censor_sensitivity,
    censored_p,
    default_censor_step,
    delta_fixed,
    expected_welfare,
    find_D_witness,
    finite_n_welfare,
    grid_argmax,
    in_B,
    regular_censoring_gain,
    regularity,
    sweep,
    welfare_at_threshold,
)

__version__ = "0.1.0"
