"""Desk-scale laboratory for airborne collision avoidance logic."""

from .core import (
    ADVISORIES,
    Advisory,
    AircraftState,
    BeliefState,
    Trace,
    VerticalState,
    write_trace_csv,
)
from .bayesnet import DiscreteBayesNet, fit_cpts
from .dynamics import IntruderModel, PilotModel, project_template, step_vertical
from .encounters import (
    EncounterBatch,
    EncounterModel,
    build_encounter,
    build_encounters,
    default_correlated_model,
    default_uncorrelated_model,
    read_model_file,
    sample_initial,
    sample_transition,
    toy_two_bin_model,
    trace_log_likelihood,
    write_model_file,
)
from .evaluation import (
    Equipage,
    MetricsReport,
    RiskRatio,
    cross_entropy_adapt,
    estimate_metrics,
    is_estimate,
    risk_ratio,
    simulate_encounter,
)
from .optimizer import (
    Grid,
    LogicTable,
    RewardParams,
    backward_induction,
    reward,
    transition_distribution,
)
from .runtime import (
    CoordinationConstraint,
    CoordinationMessage,
    OnlineContext,
    apply_online_costs,
    belief_action_values,
    coordinate,
    fuse_multithreat,
    interpolate,
    policy_slice,
    select_action,
    synthesize_belief,
)
from .tablefile import read_table, write_table
from .tcas import TcasConfig, Threat, assess_threat, select_sense, select_strength

__version__ = "0.1.0"
