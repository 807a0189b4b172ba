"""Finite-armed contextual bandits on HMM-generated contexts: exact and
estimated belief filtering, spectral parameter estimation, staged and
per-round LinUCB policies, and pseudo-regret evaluation."""

__version__ = "0.1.0"

from .hmm import (
    HmmDiagnostics,
    HmmParams,
    Trajectory,
    check_forgetting,
    filter_trace,
    forgetting_rate,
    sample_trajectory,
    stationary_distribution,
    validate,
)
from .spectral import (
    EstimatedHmm,
    MomentSet,
    SpectralWorkspace,
    accumulate_moments,
    align,
    postprocess,
    relabel,
    spectral_estimate,
)
from .beliefs import (
    BeliefErrorBudget,
    dump_belief_trace,
    refit_schedule,
    scheduled_beliefs,
    u_belief,
)
from .environment import (
    EnvironmentTape,
    NoiseModel,
    RewardSpec,
    TransferFunction,
    check_reward_bounds,
    mean_reward,
    sample_tape,
    sample_theta,
)
from .policies import (
    BonusConfig,
    BoxAPolicy,
    BoxBPolicy,
    StagePlan,
    oracle_act,
    per_round_bonus,
    staged_bonus,
    staged_width,
    u_schedule,
)
from .evaluation import (
    RateFit,
    check_determinant_trace,
    check_elliptic_potential,
    check_matrix_determinant_lemma,
    check_staged_elliptic_potential,
    fit_rate,
    read_summaries,
    run_lemma_trials,
)
from .config import ExperimentConfig, load_config, parse_config
from .runner import estimation_curves, run_experiment, simulate_cell, simulate_group

__all__ = [name for name in dir() if not name.startswith("_")]
