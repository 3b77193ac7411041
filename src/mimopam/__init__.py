"""Link-level laboratory for massive-MIMO M-PAM transmission under imperfect
channel knowledge: a seeded Monte Carlo simulator, deterministic large-system
performance predictors, and pilot/data resource optimizers."""

from .allocation import (
    AllocationResult,
    alpha_star,
    alpha_star_for_config,
    optimize_goodput,
)
from .asymptotics import (
    BoxObjectiveParams,
    Prediction,
    ScalarSolution,
    box_saddle_solve,
    box_sep,
    box_theta_min,
    lambda_star_numeric,
    mse_from_theta,
    predict,
    qfunc,
    rls_beta_star,
    rls_theta_star,
    scalar_solution,
    t_star_numeric,
    upsilon,
)
from .decoders import (
    DecoderKind,
    DecoderSpec,
    box_rls_solve,
    lmmse_decode,
    rls_solve,
)
from .errors import ConfigError, ConvergenceError, DegenerateThresholdError, InfeasibleError
from .runner import (
    CSV_COLUMNS,
    LambdaPolicy,
    RunResult,
    SweepAxis,
    SweepRecord,
    SweepSpec,
    TPolicy,
    load_config,
    records_to_csv,
    resolve_decoder,
    run,
)
from .simulate import (
    BatchStats,
    TrialOutcome,
    draw_trial,
    run_batch,
    run_trial,
)
from .system import (
    Constellation,
    DerivedParams,
    PowerConvention,
    SystemConfig,
    db_to_linear,
    derive_params,
    lambda_star_rls,
    linear_to_db,
    pam_constellation,
    rho_eff_of_alpha,
    slice_symbols,
)

__version__ = "0.1.0"
