"""Link-level laboratory for massive-MIMO M-PAM transmission under imperfect
channel knowledge: a seeded Monte Carlo simulator, deterministic large-system
performance predictors, and pilot/data resource optimizers.

The package namespace holds what the README's quick start and the CLI use;
everything else is imported from its module."""

from .asymptotics import Prediction, predict
from .decoders import DecoderKind, DecoderSpec
from .errors import ConfigError, ConvergenceError
from .runner import CSV_COLUMNS, SweepRecord, SweepSpec, load_config, run
from .simulate import BatchStats, run_batch
from .system import PowerConvention, SystemConfig, alpha_star, derive_params

__version__ = "0.1.0"
