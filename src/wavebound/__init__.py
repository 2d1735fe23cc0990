"""Training laboratory for dynamic per-output error-bound regularization.

A small, dependency-light stack for studying loss-lower-bound regularizers
on rolling-window forecasting: a dense MLP forecaster with hand-written
backprop, a from-scratch Adam, an exponential-moving-average target network
that supplies per-output error bounds, flooding-style objectives, and a
Monte-Carlo oracle for the estimator-variance reduction claim.
"""

from .adam import AdamState, adam_init, adam_step
from .checkpoint import checkpoint_load, checkpoint_save
from .data import (
    SeriesDataset,
    SplitSpec,
    WindowPair,
    batch_indices,
    load_csv,
    save_csv,
    select_feature,
    split_and_standardize,
    stack_windows,
    synth_series,
    windowize,
)
from .ema import EmaMirror, ema_init, ema_update
from .errors import ConfigError, DataError, NumericError, WaveboundError
from .evaluation import (
    MetricRecord,
    evaluate,
    generalization_gap,
    loss_slice,
)
from .nn import (
    ACTIVATIONS,
    ModelParams,
    mlp_backward_batch,
    mlp_forward_batch,
    new_forecaster,
)
from .objectives import (
    OBJECTIVE_KINDS,
    ObjectiveKind,
    RiskMatrix,
    flood_elementwise,
    objective_mask,
    objective_value,
    per_element_risk,
    wave_elementwise,
)
from .rng import Rng
from .theorem import (
    LinearGaussianPopulation,
    OracleInstance,
    OracleReport,
    jensen_audit,
    jensen_violations,
    predict,
    reference_instance,
    run_estimator_experiment,
    run_full_oracle,
    sample,
    true_risk,
)
from .trainer import (
    EPSILON_GRID,
    FLOOD_LEVEL_GRID,
    LEARNING_RATE_GRID,
    EpochRecord,
    SweepRow,
    TrainConfig,
    TrainLog,
    TrainResult,
    sweep,
    train,
)

__version__ = "0.1.0"
