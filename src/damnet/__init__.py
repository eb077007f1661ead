"""Densely connected convolutional network engine for frame-level
acoustic classification: layer primitives with hand-written backward
passes, architecture planning and parameter counting, a log-Mel feature
pipeline, and an SGD trainer with a decaying learning-rate schedule.
"""

from .builder import (
    ArchitectureTable,
    DenseNetConfig,
    StageRecord,
    block_connection_count,
    block_input_channels,
    bottleneck_pairs_per_block,
    effective_depth,
    layers_per_block,
    plan_architecture,
    transition_output_channels,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .exceptions import (
    ConfigError,
    DamnetError,
    DataError,
    DivergenceError,
    FormatError,
    NumericError,
    ShapeError,
)
from .features import (
    FilterbankConfig,
    append_deltas,
    apply_cmvn,
    compute_cmvn_stats,
    compute_logmel,
    splice_context,
)
from .formats import CmvnStats, Metrics, UtteranceFeatures, read_archive, write_archive
from .gradcheck import finite_diff_check, gradcheck_report
from .model import Model, build_model, count_parameters
from .trainer import (
    EvalResult,
    FrameDataset,
    ScheduleState,
    TrainConfig,
    build_frame_dataset,
    evaluate,
    fit,
    make_synthetic_dataset,
    schedule_step,
    sgd_update,
    train_epoch,
)

__version__ = "0.1.0"
