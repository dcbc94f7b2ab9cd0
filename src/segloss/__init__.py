"""Segmentation overlap metrics, their differentiable surrogate losses,
approximation-bound verification, and a desk-scale training harness."""

from .masks import BinaryMask, ConfusionCounts, ProbMap, confusion_counts, threshold
from .metrics import (
    MetricValue,
    dice,
    dice_jaccard_convert,
    evaluate,
    hamming,
    jaccard,
    tversky,
    weighted_hamming,
)
from .losses import LossEval, LossSpec, eval_loss, finite_diff_gradient, vertex_consistency_check
from .bounds import (
    BoundReport,
    brute_force_sup,
    dice_jaccard_bounds,
    hamming_blowup_witness,
    risk_inequality_check,
    tversky_dice_bounds,
)
from .stats import ScoreVector, SignificanceMatrix, bootstrap_pair_test, rank_methods
from .toytrain import (
    ExperimentResult,
    SampleSet,
    SyntheticConfig,
    TrainConfig,
    generate_dataset,
    run_loss_comparison,
    stratify_by_size,
    train,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
