"""Exact discrete similarity and distance metrics over binary mask pairs.

Degenerate-case conventions (the formulas themselves are silent):

* both masks empty -> Dice = Jaccard = Tversky = F-beta = 1 (perfect
  agreement on nothing); exactly one side empty -> 0 (forced: zero
  numerator over a positive denominator);
* weighted Hamming with |y| = 0 treats the fn term as 0, and the fp term
  as 0 when |y| = d (each term's numerator is also 0 there);
* Hausdorff is undefined when either side has no foreground, absolute
  volume difference when the ground truth has none.

The ``*_from_counts`` kernels accept scalars or numpy arrays and are the
single source of truth for the formulas; the exhaustive bound search
evaluates them over every (tp, fp, fn) triple of a length d at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveWeight, OutOfRange
from .masks import BinaryMask, check_dims, confusion_counts


@dataclass(frozen=True)
class MetricValue:
    """A named metric result; ``defined`` is False when a convention-free
    degenerate case was hit (the value is then NaN)."""

    name: str
    value: float
    defined: bool = True


def _safe_div(num, den, fallback):
    """Elementwise num/den with den == 0 mapped to ``fallback``."""
    den_arr = np.asarray(den, dtype=np.float64)
    zero = den_arr == 0
    out = np.asarray(num, dtype=np.float64) / np.where(zero, 1.0, den_arr)
    return np.where(zero, fallback, out)


def dice_from_counts(tp, fp, fn):
    """2tp / (2tp + fp + fn); 1.0 when all three counts are zero."""
    return _safe_div(2.0 * np.asarray(tp, dtype=np.float64), 2.0 * np.asarray(tp) + np.asarray(fp) + np.asarray(fn), 1.0)


def jaccard_from_counts(tp, fp, fn):
    """tp / (tp + fp + fn); 1.0 when all three counts are zero."""
    return _safe_div(np.asarray(tp, dtype=np.float64), np.asarray(tp) + np.asarray(fp) + np.asarray(fn), 1.0)


def hamming_from_counts(fp, fn, d):
    """1 - (fp + fn)/d, the pixel accuracy."""
    return 1.0 - (np.asarray(fp, dtype=np.float64) + np.asarray(fn)) / d


def weighted_hamming_from_counts(fp, fn, n_true, d, gamma):
    """1 - gamma*fn/|y| - (1-gamma)*fp/(d-|y|) with 0/0 terms read as 0."""
    fn_term = gamma * _safe_div(np.asarray(fn, dtype=np.float64), n_true, 0.0)
    fp_term = (1.0 - gamma) * _safe_div(np.asarray(fp, dtype=np.float64), d - np.asarray(n_true), 0.0)
    return 1.0 - fn_term - fp_term


def tversky_from_counts(tp, fp, fn, alpha, beta):
    """tp / (tp + alpha*fp + beta*fn); 1.0 when all three counts are zero.

    With alpha, beta > 0 the denominator vanishes only in the both-empty
    case, which the convention already covers.
    """
    tp = np.asarray(tp, dtype=np.float64)
    den = tp + alpha * np.asarray(fp) + beta * np.asarray(fn)
    return np.where((tp + np.asarray(fp) + np.asarray(fn)) == 0, 1.0, _safe_div(tp, den, 0.0))


def fbeta_from_counts(tp, fp, fn, b):
    """(1+b^2)tp / ((1+b^2)tp + b^2*fn + fp); 1.0 when all counts are zero."""
    b2 = b * b
    return _safe_div((1.0 + b2) * np.asarray(tp, dtype=np.float64), (1.0 + b2) * np.asarray(tp) + b2 * np.asarray(fn) + np.asarray(fp), 1.0)


def dice(y: BinaryMask, yhat: BinaryMask) -> float:
    """Dice score 2|y ∩ ŷ| / (|y| + |ŷ|)."""
    c = confusion_counts(y, yhat)
    return float(dice_from_counts(c.tp, c.fp, c.fn))


def jaccard(y: BinaryMask, yhat: BinaryMask) -> float:
    """Jaccard index |y ∩ ŷ| / |y ∪ ŷ|; satisfies J = D/(2-D)."""
    c = confusion_counts(y, yhat)
    return float(jaccard_from_counts(c.tp, c.fp, c.fn))


def hamming(y: BinaryMask, yhat: BinaryMask) -> float:
    """Hamming similarity 1 - |y △ ŷ|/d; numerically equals accuracy."""
    c = confusion_counts(y, yhat)
    return float(hamming_from_counts(c.fp, c.fn, c.d))


def weighted_hamming(y: BinaryMask, yhat: BinaryMask, gamma: float) -> float:
    """Class-weighted Hamming similarity.

    Equals plain Hamming when gamma = |y|/d (and 0 < |y| < d).
    """
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"gamma must lie in [0, 1], got {gamma}")
    c = confusion_counts(y, yhat)
    return float(weighted_hamming_from_counts(c.fp, c.fn, c.n_true, c.d, gamma))


def tversky(y: BinaryMask, yhat: BinaryMask, alpha: float, beta: float) -> float:
    """Tversky index weighting false positives by alpha, false negatives
    by beta.  Equals Dice at alpha = beta = 0.5 and Jaccard at 1, 1."""
    if alpha <= 0 or beta <= 0:
        raise NonPositiveWeight(f"alpha and beta must be > 0, got {alpha}, {beta}")
    c = confusion_counts(y, yhat)
    return float(tversky_from_counts(c.tp, c.fp, c.fn, alpha, beta))


def dice_to_jaccard(value: float) -> float:
    return value / (2.0 - value)


def jaccard_to_dice(value: float) -> float:
    return 2.0 * value / (1.0 + value)


def dice_jaccard_convert(value: float, direction: str) -> float:
    """Convert between the two scores: "d2j" gives D/(2-D), "j2d" gives
    2J/(1+J).  The two directions are mutually inverse."""
    if not 0.0 <= value <= 1.0:
        raise OutOfRange(f"similarity value must lie in [0, 1], got {value}")
    if direction == "d2j":
        return dice_to_jaccard(value)
    if direction == "j2d":
        return jaccard_to_dice(value)
    raise OutOfRange(f"direction must be 'd2j' or 'j2d', got {direction!r}")


def _foreground_points(mask: BinaryMask) -> np.ndarray:
    """(n, 3) pixel-center coordinates (z, y, x) of foreground pixels."""
    return np.argwhere(mask.to_array()).astype(np.float64)


def _directed_hausdorff(u: np.ndarray, v: np.ndarray) -> float:
    """max over u of min over v of the Euclidean distance, chunked so the
    pairwise distance block stays small."""
    worst = 0.0
    step = max(1, 2_000_000 // max(1, v.shape[0]))
    for lo in range(0, u.shape[0], step):
        blk = u[lo:lo + step]
        d2 = ((blk[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(d2.min(axis=1).max()))
    return float(np.sqrt(worst))


def hausdorff_distance(y: BinaryMask, yhat: BinaryMask) -> MetricValue:
    """Exact symmetric Hausdorff distance between the full foreground
    point sets, Euclidean on pixel centers with unit spacing."""
    check_dims(y, yhat)
    pu = _foreground_points(y)
    pv = _foreground_points(yhat)
    if pu.shape[0] == 0 or pv.shape[0] == 0:
        return MetricValue("hausdorff", float("nan"), defined=False)
    val = max(_directed_hausdorff(pu, pv), _directed_hausdorff(pv, pu))
    return MetricValue("hausdorff", val)


def absolute_volume_difference(y: BinaryMask, yhat: BinaryMask) -> MetricValue:
    """100 * | |ŷ| - |y| | / |y|, in percent of the ground-truth volume."""
    check_dims(y, yhat)
    ny = y.count()
    if ny == 0:
        return MetricValue("avd", float("nan"), defined=False)
    return MetricValue("avd", 100.0 * abs(yhat.count() - ny) / ny)


def auxiliary_metric(kind: str, y: BinaryMask, yhat: BinaryMask, b: float | None = None) -> MetricValue:
    """Dispatch for the secondary metrics: "fbeta" (requires b > 0),
    "accuracy", "hausdorff", "avd"."""
    if kind == "fbeta":
        if b is None or b <= 0:
            raise OutOfRange("fbeta requires b > 0")
        c = confusion_counts(y, yhat)
        return MetricValue(f"fbeta:{b:g}", float(fbeta_from_counts(c.tp, c.fp, c.fn, b)))
    if kind == "accuracy":
        c = confusion_counts(y, yhat)
        return MetricValue("accuracy", (c.tp + c.tn) / c.d)
    if kind == "hausdorff":
        return hausdorff_distance(y, yhat)
    if kind == "avd":
        return absolute_volume_difference(y, yhat)
    raise OutOfRange(f"unknown auxiliary metric kind {kind!r}")
