"""Desk-scale empirical harness: synthetic blob datasets, a linear
per-pixel classifier trained by plain gradient descent under any LossSpec,
and the experiment protocols (loss comparison, object-size stratification,
fg/bg output masking).

Every operation is a pure function of its inputs and seed; reruns agree
bit for bit.  Each (fold x arm) run gets a seed derived by hashing
(global seed, fold, arm), so its result does not depend on the other runs;
the runner executes them one after another in a single process.
Training computes a loss value only on its validation images, whose curve
drives early stopping, the learning-rate cuts and the kept weights; no
train-set loss curve is computed.  Evaluation only ever uses the discrete
metrics at threshold 0.5; the training loss never contaminates it.

Each image's features are one C-contiguous (N_FEATURES, d) array, and
``Sample.features`` is its (d, N_FEATURES) view; training and scoring take
the logits as ``w @ X`` and gradients as ``X @ v`` over contiguous rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptySet,
    InfeasibleConfig,
    InfeasibleRatio,
    NonFiniteLoss,
    OutOfRange,
    TooFewSamples,
)
# eval_loss_arrays stays a module global: perfbench/layers.py counts the
# calls made through it
from .losses import LossSpec, eval_loss_arrays, loss_logit_gradient, loss_value  # noqa: F401
from .masks import BinaryMask, overlap_counts
from .metrics import dice_from_counts, fbeta_from_counts, jaccard_from_counts

N_FEATURES = 5  # raw, 3x3 box mean, x/nx, y/ny, constant 1

# intensity ramp of the blob edge, linear in the squared elliptical radial
# coordinate: intensity 0.5 falls exactly on the label boundary (rho^2 = 1)
# and the ambiguous band covers equal areas inside and outside the label
_EDGE_Q_LO = 0.55
_EDGE_Q_HI = 1.45

VAL_FRACTION = 0.2       # last 20% of training images by index
PLATEAU_DIVISOR = 5.0    # learning-rate cut on validation plateau

FBETAS = (0.5, 1.0, 1.5, 2.0)
# the per-image scores, in report column order
SCORE_COLUMNS = ("dice", "jaccard", *(f"f{b:g}" for b in FBETAS))


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer components."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class SyntheticConfig:
    n_images: int = 200
    dims: tuple[int, int] = (64, 64)
    object_radius_range: tuple[float, float] = (3.0, 9.0)
    fg_prior_target: float = 0.02
    noise_sigma: float = 0.3
    seed: int = 7
    # per-image multiplicative intensity gain jitter: no single global
    # intensity threshold matches every image's label boundary, so pixel-wise
    # calibration alone cannot solve the task; 0 makes noise-free data
    # linearly separable on the raw intensity feature
    gain_jitter: float = 0.6

    def __post_init__(self):
        if self.n_images < 1:
            raise OutOfRange("n_images must be >= 1")
        nx, ny = self.dims
        rmin, rmax = self.object_radius_range
        if nx < 4 or ny < 4:
            raise OutOfRange("image dims too small")
        # each check is written so that NaN fails it
        if not 0 < rmin <= rmax:
            raise OutOfRange("invalid radius range")
        if 2 * rmax + 4 > min(nx, ny):
            raise InfeasibleConfig("largest radius does not fit inside dims")
        if not 0.0 < self.fg_prior_target < 1.0:
            raise OutOfRange("fg_prior_target must lie in (0, 1)")
        if not 0 <= self.noise_sigma < math.inf:
            raise OutOfRange("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.gain_jitter < 1.0:
            raise OutOfRange("gain_jitter must lie in [0, 1)")
        if self.seed < 0:
            raise OutOfRange("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class Sample:
    features: np.ndarray  # (d, N_FEATURES) float64, a view of a (N_FEATURES, d) array
    label: BinaryMask


@dataclass(eq=False)
class SampleSet:
    samples: list[Sample]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i: int) -> Sample:
        return self.samples[i]

    @property
    def dims(self):
        return self.samples[0].label.dims

    def fg_counts(self) -> np.ndarray:
        return np.array([s.label.count() for s in self.samples])

    def mean_fg_prior(self) -> float:
        counts = self.fg_counts()
        return float(counts.mean() / self.samples[0].label.d)

    def subset(self, idx) -> "SampleSet":
        return SampleSet([self.samples[int(i)] for i in idx])


def _box3(img: np.ndarray) -> np.ndarray:
    """3x3 box mean with edge replication."""
    p = np.pad(img, 1, mode="edge")
    return (
        p[:-2, :-2] + p[:-2, 1:-1] + p[:-2, 2:]
        + p[1:-1, :-2] + p[1:-1, 1:-1] + p[1:-1, 2:]
        + p[2:, :-2] + p[2:, 1:-1] + p[2:, 2:]
    ) / 9.0


def generate_dataset(cfg: SyntheticConfig) -> SampleSet:
    """Images with 1-3 soft-edged elliptical blobs plus Gaussian noise.

    Per-image blob areas are drawn so the dataset-mean foreground prior
    lands within +-20% (relative) of the target; infeasible radius ranges
    are rejected up front.
    """
    nx, ny = cfg.dims
    rmin, rmax = cfg.object_radius_range
    d_img = nx * ny
    target = cfg.fg_prior_target * d_img
    area_lo = math.pi * rmin * rmin
    area_hi = 3.0 * math.pi * rmax * rmax
    if area_lo > 1.2 * target or area_hi < 0.8 * target:
        raise InfeasibleConfig(
            f"target foreground area {target:.1f}px not reachable with radii "
            f"[{rmin}, {rmax}] and 1-3 blobs"
        )

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    ys = np.arange(ny, dtype=np.float64)[:, None]
    xs = np.arange(nx, dtype=np.float64)[None, :]
    xnorm = np.broadcast_to(xs / (nx - 1), (ny, nx)).ravel()
    ynorm = np.broadcast_to(ys / (ny - 1), (ny, nx)).ravel()
    ones = np.ones(d_img)

    samples = []
    for _ in range(cfg.n_images):
        t_img = float(np.clip(target * rng.uniform(0.7, 1.3), area_lo, area_hi))
        k_lo = max(1, math.ceil(t_img / (math.pi * rmax * rmax)))
        k_hi = min(3, max(1, math.floor(t_img / (math.pi * rmin * rmin))))
        k = int(rng.integers(k_lo, k_hi + 1)) if k_lo < k_hi else k_lo
        parts = rng.dirichlet(np.full(k, 4.0)) * t_img
        areas = np.clip(parts, math.pi * rmin * rmin, math.pi * rmax * rmax)

        label = np.zeros((ny, nx), dtype=bool)
        intensity = np.zeros((ny, nx))
        placed: list[tuple[float, float, float]] = []
        for a_blob in areas:
            r0 = math.sqrt(a_blob / math.pi)
            aspect = rng.uniform(0.78, 1.28)
            rx = float(np.clip(r0 * aspect, rmin, rmax))
            ry = float(np.clip(r0 / aspect, rmin, rmax))
            rr = max(rx, ry)
            theta = rng.uniform(0.0, math.pi)
            cx = cy = 0.0
            for _attempt in range(8):
                cx = rng.uniform(rr + 1.0, nx - 2.0 - rr)
                cy = rng.uniform(rr + 1.0, ny - 2.0 - rr)
                if all(
                    math.hypot(cx - ox, cy - oy) >= 0.9 * (rr + orr)
                    for ox, oy, orr in placed
                ):
                    break
            placed.append((cx, cy, rr))
            dx = xs - cx
            dy = ys - cy
            ct, st = math.cos(theta), math.sin(theta)
            u = (dx * ct + dy * st) / rx
            v = (-dx * st + dy * ct) / ry
            rho2 = u * u + v * v
            label |= rho2 <= 1.0
            intensity = np.maximum(
                intensity,
                np.clip((_EDGE_Q_HI - rho2) / (_EDGE_Q_HI - _EDGE_Q_LO), 0.0, 1.0),
            )

        img = intensity
        if cfg.gain_jitter > 0:
            img = img * rng.uniform(1.0 - cfg.gain_jitter, 1.0 + cfg.gain_jitter)
        # a huge but finite noise_sigma overflows: one error, no numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.noise_sigma > 0:
                img = img + cfg.noise_sigma * rng.standard_normal((ny, nx))
            feats = np.stack([img.ravel(), _box3(img).ravel(), xnorm, ynorm, ones])
        if not np.all(np.isfinite(feats)):
            raise InfeasibleConfig(f"noise_sigma = {cfg.noise_sigma:g} overflows the image features")
        samples.append(Sample(feats.T, BinaryMask.from_array(label.astype(np.uint8))))
    return SampleSet(samples)


@dataclass(frozen=True)
class TrainConfig:
    loss: LossSpec
    learning_rate: float = 4.0
    max_epochs: int = 120
    batch_size: int = 4
    pretrain_epochs_ce: int = 10
    early_stop_patience: int = 12
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails it
        if not 0 < self.learning_rate < math.inf:
            raise OutOfRange("learning_rate must be finite and > 0")
        if self.max_epochs < 0 or self.pretrain_epochs_ce < 0:
            raise OutOfRange("epoch counts must be >= 0")
        if self.batch_size < 1 or self.early_stop_patience < 1:
            raise OutOfRange("batch_size and early_stop_patience must be >= 1")
        if self.seed < 0:
            raise OutOfRange("seed must be >= 0")


@dataclass
class TrainResult:
    """One train() run: weights and best_val_loss at the best main-phase
    validation loss, val_losses after each main-phase epoch (epochs_run is
    its length), lr_cuts (indices into val_losses after which the learning
    rate was cut) and stop_reason ("patience" or "max_epochs").  No
    train-set loss curve is kept: no decision reads one."""

    weights: np.ndarray
    best_val_loss: float
    val_losses: np.ndarray
    lr_cuts: tuple[int, ...]
    stop_reason: str

    @property
    def epochs_run(self) -> int:
        return len(self.val_losses)


def _sigmoid(s: np.ndarray) -> np.ndarray:
    # one branch, 1/(1+exp(-s)): the bits of the two-branch form (exp(s)/(1+exp(s))
    # below 0) for s >= 0, a few ulp off it below, where both give p <= 0.5, so
    # the scores' p > 0.5 is unchanged.  exp(-s) overflows to inf below
    # s = -709.78, giving the right p = 0; that warning is silenced
    with np.errstate(over="ignore"):
        e = np.exp(-s)
    e += 1.0
    return np.reciprocal(e, out=e)


def _resolve_masks(data: SampleSet, output_masks) -> list:
    """One pixel selector per image: its output mask as a boolean vector,
    or slice(None) for every pixel when there are no masks."""
    if output_masks is None:
        return [slice(None)] * len(data)
    masks = list(output_masks)
    if len(masks) != len(data):
        raise OutOfRange("need one output mask per image")
    out = []
    for m, s in zip(masks, data):
        if m.dims != s.label.dims:
            raise OutOfRange("output mask dims do not match the data")
        out.append(m.data.astype(bool))
    return out


def _prepare(samples, sels) -> list[tuple[np.ndarray, np.ndarray]]:
    """(C-contiguous (N_FEATURES, d') features, float labels) of each
    sample's selected pixels; all pixels of a generated sample are a view."""
    return [(np.ascontiguousarray(s.features.T[:, sel]), s.label.data[sel].astype(np.float64))
            for s, sel in zip(samples, sels)]


def _image_grad(spec: LossSpec, X: np.ndarray, yv: np.ndarray, w: np.ndarray) -> np.ndarray:
    return X @ loss_logit_gradient(spec, yv, _sigmoid(w @ X))


def _mean_loss(items, w: np.ndarray, spec: LossSpec) -> float:
    total = 0.0
    for X, yv in items:
        total += loss_value(spec, yv, _sigmoid(w @ X))
    return total / len(items)


def _run_epoch(items, w: np.ndarray, spec: LossSpec, lr: float, batch_size: int, rng) -> np.ndarray:
    order = rng.permutation(len(items))
    for lo in range(0, order.size, batch_size):
        batch = order[lo:lo + batch_size]
        g = np.zeros_like(w)
        for idx in batch:
            X, yv = items[idx]
            g += _image_grad(spec, X, yv, w)
        w = w - lr * (g / batch.size)
    if not np.all(np.isfinite(w)):
        raise NonFiniteLoss(f"training diverged to non-finite weights (loss={spec.label()}, lr={lr})")
    return w


def train(data: SampleSet, cfg: TrainConfig) -> TrainResult:
    """Gradient descent on the mean per-image loss of a linear per-pixel
    scorer (5 features -> logit -> sigmoid), over every pixel.

    Runs a CE warm-up for cfg.pretrain_epochs_ce epochs, then switches to
    cfg.loss with the optimizer state (learning rate, plateau counters)
    reset.  The learning rate is divided by 5 on a validation-loss
    plateau; training stops when the patience is exhausted.  Returns the
    weights with the best validation loss seen in the main phase.
    """
    if len(data) == 0:
        raise EmptySet("train needs at least one image")
    return _fit(_prepare(data, _resolve_masks(data, None)), cfg)


def _fit(items, cfg: TrainConfig) -> TrainResult:
    """train() on prepared items."""
    n = len(items)
    n_val = min(int(round(VAL_FRACTION * n)), n - 1)
    train_items = items[: n - n_val] if n_val > 0 else items
    val_items = items[n - n_val:] if n_val > 0 else items

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    w = rng.normal(0.0, 0.5, N_FEATURES)

    ce = LossSpec("ce")
    for _ in range(cfg.pretrain_epochs_ce):
        w = _run_epoch(train_items, w, ce, cfg.learning_rate, cfg.batch_size, rng)

    lr = cfg.learning_rate
    best_val = _mean_loss(val_items, w, cfg.loss)
    if not math.isfinite(best_val):
        raise NonFiniteLoss(f"initial validation loss is {best_val}")
    best_w = w.copy()
    stall = 0
    plateau_every = max(1, cfg.early_stop_patience // 2)
    val_hist: list[float] = []
    lr_cuts: list[int] = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        w = _run_epoch(train_items, w, cfg.loss, lr, cfg.batch_size, rng)
        vl = _mean_loss(val_items, w, cfg.loss)
        if not math.isfinite(vl):
            raise NonFiniteLoss(f"non-finite validation loss {vl} at epoch {epoch} "
                                f"(loss={cfg.loss.label()}, lr={lr})")
        val_hist.append(vl)
        if vl < best_val:
            best_val, best_w, stall = vl, w.copy(), 0
        else:
            stall += 1
            if stall % plateau_every == 0:
                lr /= PLATEAU_DIVISOR
                lr_cuts.append(epoch)
            if stall >= cfg.early_stop_patience:
                stop_reason = "patience"
                break
    return TrainResult(best_w, best_val, np.array(val_hist), tuple(lr_cuts), stop_reason)


def score_images(data: SampleSet, idx, w: np.ndarray) -> dict[str, np.ndarray]:
    """Discrete scores at threshold 0.5 of the images idx of data, one
    array per SCORE_COLUMNS entry."""
    subset = data.subset(idx)
    return _score(_prepare(subset, _resolve_masks(subset, None)), w)


def _score(items, w: np.ndarray) -> dict[str, np.ndarray]:
    """score_images() on prepared items."""
    out = {c: np.empty(len(items)) for c in SCORE_COLUMNS}
    for i, (X, yv) in enumerate(items):
        truth = yv.astype(bool)
        counts = (*overlap_counts(truth, _sigmoid(w @ X) > 0.5), truth.size)
        values = (dice_from_counts(*counts), jaccard_from_counts(*counts),
                  *(fbeta_from_counts(*counts, b) for b in FBETAS))
        for c, v in zip(SCORE_COLUMNS, values):
            out[c][i] = v
    return out


@dataclass
class ArmScores:
    """One loss arm's per-image scores, keyed by SCORE_COLUMNS."""

    name: str
    spec: LossSpec
    scores: dict[str, np.ndarray]


@dataclass
class ExperimentResult:
    arms: list[ArmScores]
    folds: np.ndarray     # fold id per image
    fg_sizes: np.ndarray  # ground-truth foreground count per image


def run_loss_comparison(
    data: SampleSet,
    losses,
    folds: int = 5,
    seed: int = 0,
    base_cfg: TrainConfig | None = None,
    output_masks=None,
    threads: int = 1,
) -> ExperimentResult:
    """Five-fold (by default) cross-validated comparison of loss arms.

    Fold of image i is i % folds.  Per fold and arm a model is trained on
    the remaining images (the last 20% of them serving as validation for
    checkpoint selection) and scored on the left-out images, so each image
    is scored exactly once per arm.  Given output_masks (one BinaryMask
    per image of data), both training and scoring see only in-mask pixels;
    the masks are resolved once for the whole experiment.  Arms must have
    distinct labels, which name their report files.  The jobs run one
    after another; threads is accepted for compatibility and ignored.
    """
    labels = [spec.label() for spec in losses]
    if len(set(labels)) < len(labels):
        raise OutOfRange(f"loss arms must have distinct labels, got {', '.join(labels)}")
    n = len(data)
    if folds < 2:
        raise OutOfRange("folds must be >= 2")
    if n < folds:
        raise TooFewSamples(f"need at least {folds} images, got {n}")
    base = base_cfg if base_cfg is not None else TrainConfig(loss=LossSpec("ce"))
    items = _prepare(data, _resolve_masks(data, output_masks))

    fold_of = np.arange(n) % folds
    fg_sizes = data.fg_counts()
    arms = [
        ArmScores(name, spec, {c: np.full(n, np.nan) for c in SCORE_COLUMNS})
        for name, spec in zip(labels, losses)
    ]

    for f in range(folds):
        test_idx = np.flatnonzero(fold_of == f)
        train_items = [items[i] for i in np.flatnonzero(fold_of != f)]
        test_items = [items[i] for i in test_idx]
        for ai, arm in enumerate(arms):
            res = _fit(train_items, replace(base, loss=arm.spec, seed=derive_seed(seed, f, ai)))
            for c, values in _score(test_items, res.weights).items():
                arm.scores[c][test_idx] = values
    return ExperimentResult(arms, fold_of, fg_sizes)


class EmptyBinWarning(UserWarning):
    """A stratification bin received no images and was collapsed away."""


@dataclass
class SizeStrata:
    bin_counts: list[int]
    mean_size: list[float]
    mean_dice: dict[str, list[float]]


def stratify_by_size(result: ExperimentResult, n_bins: int = 10) -> SizeStrata:
    """Mean Dice per loss within size deciles: bin boundaries sit at the
    empirical percentiles of the ground-truth foreground counts, so
    same-size images always share a bin.

    Bins left empty by ties or by having fewer images than bins are
    collapsed into their neighbours with a warning.
    """
    sizes = result.fg_sizes
    if sizes.size == 0:
        raise EmptySet("empty experiment result")
    edges = np.quantile(sizes, [k / n_bins for k in range(1, n_bins)])
    assignment = np.searchsorted(edges, sizes, side="right")
    parts = [np.flatnonzero(assignment == b) for b in range(n_bins)]
    if any(p.size == 0 for p in parts):
        warnings.warn(
            f"{sum(1 for p in parts if p.size == 0)} empty size bins collapsed "
            f"({sizes.size} images over {n_bins} bins)",
            EmptyBinWarning,
        )
        parts = [p for p in parts if p.size > 0]
    counts = [int(p.size) for p in parts]
    mean_size = [float(sizes[p].mean()) for p in parts]
    mean_dice = {
        arm.name: [float(arm.scores["dice"][p].mean()) for p in parts] for arm in result.arms
    }
    return SizeStrata(counts, mean_size, mean_dice)


def _label_planes(data: SampleSet) -> list[np.ndarray]:
    nx, ny, nz = data.dims
    if nz != 1:
        raise OutOfRange("fg/bg masking is defined for 2D data")
    return [s.label.to_array()[0] for s in data]


def build_fgbg_masks(data: SampleSet, ratio: float):
    """Per-image rectangles of the image's aspect ratio, positioned to
    contain as much of the object as possible (all of it whenever it
    fits), with one size shared by the whole dataset chosen so the mean
    in-rectangle foreground fraction matches the requested ratio.

    Returns (masks, rect_w, rect_h, achieved_fraction).
    """
    if not 0.0 < ratio <= 1.0:
        raise OutOfRange("ratio must lie in (0, 1]")
    nx, ny, _ = data.dims
    planes = _label_planes(data)
    integrals = [
        np.pad(p.astype(np.int64).cumsum(0).cumsum(1), ((1, 0), (1, 0)))
        for p in planes
    ]

    def window_sums(integ, h, w):
        """In-rect foreground count for every rectangle position."""
        return (
            integ[h:, w:] - integ[:-h, w:] - integ[h:, :-w] + integ[:-h, :-w]
        )

    def best_origin(integ, h, w):
        sums = window_sums(integ, h, w)
        flat = int(np.argmax(sums))  # first max: smallest (top, left)
        top, left = divmod(flat, sums.shape[1])
        return top, left, int(sums[top, left])

    def mean_fraction(w):
        h = min(ny, max(1, round(w * ny / nx)))
        total = 0.0
        for integ in integrals:
            _, _, fg = best_origin(integ, h, w)
            total += fg / (w * h)
        return h, total / len(planes)

    best = None
    for w in range(1, nx + 1):
        h, frac = mean_fraction(w)
        dev = abs(frac - ratio)
        if best is None or dev < best[0]:
            best = (dev, w, h, frac)
    dev, rect_w, rect_h, achieved = best
    if dev > 0.25 * ratio:
        raise InfeasibleRatio(
            f"best rectangle gives mean fg fraction {achieved:.4f}, "
            f"target {ratio} (relative deviation {dev / ratio:.2f})"
        )
    masks = []
    for integ in integrals:
        top, left, _ = best_origin(integ, rect_h, rect_w)
        m = np.zeros((ny, nx), dtype=np.uint8)
        m[top:top + rect_h, left:left + rect_w] = 1
        masks.append(BinaryMask.from_array(m))
    return masks, rect_w, rect_h, achieved
