"""Desk-scale empirical harness: synthetic blob datasets, a linear
per-pixel classifier trained by plain gradient descent under any LossSpec,
and the experiment protocols (loss comparison, object-size stratification,
fg/bg output masking).

Every operation is a pure function of its inputs and seed; reruns agree
bit for bit.  Every arm of a fold trains from one seed, derived by hashing
(global seed, fold), and from one CE warm-up run once per fold, so the arms
differ only in their loss: an arm's result depends neither on its position
nor on the other arms.  The runs execute one after another in one process.
Training computes a loss value only on its validation images, whose curve
drives early stopping, the learning-rate cuts and the kept weights; no
train-set loss curve is computed.  Evaluation only ever uses the discrete
metrics at threshold 0.5; the training loss never contaminates it.

Features are stored without copies of what every image shares.  Each
image keeps its two pixel rows (raw intensity, 3x3 box mean) as one
C-contiguous (2, d) array; the three coordinate rows (x/nx, y/ny, 1) are
the same for every image of a dataset, so ``generate_dataset`` builds one
(3, d) array that all its samples reference.  ``Sample.features`` puts the
two together as the (d, N_FEATURES) values.  Under output masks each image
becomes a Sample of its d' in-mask pixels, with its own copies of the rows
and a flat (d', 1, 1) label.  Each fit and each scoring pass runs its
samples through one C-contiguous (N_FEATURES, d') step matrix: a step
copies in the sample's pixel rows, and its coordinate rows only when they
are not the ones already loaded, so every ``w @ X`` and ``X @ v`` sees the
same contiguous (N_FEATURES, d') layout and gives the same bits as a
product over one stacked array.  The labels are each mask's own bool
data, never a float copy: the loss kernels take 0/1 labels of any dtype.

Precision: the feature rows are stored as float32 (FEATURE_DTYPE), and
every product, sigmoid and loss kernel of a fit or a scoring pass runs in
float32, the single precision CNN segmentation training uses.  The
weights, the batch gradient sum, the update and the validation-loss mean
stay float64, the master copy of mixed-precision training, so small
updates are not rounded away.  The reports read only predictions
thresholded at p > 0.5, which need no more than float32 (a pixel whose
logit lies within float32 rounding of 0 could flip); float32 rows halve
the dataset's memory and speed up every pass.  Nothing else picks the
precision: the step matrix is FEATURE_DTYPE and the kernels follow p's.

The sigmoid's exp(-s) overflows to inf, the right p = 0, below
s = -88.72 in float32 (-709.78 in float64); ``np.errstate(over="ignore")``
around each scoring pass silences that.  Each fit runs under
``np.errstate(all="ignore")``: a non-finite step ends in non-finite
weights or a non-finite validation loss, both of which raise
``NonFiniteLoss``, so a numpy warning would only repeat that error.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
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
N_PIXEL_ROWS = 2  # the rows that differ between images: raw and 3x3 box mean
FEATURE_DTYPE = np.float32  # of the stored feature rows; fits and scores follow it

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
    """Stable 64-bit seed from integer components.  While the parts fit in
    numpy's four-word SeedSequence pool, trailing zero parts are ignored:
    derive_seed(s, 17, 0) == derive_seed(s, 17) and derive_seed(s, 0) ==
    derive_seed(s), so two streams must differ in more than trailing zeros."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass(frozen=True)
class SyntheticConfig:
    """The synthetic dataset; each config key is the field of the same name."""

    n_images: int = 200
    nx: int = 64
    ny: int = 64
    radius_min: float = 3.0
    radius_max: float = 9.0
    fg_prior: float = 0.02
    noise_sigma: float = 0.3
    data_seed: int = 7
    # per-image multiplicative intensity gain jitter: no single global
    # intensity threshold matches every image's label boundary, so pixel-wise
    # calibration alone cannot solve the task; 0 makes noise-free data
    # linearly separable on the raw intensity feature
    gain_jitter: float = 0.6

    def __post_init__(self):
        if self.n_images < 1:
            raise OutOfRange("n_images must be >= 1")
        if self.nx < 4 or self.ny < 4:
            raise OutOfRange("nx and ny must be >= 4")
        # each check is written so that NaN fails it
        if not 0 < self.radius_min <= self.radius_max:
            raise OutOfRange("invalid radius range")
        if 2 * self.radius_max + 4 > min(self.nx, self.ny):
            raise InfeasibleConfig("2 * radius_max + 4 must be <= nx and ny")
        if not 0.0 < self.fg_prior < 1.0:
            raise OutOfRange("fg_prior must lie in (0, 1)")
        if not 0 <= self.noise_sigma < math.inf:
            raise OutOfRange("noise_sigma must be finite and >= 0")
        if not 0.0 <= self.gain_jitter < 1.0:
            raise OutOfRange("gain_jitter must lie in [0, 1)")
        if self.data_seed < 0:
            raise OutOfRange("data_seed must be >= 0")


@dataclass(frozen=True, eq=False)
class Sample:
    # float32 (FEATURE_DTYPE) rows, which fits and scores run on against
    # float64 weights: the reports need no more (module docstring)
    pixels: np.ndarray  # (N_PIXEL_ROWS, d), C-contiguous
    coords: np.ndarray  # (N_FEATURES - N_PIXEL_ROWS, d), shared by a dataset's samples
    label: BinaryMask

    @property
    def features(self) -> np.ndarray:
        """The (d, N_FEATURES) feature values, built on each access."""
        return np.concatenate([self.pixels, self.coords]).T


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
    nx, ny, rmin, rmax = cfg.nx, cfg.ny, cfg.radius_min, cfg.radius_max
    d_img = nx * ny
    target = cfg.fg_prior * d_img
    area_lo = math.pi * rmin * rmin
    area_hi = 3.0 * math.pi * rmax * rmax
    if area_lo > 1.2 * target or area_hi < 0.8 * target:
        raise InfeasibleConfig(
            f"target foreground area {target:.1f}px not reachable with radii "
            f"[{rmin}, {rmax}] and 1-3 blobs"
        )

    rng = np.random.default_rng(np.random.SeedSequence(cfg.data_seed))
    ys = np.arange(ny, dtype=np.float64)[:, None]
    xs = np.arange(nx, dtype=np.float64)[None, :]
    coords = np.array([np.broadcast_to(xs / (nx - 1), (ny, nx)).ravel(),
                       np.broadcast_to(ys / (ny - 1), (ny, nx)).ravel(), np.ones(d_img)], dtype=FEATURE_DTYPE)

    samples = []
    for _ in range(cfg.n_images):
        t_img = float(np.clip(target * rng.uniform(0.7, 1.3), area_lo, area_hi))
        k_lo = max(1, math.ceil(t_img / (math.pi * rmax * rmax)))
        k_hi = 3 if not area_lo or t_img / area_lo >= 3 else max(1, math.floor(t_img / area_lo))
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
        # a huge noise_sigma overflows, in float64 or in the cast to
        # FEATURE_DTYPE: one error, no numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.noise_sigma > 0:
                img = img + cfg.noise_sigma * rng.standard_normal((ny, nx))
            pixels = np.array([img.ravel(), _box3(img).ravel()], dtype=FEATURE_DTYPE)
        if not np.all(np.isfinite(pixels)):
            raise InfeasibleConfig(f"noise_sigma = {cfg.noise_sigma:g} overflows the image features")
        samples.append(Sample(pixels, coords, BinaryMask.from_array(label)))
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


def _probabilities(w_neg: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sigmoid(w @ X) from w_neg = -w, as 1/(1+exp(w_neg @ X)) in place,
    in X's dtype: w_neg is rounded to it, so float32 features give float32
    products and p while the weights stay float64 (module docstring).
    Negation is exact, so exp sees -(w @ X).  This one-branch form gives the
    bits of the two-branch exp(s)/(1+exp(s)) for s >= 0 and is a few ulp off
    it below, where both give p <= 0.5, so the scores' p > 0.5 is unchanged.
    Callers silence exp's overflow (module docstring)."""
    e = w_neg.astype(X.dtype, copy=False) @ X
    np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


class _StepMatrix:
    """One C-contiguous (N_FEATURES, d') matrix each sample is copied into
    before its products: the pixel rows on every load, the coordinate rows
    only when they are not the ones loaded last, in FEATURE_DTYPE."""

    def __init__(self, samples):
        self._buf = np.empty(N_FEATURES * max((s.pixels.shape[1] for s in samples), default=0), FEATURE_DTYPE)
        self._coords = None
        self._X = None

    def load(self, s: Sample) -> np.ndarray:
        if s.coords is not self._coords:
            d = s.coords.shape[1]
            self._X = self._buf[:N_FEATURES * d].reshape(N_FEATURES, d)
            self._X[N_PIXEL_ROWS:] = s.coords
            self._coords = s.coords
        self._X[:N_PIXEL_ROWS] = s.pixels
        return self._X


def _masked(data: SampleSet, output_masks) -> SampleSet:
    """data itself without masks; otherwise one Sample per image holding
    C-contiguous copies of its in-mask pixel and coordinate rows, labelled
    by its in-mask bool labels as a flat (d', 1, 1) mask."""
    if output_masks is None:
        return data
    masks = list(output_masks)
    if len(masks) != len(data):
        raise OutOfRange("need one output mask per image")
    out = []
    for i, (m, s) in enumerate(zip(masks, data)):
        if m.dims != s.label.dims:
            raise OutOfRange("output mask dims do not match the data")
        sel, d = m.data, m.count()
        if d == 0:
            raise OutOfRange(f"output mask of image {i} selects no pixels")
        out.append(Sample(np.ascontiguousarray(s.pixels[:, sel]), np.ascontiguousarray(s.coords[:, sel]),
                          BinaryMask((d, 1, 1), s.label.data[sel])))
    return SampleSet(out)


def _mean_loss(samples, steps: _StepMatrix, w: np.ndarray, spec: LossSpec) -> float:
    w_neg = -w
    total = 0.0
    for s in samples:
        total += loss_value(spec, s.label.data, _probabilities(w_neg, steps.load(s)))
    return total / len(samples)


def _run_epoch(samples, steps: _StepMatrix, w: np.ndarray, spec: LossSpec, lr: float, batch_size: int,
               rng) -> np.ndarray:
    order = rng.permutation(len(samples))
    for lo in range(0, order.size, batch_size):
        batch = order[lo:lo + batch_size]
        g = np.zeros_like(w)
        w_neg = -w
        for idx in batch:
            s = samples[idx]
            X = steps.load(s)
            g += X @ loss_logit_gradient(spec, s.label.data, _probabilities(w_neg, X))
        w = w - lr * (g / batch.size)
    if not np.all(np.isfinite(w)):
        raise NonFiniteLoss(f"training diverged to non-finite weights (loss={spec.label()}, lr={lr})")
    return w


def _split(data: SampleSet):
    if not data.samples:
        raise EmptySet("train needs at least one image")
    k = len(data) - min(int(round(VAL_FRACTION * len(data))), len(data) - 1)
    return data.samples[:k], data.samples[k:] or data.samples, _StepMatrix(data)


@np.errstate(all="ignore")
def warm_up(data: SampleSet, cfg: TrainConfig):
    """train's CE warm-up from cfg.seed: (weights, generator state) after it."""
    train_samples, _, steps = _split(data)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    w = rng.normal(0.0, 0.5, N_FEATURES)
    for _ in range(cfg.pretrain_epochs_ce):
        w = _run_epoch(train_samples, steps, w, LossSpec("ce"), cfg.learning_rate, cfg.batch_size, rng)
    return w, rng.bit_generator.state


@np.errstate(all="ignore")
def train(data: SampleSet, cfg: TrainConfig, start=None) -> TrainResult:
    """Gradient descent on the mean per-image loss of a linear per-pixel
    scorer (5 features -> logit -> sigmoid), over every pixel of each
    sample; the masked fg/bg runs fit through it too, on samples that hold
    only their in-mask pixels; the last 20% of the images validate.

    Continues from a copy of start, a warm_up(data, cfg) result (run here when
    start is None, with the same bits), under cfg.loss with a fresh optimizer
    state.  The learning rate is divided by 5 on a validation-loss plateau;
    training stops when the patience is exhausted.  Returns the weights with
    the best validation loss seen in the main phase.
    """
    train_samples, val_samples, steps = _split(data)
    w, state = warm_up(data, cfg) if start is None else start
    rng = np.random.default_rng(0)  # seeded only to skip an OS entropy draw
    rng.bit_generator.state = state

    lr = cfg.learning_rate
    best_val = _mean_loss(val_samples, steps, w, cfg.loss)
    if not math.isfinite(best_val):
        raise NonFiniteLoss(f"initial validation loss is {best_val}")
    best_w = w.copy()
    stall = 0
    plateau_every = max(1, cfg.early_stop_patience // 2)
    val_hist: list[float] = []
    lr_cuts: list[int] = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        w = _run_epoch(train_samples, steps, w, cfg.loss, lr, cfg.batch_size, rng)
        vl = _mean_loss(val_samples, steps, w, cfg.loss)
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


@np.errstate(over="ignore")
def score_images(data: SampleSet, idx, w: np.ndarray) -> dict[str, np.ndarray]:
    """Discrete scores at threshold 0.5 of the images idx of data, one
    array per SCORE_COLUMNS entry."""
    subset = data.subset(idx)
    steps = _StepMatrix(subset)
    w_neg = -w
    out = {c: np.empty(len(subset)) for c in SCORE_COLUMNS}
    for i, s in enumerate(subset):
        truth = s.label.data
        counts = (*overlap_counts(truth, _probabilities(w_neg, steps.load(s)) > 0.5), truth.size)
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


def check_comparison(losses, folds: int, n_images: int) -> list[str]:
    """run_loss_comparison's checks of its arms, folds and image count, for
    a caller to run before training; returns the arm labels."""
    labels = [spec.label() for spec in losses]
    if len(set(labels)) < len(labels):
        raise OutOfRange(f"loss arms must have distinct labels, got {', '.join(labels)}")
    if folds < 2:
        raise OutOfRange("folds must be >= 2")
    if n_images < folds:
        raise TooFewSamples(f"need at least {folds} images, got {n_images}")
    return labels


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

    Fold of image i is i % folds.  In fold f every arm trains on the other
    folds' images from one warm_up seeded derive_seed(seed, f), and is
    scored on fold f's images, so each image is scored exactly once per
    arm.  Given output_masks (one BinaryMask per image of data), both
    training and scoring see only in-mask pixels; the images are masked
    once for the whole experiment.  Arms must have distinct labels, which
    name their report files.  The jobs run one after another; threads is
    accepted for compatibility and ignored.
    """
    labels = check_comparison(losses, folds, len(data))
    n = len(data)
    base = base_cfg if base_cfg is not None else TrainConfig(loss=LossSpec("ce"))
    pool = _masked(data, output_masks)

    fold_of = np.arange(n) % folds
    fg_sizes = data.fg_counts()
    arms = [
        ArmScores(name, spec, {c: np.full(n, np.nan) for c in SCORE_COLUMNS})
        for name, spec in zip(labels, losses)
    ]

    for f in range(folds):
        test_idx = np.flatnonzero(fold_of == f)
        train_pool = pool.subset(np.flatnonzero(fold_of != f))
        cfg = replace(base, seed=derive_seed(seed, f))
        start = warm_up(train_pool, cfg)
        for arm in arms:
            res = train(train_pool, replace(cfg, loss=arm.spec), start)
            for c, values in score_images(pool, test_idx, res.weights).items():
                arm.scores[c][test_idx] = values
    return ExperimentResult(arms, fold_of, fg_sizes)


class EmptyBinWarning(UserWarning):
    """A stratification bin received no images and was collapsed away."""


@dataclass
class SizeStrata:
    bin_counts: list[int]
    mean_size: list[float]
    mean_dice: dict[str, list[float]]


def _quantile_edges(sizes: np.ndarray, n_bins: int) -> np.ndarray:
    """np.quantile(sizes, [k / n_bins for k in range(1, n_bins)]) bit for
    bit, by its default linear rule, without the np.unique inside it that
    imports numpy.ma: the sorted values at (n - 1) q, each interpolated
    toward the next one from the nearer side.

    The one-per-image sizes are sorted in Python: the first np.sort of an
    int64 array faults in about 0.26 MB of numpy's SIMD sort code, which
    nothing else in a train command uses.  Python's int/float arithmetic
    rounds as numpy's does, so the edges are the same bits."""
    ordered = sorted(sizes.tolist())
    last = len(ordered) - 1
    edges = []
    for k in range(1, n_bins):
        pos = last * (k / n_bins)
        lo = math.floor(pos)
        t = pos - lo
        below, above = ordered[lo], ordered[min(lo + 1, last)]
        step = above - below
        edges.append(above - step * (1 - t) if t >= 0.5 else below + step * t)
    return np.array(edges, dtype=np.float64)


def _size_bins(sizes: np.ndarray, n_bins: int) -> np.ndarray:
    """Each image's size bin, np.searchsorted(_quantile_edges(sizes,
    n_bins), sizes, side="right"), by bisect_right without the numpy
    search code a train command would load only for this."""
    edges = _quantile_edges(sizes, n_bins).tolist()
    return np.array([bisect_right(edges, s) for s in sizes.tolist()])


def stratify_by_size(result: ExperimentResult, n_bins: int = 10) -> SizeStrata:
    """Mean Dice per loss within size deciles: bin boundaries sit at the
    empirical percentiles of the ground-truth foreground counts, so
    same-size images always share a bin.

    Bins left empty by ties or by having fewer images than bins are
    collapsed into their neighbours with a warning; ``n_bins`` must be >= 1.
    """
    if n_bins < 1:
        raise OutOfRange(f"n_bins must be >= 1, got {n_bins}")
    sizes = result.fg_sizes
    if sizes.size == 0:
        raise EmptySet("empty experiment result")
    assignment = _size_bins(sizes, n_bins)
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


def build_fgbg_masks(data: SampleSet, ratios):
    """Per-image rectangles of the image's aspect ratio, positioned to
    contain as much of the object as possible (all of it whenever it
    fits), with one size shared by the whole dataset chosen so the mean
    in-rectangle foreground fraction matches the requested ratio. One pass
    over the widths finds each width's mean fraction and each image's best
    origin once; each ratio then takes its closest width.

    Returns one (masks, rect_w, rect_h, achieved_fraction) per ratio, in
    order: [] for no ratios, without looking at the data.
    """
    if not ratios:
        return []
    if not all(0.0 < ratio <= 1.0 for ratio in ratios):
        raise OutOfRange("ratio must lie in (0, 1]")
    nx, ny, nz = data.dims
    if nz != 1:
        raise OutOfRange("fg/bg masking is defined for 2D data")
    integrals = [np.pad(s.label.to_array()[0].cumsum(0).cumsum(1), ((1, 0), (1, 0)))
                 for s in data]
    scans = []  # (mean fraction, w, h, per-image origins) per width
    for w in range(1, nx + 1):
        h = min(ny, max(1, round(w * ny / nx)))
        origins, total = [], 0.0
        for integ in integrals:
            # in-rect foreground count at every rectangle position
            fg = integ[h:, w:] - integ[:-h, w:] - integ[h:, :-w] + integ[:-h, :-w]
            flat = int(np.argmax(fg))  # first max: smallest (top, left)
            origins.append(divmod(flat, fg.shape[1]))
            total += int(fg.flat[flat]) / (w * h)
        scans.append((total / len(integrals), w, h, origins))
    results = []
    for ratio in ratios:
        # min keeps the first, narrowest, of equally close widths
        achieved, rect_w, rect_h, origins = min(scans, key=lambda scan: abs(scan[0] - ratio))
        dev = abs(achieved - ratio)
        if dev > 0.25 * ratio:
            raise InfeasibleRatio(
                f"best rectangle gives mean fg fraction {achieved:.4f}, "
                f"target {ratio} (relative deviation {dev / ratio:.3g})"
            )
        masks = []
        for top, left in origins:
            m = np.zeros((ny, nx), dtype=bool)
            m[top:top + rect_h, left:left + rect_w] = True
            masks.append(BinaryMask.from_array(m))
        results.append((masks, rect_w, rect_h, achieved))
    return results
