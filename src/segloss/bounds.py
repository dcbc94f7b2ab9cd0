"""Approximation bounds between similarity metrics: closed-form
calculators, exhaustive verification of the suprema over the discrete
pair space, and the executable blow-up witness for the weighted-Hamming
non-approximation result.

Every metric here is a function of the confusion counts (tp, fp, fn) and
the length d, so the exhaustive search runs over the O(d**3) count triples
instead of the 4**d mask pairs and gives the same suprema.  The witness
pair is rebuilt from the winning triple with the tie-break a lexicographic
scan over the pairs would apply (see ``brute_force_sup``).

Between the surrogate losses only the L1 pair keeps these bounds.  L1
soft Dice D and soft Jaccard J satisfy J = D/(2 - D) for every y and p,
as the discrete metrics do
(``test_soft_dice_l1_and_soft_jaccard_satisfy_the_dice_jaccard_identity``).
L2 soft Dice has no relative bound against soft Jaccard:
``soft_dice_l2_blowup_witness(m)`` gives D/J - 1 = sqrt(m)
(``test_soft_dice_l2_blowup_ratio_is_sqrt_m``).  A random search over
d <= 8 found |D - J| up to 0.456 for the L2 pair; no closed form for it
is known here.

Conventions for the empirical suprema: the single both-empty pair is
excluded entirely, and pairs where either similarity is exactly 0 are
additionally excluded from the relative-ratio supremum (the ratio is
vacuous or infinite there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, DTooLarge, EmptySet, NumericError, OutOfRange
from .masks import BinaryMask, ProbMap, threshold
from .metrics import MetricId, dice, dice_from_counts, jaccard, parse_metric_id, weighted_hamming_from_counts

MAX_BRUTE_FORCE_D = 200

# slack absorbing double rounding in the empirical-vs-closed-form checks
BOUND_SLACK = 1e-12


def dice_jaccard_bounds() -> tuple[float, float]:
    """Tight absolute and relative error between Dice and Jaccard.

    The absolute supremum of |x - x/(2-x)| over [0, 1] sits at
    x = 2 - sqrt(2) and equals 3 - 2*sqrt(2); the relative error is 1.
    """
    return 3.0 - 2.0 * math.sqrt(2.0), 1.0


def tversky_dice_bounds(alpha: float, beta: float) -> tuple[float, float]:
    """Tight absolute and relative error between the Tversky index and
    Dice: abs = max over the two weights w of |(sqrt(2w)-1)/(sqrt(2w)+1)|,
    rel = max(2a, 2b, 0.5/a, 0.5/b) - 1.  Both vanish iff a = b = 0.5 and
    grow as the weights deviate from it.  Both are finite for finite
    weights; a weight so extreme that either overflows (2w or 0.5/w past
    the float range) raises NumericError rather than return a NaN or an
    inf that reads as "no finite bound".
    """
    MetricId("tversky", (alpha, beta))  # the same range check as the token

    def one_sided(w: float) -> float:
        r = math.sqrt(2.0 * w)
        return abs((r - 1.0) / (r + 1.0))

    abs_err = max(one_sided(alpha), one_sided(beta))
    rel_err = max(2.0 * alpha, 2.0 * beta, 0.5 / alpha, 0.5 / beta) - 1.0
    if not (math.isfinite(abs_err) and math.isfinite(rel_err)):
        raise NumericError(f"the Tversky-Dice closed form of tversky:{alpha!r}:{beta!r} "
                           f"overflows the float range")
    return abs_err, rel_err


def _normalize(mid: MetricId) -> MetricId:
    """Fold the Tversky special points onto their named equivalents."""
    if mid.kind == "tversky":
        if mid.params == (0.5, 0.5):
            return MetricId("dice")
        if mid.params == (1.0, 1.0):
            return MetricId("jaccard")
    return mid


def closed_form_bounds(a: MetricId, b: MetricId) -> tuple[float | None, float | None]:
    """Closed-form (abs, rel) bound for a metric pair, when one is known.

    Dice vs any Hamming flavour has the trivial absolute bound 1 (both
    similarities live in [0, 1]) and no finite relative bound.
    Unknown pairs yield (None, None).
    """
    na, nb = _normalize(a), _normalize(b)
    if na == nb:
        return 0.0, 0.0
    kinds = {na.kind, nb.kind}
    if kinds == {"dice", "jaccard"}:
        return dice_jaccard_bounds()
    if kinds == {"dice", "tversky"}:
        tv = na if na.kind == "tversky" else nb
        return tversky_dice_bounds(*tv.params)
    if kinds in ({"dice", "hamming"}, {"dice", "whamming"}):
        return 1.0, math.inf
    return None, None


@dataclass(frozen=True)
class Witness:
    """A (y, ŷ) pair attaining an empirical supremum, with its counts."""

    y: BinaryMask
    yhat: BinaryMask
    tp: int
    fp: int
    fn: int
    value: float

    @property
    def n_true(self) -> int:
        return self.tp + self.fn

    @property
    def n_pred(self) -> int:
        return self.tp + self.fp


@dataclass(frozen=True)
class BoundReport:
    metric_a: str
    metric_b: str
    d: int
    closed_form_abs: float | None
    closed_form_rel: float | None  # math.inf when no finite bound exists
    empirical_abs: float
    empirical_rel: float
    witness: Witness               # attains empirical_abs; |va - vb| >= 0 is never excluded
    witness_rel: Witness | None    # attains empirical_rel


# marks triples left out of the relative supremum (a similarity is 0)
_EXCLUDED = -1.0


def _count_space(d: int):
    """Every (tp, fp, fn) with 0 < tp + fp + fn <= d, as float64 arrays.

    The (fp, fn) pairs are laid out by fp + fn ascending, so those with
    fp + fn <= m form a prefix; each tp takes the prefix for m = d - tp.
    Only the O(d**3) triangle is built, never a (d+1)**3 cube.
    """
    m = np.arange(d + 1)
    s = np.repeat(m, m + 1)
    fp_tri = np.arange(s.size) - s * (s + 1) // 2
    fn_tri = s - fp_tri
    lengths = ((m + 1) * (m + 2) // 2)[::-1]
    pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    tp = np.repeat(m, lengths)
    # the first triple is the both-empty one, (0, 0, 0)
    return tuple(a[1:].astype(np.float64) for a in (tp, fp_tri[pos], fn_tri[pos]))


def _witness(values, tp, fp, fn, d: int) -> Witness | None:
    """The canonical pair attaining max(values), or None when every triple
    is excluded.

    Ties break on max(|y|, |ŷ|) asc, then |y| asc, then the lexicographic
    index of the (y, ŷ) bit patterns asc.  For fixed counts the smallest
    index puts y's k = tp + fn ones in its last k positions, ŷ's tp ones in
    its last tp positions and ŷ's fp ones just before y's block; among such
    pairs with equal k the index grows with fp, then with tp.
    """
    vmax = float(values.max())
    if vmax == _EXCLUDED:
        return None
    tied = np.flatnonzero(values == vmax)
    t, f, n = tp[tied], fp[tied], fn[tied]
    best = tied[np.lexsort((t, f, t + n, np.maximum(t + f, t + n)))[0]]
    tp_i, fp_i, fn_i = int(tp[best]), int(fp[best]), int(fn[best])
    k = tp_i + fn_i
    y = np.zeros(d, dtype=bool)
    y[d - k:] = True
    yhat = np.zeros(d, dtype=bool)
    yhat[d - tp_i:] = True
    yhat[d - k - fp_i:d - k] = True
    dims = (d, 1, 1)
    return Witness(BinaryMask(dims, y), BinaryMask(dims, yhat), tp_i, fp_i, fn_i, vmax)


def parse_pair(metric_a, metric_b) -> tuple[MetricId, MetricId]:
    """The MetricIds of a ``brute_force_sup`` pair, given as tokens or
    MetricIds, after the checks that need no scan: each metric is a
    function of the confusion counts, and the pair's closed form, if it
    has one, lies in the float range."""
    mids = tuple(parse_metric_id(m) if isinstance(m, str) else m for m in (metric_a, metric_b))
    for mid in mids:
        mid.check_counts()
    closed_form_bounds(*mids)
    return mids


def brute_force_sup(metric_a, metric_b, d: int) -> BoundReport:
    """Exact suprema of |A - B| and max(A/B, B/A) - 1 over every ordered
    mask pair of length d.

    Every metric with a counts kernel (all but hausdorff and avd) depends
    on a pair only through its confusion counts (tp, fp, fn) and d, so the
    supremum over the 4**d pairs equals the maximum over the O(d**3) count
    triples with tp + fp + fn <= d, which the kernels evaluate in one
    vectorized pass.
    Each witness is the pair the full lexicographic scan would keep: value
    desc, max(|y|, |ŷ|) asc, |y| asc, pair index asc.  When a closed form
    exists the empirical value is checked against it (with 1e-12 slack for
    double rounding); a violation raises BoundViolation.
    """
    if d < 1:
        raise OutOfRange("d must be >= 1")
    if d > MAX_BRUTE_FORCE_D:
        raise DTooLarge(f"d = {d} exceeds the brute-force limit {MAX_BRUTE_FORCE_D}")
    mid_a, mid_b = parse_pair(metric_a, metric_b)

    tp, fp, fn = _count_space(d)
    va = np.asarray(mid_a.counts(tp, fp, fn, d), dtype=np.float64)
    vb = np.asarray(mid_b.counts(tp, fp, fn, d), dtype=np.float64)
    w_abs = _witness(np.abs(va - vb), tp, fp, fn, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(va / vb, vb / va) - 1.0
    w_rel = _witness(np.where((va > 0.0) & (vb > 0.0), ratio, _EXCLUDED), tp, fp, fn, d)
    emp_abs = w_abs.value
    emp_rel = w_rel.value if w_rel else 0.0

    cf_abs, cf_rel = closed_form_bounds(mid_a, mid_b)
    if cf_abs is not None and emp_abs > cf_abs + BOUND_SLACK:
        raise BoundViolation(
            f"empirical abs {emp_abs!r} exceeds closed form {cf_abs!r} for "
            f"{mid_a.label()} vs {mid_b.label()} at d={d}"
        )
    if cf_rel is not None and math.isfinite(cf_rel) and emp_rel > cf_rel + BOUND_SLACK:
        raise BoundViolation(
            f"empirical rel {emp_rel!r} exceeds closed form {cf_rel!r} for "
            f"{mid_a.label()} vs {mid_b.label()} at d={d}"
        )
    return BoundReport(
        mid_a.label(), mid_b.label(), d, cf_abs, cf_rel, emp_abs, emp_rel, w_abs, w_rel
    )


@dataclass(frozen=True)
class HammingBlowupWitness:
    """One member of the proof family |y \\ ŷ| = 0, |ŷ \\ y| = a*d,
    |y ∩ ŷ| = a^2*d, with d chosen so all counts are integers."""

    tp: int
    fp: int
    fn: int
    d: int
    gamma_star: float
    hamming_value: float   # H_gamma* , minimized over gamma
    dice_value: float
    ratio: float           # hamming_value / dice_value, grows like 1/(2a)


def hamming_blowup_witness(a: float) -> HammingBlowupWitness:
    """Instantiate the family showing Dice and best-gamma weighted Hamming
    do not relatively approximate each other: the H/D ratio exceeds any
    threshold as a -> 0.

    a must lie in (0, (sqrt(5)-1)/2) so the predicted mask fits in d
    pixels.  a is snapped to a nearby fraction p/q and d = q**2 makes the
    counts exact integers.
    """
    if not 0.0 < a < (math.sqrt(5.0) - 1.0) / 2.0:
        raise OutOfRange(f"a must lie in (0, (sqrt(5)-1)/2), got {a}")
    # imported here: fractions loads decimal and numbers, which no command needs
    from fractions import Fraction

    frac = Fraction(a).limit_denominator(10 ** 6)
    p, q = frac.numerator, frac.denominator
    d = q * q
    tp, fp, fn = p * p, p * q, 0
    # H_gamma is linear in gamma, so the minimum over [0, 1] sits at a
    # boundary; with fn = 0 that is gamma = 0
    h0 = float(weighted_hamming_from_counts(tp, fp, fn, d, 0.0))
    h1 = float(weighted_hamming_from_counts(tp, fp, fn, d, 1.0))
    gamma_star, h_star = (0.0, h0) if h0 <= h1 else (1.0, h1)
    d_val = float(dice_from_counts(tp, fp, fn, d))
    return HammingBlowupWitness(tp, fp, fn, d, gamma_star, h_star, d_val, h_star / d_val)


@dataclass(frozen=True)
class SoftDiceL2BlowupWitness:
    """One member of the family y = e_0, p = (p0, 1/sqrt(m) m times): one
    foreground pixel predicted near 0 and m background pixels."""

    m: int
    y: np.ndarray
    p: np.ndarray
    soft_dice: float      # 2 y.p / (|y| + p.p), one minus the soft_dice_l2 loss
    soft_jaccard: float   # y.p / (|y| + sum(p) - y.p), one minus the soft_jaccard loss
    ratio: float          # soft_dice / soft_jaccard - 1, which is sqrt(m)


def soft_dice_l2_blowup_witness(m: int) -> SoftDiceL2BlowupWitness:
    """Instantiate the family showing L2 soft Dice (p.p in the
    denominator) and soft Jaccard do not relatively approximate each
    other: the relative error D/J - 1 = 2(1 + sqrt(m))/(2 + p0**2) - 1
    tends to sqrt(m) as p0 -> 0, and equals it to rounding at this p0.

    The similarities are computed as the ratios themselves, not as one
    minus a loss near 1, so that values near p0 keep their digits.
    """
    if m < 1:
        raise OutOfRange(f"m must be >= 1, got {m}")
    y = np.zeros(m + 1)
    y[0] = 1.0
    p = np.full(m + 1, 1.0 / math.sqrt(m))
    p[0] = 2.0 ** -30  # p0: small enough that p0**2 vanishes beside the Dice denominator's 2
    inter = float(y @ p)
    dice_l2 = 2.0 * inter / float(y.sum() + p @ p)
    jac = inter / (float(y.sum() + p.sum()) - inter)
    return SoftDiceL2BlowupWitness(m, y, p, dice_l2, jac, dice_l2 / jac - 1.0)


@dataclass(frozen=True)
class RiskInequalityReport:
    pointwise_ok: bool
    jensen_ok: bool
    n: int
    mean_dice_loss: float
    mean_jaccard_loss: float


def risk_inequality_check(samples) -> RiskInequalityReport:
    """Check 1-D <= 1-J per sample and the Jensen direction
    mean(1-J) <= phi(mean(1-D)) with phi(x) = 2x/(1+x).

    Relaxed predictions are thresholded at 0.5 first.
    """
    pairs = list(samples)
    if not pairs:
        raise EmptySet("risk_inequality_check needs at least one sample")
    dl = np.empty(len(pairs))
    jl = np.empty(len(pairs))
    for i, (y, pred) in enumerate(pairs):
        if isinstance(pred, ProbMap):
            pred = threshold(pred, 0.5)
        dl[i] = 1.0 - dice(y, pred)
        jl[i] = 1.0 - jaccard(y, pred)
    pointwise_ok = bool(np.all(dl <= jl))
    mean_d = float(dl.mean())
    mean_j = float(jl.mean())
    # equality cases (e.g. a single sample) can differ by one ulp between the
    # two evaluation routes; the usual rounding slack absorbs that
    jensen_ok = mean_j <= 2.0 * mean_d / (1.0 + mean_d) + BOUND_SLACK
    return RiskInequalityReport(pointwise_ok, jensen_ok, len(pairs), mean_d, mean_j)
