"""Exact discrete similarity and distance metrics over binary mask pairs.

``METRICS`` is the one table of metric tokens.  Each row, keyed by token
head, names the parameters with their defaults and range rule, and gives a
vectorized ``(tp, fp, fn, d, *params)`` counts kernel or, for Hausdorff and
absolute volume difference, a mask-pair function.  ``Token`` is the one
token rule, which ``MetricId`` and ``losses.LossSpec`` share; the metric
and loss parsers share ``split_token`` and ``read_params``.  A mask pair is
scored only through a token: ``evaluate(tokens, y, yhat)``, or
``MetricId(head, params).counts(*confusion_counts(y, yhat), y.d)``.

Degenerate-case conventions (the formulas themselves are silent):

* both masks empty -> Dice = Jaccard = Tversky = F-beta = 1 (perfect
  agreement on nothing); exactly one side empty -> 0 (forced: zero
  numerator over a positive denominator);
* F-beta past b = 2^400 is its limit as b grows: tp/(tp+fn), 1.0 when
  all counts are zero, 0.0 when only fp is nonzero;
* weighted Hamming with |y| = 0 treats the fn term as 0, and the fp term
  as 0 when |y| = d (each term's numerator is also 0 there);
* Hausdorff is undefined when either side has no foreground, absolute
  volume difference when the ground truth has none.

The ``*_from_counts`` kernels all take ``(tp, fp, fn, d, *params)`` as
scalars or numpy arrays; the bound search evaluates them over every
(tp, fp, fn) triple of a length d at once.  Dice and Jaccard are the
Tversky index at alpha = beta = 0.5 and at alpha = beta = 1, and their
kernels call Tversky's with those weights.

Hausdorff reads each mask's foreground off an exact squared Euclidean
distance transform of the other mask, separated by axis as in Felzenszwalb
& Huttenlocher, "Distance Transforms of Sampled Functions", 2012: a running
scan along axis 0, then along each other axis a brute min-plus pass (every
output the minimum over its whole line, not FH's linear-time lower
envelope) in blocks of about 8 MB.  Both transforms run on the bounding box
of the two masks' union only, which holds every voxel either one reads.
It takes O(d' * (ny' + nx')) time for a box of d' voxels and sides ny', nx',
in numpy alone, and every squared distance is an exact integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, OutOfRange
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
    # inf/inf gives NaN quietly; callers check finiteness themselves
    with np.errstate(invalid="ignore", over="ignore"):
        out = np.asarray(num, dtype=np.float64) / np.where(zero, 1.0, den_arr)
    return np.where(zero, fallback, out)


def dice_from_counts(tp, fp, fn, d):
    """Dice 2tp / (2tp + fp + fn) = 2|y ∩ ŷ| / (|y| + |ŷ|), the Tversky
    index at 0.5/0.5."""
    return tversky_from_counts(tp, fp, fn, d, 0.5, 0.5)


def jaccard_from_counts(tp, fp, fn, d):
    """Jaccard tp / (tp + fp + fn) = |y ∩ ŷ| / |y ∪ ŷ|, the Tversky index
    at 1/1; J = D/(2 - D) with D the Dice score."""
    return tversky_from_counts(tp, fp, fn, d, 1.0, 1.0)


def hamming_from_counts(tp, fp, fn, d):
    """Hamming similarity 1 - (fp + fn)/d = 1 - |y △ ŷ|/d, the pixel
    accuracy up to rounding (see the accuracy row of ``METRICS``)."""
    return 1.0 - (np.asarray(fp, dtype=np.float64) + np.asarray(fn)) / d


def weighted_hamming_from_counts(tp, fp, fn, d, gamma):
    """1 - gamma*fn/|y| - (1-gamma)*fp/(d-|y|) with 0/0 terms read as 0,
    |y| = tp + fn; plain Hamming at gamma = |y|/d when 0 < |y| < d."""
    n_true = tp + fn
    fn_term = gamma * _safe_div(np.asarray(fn, dtype=np.float64), n_true, 0.0)
    fp_term = (1.0 - gamma) * _safe_div(np.asarray(fp, dtype=np.float64), d - np.asarray(n_true), 0.0)
    return 1.0 - fn_term - fp_term


def tversky_from_counts(tp, fp, fn, d, alpha, beta):
    """tp / (tp + alpha*fp + beta*fn); 1.0 when all three counts are zero.

    With alpha, beta > 0 and integer counts the denominator vanishes only
    when all three counts are zero, so its 1.0 fallback is the convention.
    A weight so large that the denominator overflows to inf gives the
    limit 0, without a warning.  Dice and Jaccard are this function at
    0.5/0.5 and 1/1: halving a denominator is exact, so for counts below
    2^53 they keep the bits of 2tp/(2tp + fp + fn) and tp/(tp + fp + fn).
    """
    tp = np.asarray(tp, dtype=np.float64)
    with np.errstate(over="ignore"):
        den = tp + alpha * np.asarray(fp) + beta * np.asarray(fn)
    return _safe_div(tp, den, 1.0)


def fbeta_from_counts(tp, fp, fn, d, b):
    """(1+b^2)tp / ((1+b^2)tp + b^2*fn + fp); 1.0 when all counts are zero.

    Past b = 2^400 the same ratio is taken divided through by b^2, so b^2
    never overflows and the value tends to its limit tp/(tp+fn), with 1.0
    when all counts are zero and 0.0 when only fp is nonzero.
    """
    tp = np.asarray(tp, dtype=np.float64)
    if b <= 2.0 ** 400:
        b2 = b * b
        return _safe_div((1.0 + b2) * tp, (1.0 + b2) * tp + b2 * np.asarray(fn) + np.asarray(fp), 1.0)
    inv = 1.0 / b / b  # 0 past b ~ 5e161, where the ratio is the limit itself
    return _safe_div((1.0 + inv) * tp, (1.0 + inv) * tp + np.asarray(fn) + inv * np.asarray(fp),
                     np.where(np.asarray(fp) > 0, 0.0, 1.0))


def _min_plus(g: np.ndarray, axis: int) -> np.ndarray:
    """out[..., i, ...] = min over j of g[..., j, ...] + (i - j)^2 along
    ``axis``, in row blocks whose broadcast temporary stays near 8 MB."""
    n = g.shape[axis]
    lines = np.moveaxis(g, axis, -1)
    rows = lines.reshape(-1, n)
    offsets = np.arange(n, dtype=np.float64)
    sq = (offsets[:, None] - offsets[None, :]) ** 2
    out = np.empty_like(rows)
    step = max(1, 1_000_000 // (n * n))
    block = np.empty((min(step, rows.shape[0]), n, n))
    for lo in range(0, rows.shape[0], step):
        part = rows[lo:lo + step]
        tmp = block[:part.shape[0]]
        # tmp[r, j, i] = g[j] + (i - j)^2; reducing over j is an
        # elementwise minimum of contiguous rows
        np.add(part[:, :, None], sq, out=tmp)
        np.min(tmp, axis=1, out=out[lo:lo + step])
    return np.moveaxis(out.reshape(lines.shape), -1, axis)


def _squared_distance_to(v: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from every voxel center of the
    (nz, ny, nx) bool array ``v`` to the nearest True voxel, which must
    exist.

    A forward and a backward running scan give the distance along axis 0,
    where a line with no True voxel reads ``far``, larger than any true
    squared distance; a min-plus pass per remaining axis then adds the
    others.  Every value is an integer-valued float64, so all are exact.
    """
    n0 = v.shape[0]
    idx = np.arange(n0)[:, None, None]
    last = np.maximum.accumulate(np.where(v, idx, -2 * n0), axis=0)
    nxt = np.minimum.accumulate(np.where(v, idx, 3 * n0)[::-1], axis=0)[::-1]
    d1 = np.minimum(idx - last, nxt - idx)
    far = sum(n * n for n in v.shape) + 1
    g = np.where(d1 < n0, d1 * d1, far).astype(np.float64)
    for axis in (1, 2):
        g = _min_plus(g, axis)
    return g


def hausdorff_distance(y: BinaryMask, yhat: BinaryMask) -> MetricValue:
    """Exact symmetric Hausdorff distance between the full foreground
    point sets, Euclidean on pixel centers with unit spacing.

    Each directed distance is the largest value, over one mask's
    foreground, of an exact squared distance transform of the other,
    separated by axis with a brute min-plus pass per line: O(d * (ny + nx))
    time, in blocks of about 8 MB, instead of one distance per foreground
    pair.  Both masks are first cropped to the bounding box of their
    union: every foreground voxel of either lies in it, and so the nearest
    one to any of them, so the squared distances read are the same
    integers and d, ny, nx are the box's.
    """
    check_dims(y, yhat)
    u = y.to_array()
    v = yhat.to_array()
    if not u.any() or not v.any():
        return MetricValue("hausdorff", float("nan"), defined=False)
    both = u | v
    box = []
    for axis in range(3):
        hit = np.flatnonzero(both.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(hit[0], hit[-1] + 1))
    u, v = u[tuple(box)], v[tuple(box)]
    worst = max(_squared_distance_to(v)[u].max(), _squared_distance_to(u)[v].max())
    return MetricValue("hausdorff", float(np.sqrt(worst)))


def absolute_volume_difference(y: BinaryMask, yhat: BinaryMask) -> MetricValue:
    """100 * | |ŷ| - |y| | / |y|, in percent of the ground-truth volume."""
    check_dims(y, yhat)
    ny = y.count()
    if ny == 0:
        return MetricValue("avd", float("nan"), defined=False)
    return MetricValue("avd", 100.0 * abs(yhat.count() - ny) / ny)


@dataclass(frozen=True)
class MetricKind:
    """One row of the metric table.  A token names all ``params`` or, when
    the row has ``defaults``, none of them; ``valid`` is the range rule."""

    params: tuple[str, ...] = ()
    defaults: tuple[float, ...] = ()
    counts: Callable | None = None   # a *_from_counts kernel
    masks: Callable | None = None    # (y, yhat) -> MetricValue, if no counts
    valid: Callable = lambda *params: True
    rule: str = ""


METRICS: dict[str, MetricKind] = {
    "dice": MetricKind(counts=dice_from_counts),
    "jaccard": MetricKind(counts=jaccard_from_counts),
    "hamming": MetricKind(counts=hamming_from_counts),
    # (tp + tn)/d, which can round differently from hamming's 1 - (fp + fn)/d
    "accuracy": MetricKind(counts=lambda tp, fp, fn, d: (d - fp - fn) / d),
    "whamming": MetricKind(("g",), (0.5,), weighted_hamming_from_counts,
                           valid=lambda g: 0.0 <= g <= 1.0, rule="gamma must lie in [0, 1]"),
    "tversky": MetricKind(("a", "b"), (), tversky_from_counts, valid=lambda a, b: a > 0 and b > 0,
                          rule="tversky weights must be > 0"),
    "fbeta": MetricKind(("b",), (), fbeta_from_counts, valid=lambda b: b > 0, rule="fbeta requires b > 0"),
    # looked up at call time, so a replaced module attribute takes effect
    "hausdorff": MetricKind(masks=lambda y, yhat: hausdorff_distance(y, yhat)),
    "avd": MetricKind(masks=absolute_volume_difference),
}


def token_label(head: str, params) -> str:
    """A token head with each parameter in :g form unless that loses
    digits; then in its shortest round-trip form."""
    return head + "".join(f":{p:g}" if float(f"{p:g}") == p else f":{float(p)!r}" for p in params)


@dataclass(frozen=True)
class Token:
    """A token head with its parameters, e.g. tversky:0.3:0.7, checked on
    construction against the subclass's ``table``, ``grammar`` and ``range_row``."""

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self):
        row = self.table.get(self.kind)
        if row is None or len(self.params) != len(row.params):
            raise OutOfRange(f"{self.label()} is not one of {self.grammar}")
        if not all(math.isfinite(p) for p in self.params):
            raise OutOfRange(f"{self.kind} parameters must be finite, got {self.params}")
        limits = self.range_row(row)
        if not limits.valid(*self.params):
            raise OutOfRange(f"{limits.rule}, got {self.label()}")

    range_row = staticmethod(lambda row: row)  # the row whose valid and rule bound the parameters

    def label(self) -> str:
        """The token, as ``token_label`` writes it."""
        return token_label(self.kind, self.params)


def _grammar(heads) -> str:
    """The token forms of the given table rows, for help texts."""
    forms, notes = [], ""
    for h in heads:
        spec = "".join(f":<{p}>" for p in METRICS[h].params)
        if METRICS[h].defaults:
            spec = f"[{spec}]"
            notes += f"; bare {h} means {token_label(h, METRICS[h].defaults)}"
        forms.append(h + spec)
    return " | ".join(forms) + notes


METRIC_GRAMMAR = _grammar(METRICS)
COUNTS_METRIC_GRAMMAR = _grammar(h for h, k in METRICS.items() if k.counts is not None)


class MetricId(Token):
    """A metric token, checked against ``METRICS``."""

    table = METRICS
    grammar = METRIC_GRAMMAR

    def check_counts(self) -> None:
        """Raise OutOfRange unless the metric is a function of the confusion counts."""
        if METRICS[self.kind].counts is None:
            raise OutOfRange(f"{self.kind} is not a function of the confusion counts")

    def counts(self, tp, fp, fn, d):
        """The metric as a function of the confusion counts and d,
        elementwise over arrays."""
        self.check_counts()
        values = METRICS[self.kind].counts(tp, fp, fn, d, *self.params)
        if not np.isfinite(values).all():
            raise NumericError(f"{self.label()} gave a non-finite value")
        return values


def split_token(token: str, what: str, table, aliases) -> tuple[str, list[str]]:
    """Split ``head:p1:...`` into a ``table`` head, after ``aliases``, and its parameter strings."""
    head, *parts = token.strip().split(":")
    head = aliases.get(head, head)
    if head not in table:
        raise OutOfRange(f"unknown {what} token {token!r}")
    return head, parts


def read_params(parts, what: str, token: str) -> tuple[float, ...]:
    """The parameter strings of a token as floats."""
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise OutOfRange(f"bad numeric parameter in {what} token {token!r}") from exc


def parse_metric_id(token: str) -> MetricId:
    """Parse one metric token (see ``METRIC_GRAMMAR``); a bare head takes its ``defaults``."""
    head, parts = split_token(token, "metric", METRICS, {})
    return MetricId(head, read_params(parts, "metric", token) if parts else METRICS[head].defaults)


def parse_metric_ids(tokens) -> list[MetricId]:
    """Parse metric tokens, in order; blank tokens are skipped, and at
    least one must remain."""
    mids = [parse_metric_id(t) for t in tokens if t.strip()]
    if not mids:
        raise OutOfRange("no metrics requested")
    return mids


def evaluate(tokens, y: BinaryMask, yhat: BinaryMask) -> list[MetricValue]:
    """Score a mask pair on each metric token, in order; blank tokens are
    skipped.  Every token is parsed before any metric is computed."""
    mids = parse_metric_ids(tokens)
    counts = (*confusion_counts(y, yhat), y.d)
    out = []
    for mid in mids:
        masks = METRICS[mid.kind].masks
        if masks is not None:
            out.append(masks(y, yhat))
        else:
            out.append(MetricValue(mid.label(), float(mid.counts(*counts))))
    return out
