"""Shared helpers for the test suite: independent set-based oracles, the
full 4**d mask-pair enumeration, the pairwise Hausdorff scan, the one- and
two-branch sigmoids, the np.clip clamp, the written-out wCE and soft-Dice
kernels and the gradient-check harness.  Apart from the 4**d bound scan, which checks the
count-space reduction and so evaluates the library's own kernels, nothing
here uses the library's count/metric kernels, so tests check two routes."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from segloss.bounds import BoundReport, Witness, closed_form_bounds, parse_metric_id
from segloss.errors import DTooLarge, OutOfRange
from segloss.losses import CLAMP_EPS, eval_loss_arrays, finite_diff_gradient
from segloss.masks import BinaryMask, ProbMap

# 4**d ordered pairs must stay enumerable
MAX_ENUM_D = 14


def set_counts(y_bits, yhat_bits):
    """Confusion counts via literal set operations on pixel indices."""
    ys = {i for i, v in enumerate(y_bits) if v}
    hs = {i for i, v in enumerate(yhat_bits) if v}
    d = len(y_bits)
    tp = len(ys & hs)
    fp = len(hs - ys)
    fn = len(ys - hs)
    return tp, fp, fn, d - tp - fp - fn


def frac_dice(tp, fp, fn):
    den = 2 * tp + fp + fn
    return Fraction(1) if den == 0 else Fraction(2 * tp, den)


def frac_jaccard(tp, fp, fn):
    den = tp + fp + fn
    return Fraction(1) if den == 0 else Fraction(tp, den)


def frac_hamming(fp, fn, d):
    return 1 - Fraction(fp + fn, d)


def frac_weighted_hamming(fp, fn, n_true, d, gamma: Fraction):
    fn_term = gamma * Fraction(fn, n_true) if n_true else Fraction(0)
    fp_term = (1 - gamma) * Fraction(fp, d - n_true) if n_true != d else Fraction(0)
    return 1 - fn_term - fp_term


def frac_tversky(tp, fp, fn, alpha: Fraction, beta: Fraction):
    if tp == fp == fn == 0:
        return Fraction(1)
    return Fraction(tp) / (tp + alpha * fp + beta * fn)


def mask_of(bits) -> BinaryMask:
    bits = list(bits)
    return BinaryMask((len(bits), 1, 1), np.array(bits, dtype=np.uint8))


def prob_of(values) -> ProbMap:
    values = list(values)
    return ProbMap((len(values), 1, 1), np.array(values, dtype=np.float64))


def all_masks(d):
    """All 2**d binary masks of length d, lexicographic pattern order."""
    return [mask_of([(i >> (d - 1 - j)) & 1 for j in range(d)]) for i in range(1 << d)]


def max_rel_grad_error(spec, y: BinaryMask, p: ProbMap, h: float = 1e-6) -> float:
    """Worst per-coordinate deviation between the analytic gradient and
    central finite differences, relative with a unit floor."""
    analytic = eval_loss_arrays(spec, y.data, p.data)[1]
    fd = finite_diff_gradient(spec, y, p, h)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def random_instance(rng, d, p_lo=0.05, p_hi=0.95):
    """A random (mask, probabilities) pair with p away from 0/1."""
    y = mask_of(rng.integers(0, 2, size=d))
    p = prob_of(rng.uniform(p_lo, p_hi, size=d))
    return y, p


def lovasz_has_near_ties(y: BinaryMask, p: ProbMap, tol: float = 1e-4) -> bool:
    """Whether two per-pixel errors are within tol (a sort-order kink)."""
    m = np.where(y.data > 0, 1.0 - p.data, p.data)
    ms = np.sort(m)
    return bool(ms.size > 1 and np.min(np.diff(ms)) < tol)


def bit_matrix(d: int, dtype=np.uint8) -> np.ndarray:
    """(2**d, d) matrix whose row i is the bit pattern of i, data[0] most
    significant, so ascending row index equals lexicographic pattern order."""
    idx = np.arange(1 << d, dtype=np.uint32)
    shifts = np.arange(d - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(dtype)


def enumerate_mask_pairs(d: int) -> Iterator[tuple[BinaryMask, BinaryMask]]:
    """Yield all 4**d ordered (y, ŷ) pairs of length-d masks exactly once,
    in lexicographic order of the (y, ŷ) bit patterns."""
    if d < 1:
        raise OutOfRange("d must be >= 1")
    if d > MAX_ENUM_D:
        raise DTooLarge(f"d = {d} exceeds the enumeration limit {MAX_ENUM_D}")
    dims = (d, 1, 1)
    rows = bit_matrix(d)
    masks = [BinaryMask(dims, rows[i]) for i in range(1 << d)]
    for y in masks:
        for yhat in masks:
            yield y, yhat


# --- reference bound scan over all 4**d mask pairs ---------------------------
# Candidates carry the tie-break key (value desc, max(|y|,|ŷ|) asc, |y| asc,
# pair index asc) so chunks reduce in any order to the same winner.

_EXCLUDED = -1.0


def _chunk_best(values, py_col, ph_row, ylo, n, d):
    vmax = float(values.max())
    if vmax == _EXCLUDED:
        return None
    tied = values == vmax
    sentinel = d + 1
    maxsize = np.maximum(py_col, ph_row)
    ms = int(np.where(tied, maxsize, sentinel).min())
    tied &= maxsize == ms
    ptrue = int(np.where(tied, np.broadcast_to(py_col, tied.shape), sentinel).min())
    tied &= py_col == ptrue
    flat = int(np.argmax(tied))
    row, col = divmod(flat, n)
    return vmax, ms, ptrue, (ylo + row) * n + col, ylo + row, col


def _better(a, b):
    """Merge two chunk candidates; None loses."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return a if a[1:4] < b[1:4] else b


def _scan_chunk(M, pop, ylo, yhi, mid_a, mid_b, d):
    n = M.shape[0]
    tp = M[ylo:yhi] @ M.T
    py = pop[ylo:yhi][:, None]
    ph = pop[None, :]
    fp = ph - tp
    fn = py - tp
    va = np.asarray(mid_a.counts(tp, fp, fn, d), dtype=np.float64)
    vb = np.asarray(mid_b.counts(tp, fp, fn, d), dtype=np.float64)
    both_empty = (py + ph) == 0

    absdiff = np.abs(va - vb)
    absdiff[np.broadcast_to(both_empty, absdiff.shape)] = _EXCLUDED
    best_abs = _chunk_best(absdiff, py, ph, ylo, n, d)

    admissible = (va > 0.0) & (vb > 0.0) & ~both_empty
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.maximum(va / vb, vb / va) - 1.0
    ratio = np.where(admissible, ratio, _EXCLUDED)
    best_rel = _chunk_best(ratio, py, ph, ylo, n, d)
    return best_abs, best_rel


def _build_witness(cand, M, d):
    if cand is None:
        return None
    value, _, _, _, yi, hi = cand
    yrow = M[yi].astype(np.uint8)
    hrow = M[hi].astype(np.uint8)
    tp = int(yrow @ hrow)
    fp = int(hrow.sum()) - tp
    fn = int(yrow.sum()) - tp
    dims = (d, 1, 1)
    return Witness(BinaryMask(dims, yrow), BinaryMask(dims, hrow), tp, fp, fn, value)


def mask_pair_sup(metric_a: str, metric_b: str, d: int) -> BoundReport:
    """The suprema and witnesses brute_force_sup must report, found by
    scanning every one of the 4**d mask pairs in 256-row chunks."""
    mid_a, mid_b = parse_metric_id(metric_a), parse_metric_id(metric_b)
    M = bit_matrix(d, dtype=np.float64)
    pop = M.sum(axis=1)
    n = M.shape[0]
    best_abs = best_rel = None
    for lo in range(0, n, 256):
        pa, pr = _scan_chunk(M, pop, lo, min(lo + 256, n), mid_a, mid_b, d)
        best_abs = _better(best_abs, pa)
        best_rel = _better(best_rel, pr)
    w_abs = _build_witness(best_abs, M, d)
    w_rel = _build_witness(best_rel, M, d)
    cf_abs, cf_rel = closed_form_bounds(mid_a, mid_b)
    return BoundReport(
        mid_a.label(), mid_b.label(), d, cf_abs, cf_rel,
        w_abs.value if w_abs else 0.0, w_rel.value if w_rel else 0.0, w_abs, w_rel,
    )


# --- reference Hausdorff scan over every foreground pair ---------------------


def _foreground_points(mask: np.ndarray) -> np.ndarray:
    """(n, ndim) pixel-center coordinates of the True voxels."""
    return np.argwhere(mask).astype(np.float64)


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


def pairwise_hausdorff(y_bool: np.ndarray, yhat_bool: np.ndarray) -> float:
    """The symmetric Hausdorff distance hausdorff_distance must report, by
    measuring every (y, ŷ) foreground pair; NaN when either side is empty."""
    pu = _foreground_points(y_bool)
    pv = _foreground_points(yhat_bool)
    if pu.shape[0] == 0 or pv.shape[0] == 0:
        return float("nan")
    return max(_directed_hausdorff(pu, pv), _directed_hausdorff(pv, pu))


# --- reference sigmoid, one masked branch per logit sign ---------------------


def masked_sigmoid(s: np.ndarray) -> np.ndarray:
    """The values toytrain._sigmoid must give: 1/(1+exp(-s)) where s >= 0
    and exp(s)/(1+exp(s)) elsewhere, so neither branch overflows."""
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def one_branch_sigmoid(s: np.ndarray) -> np.ndarray:
    """1/(1+exp(-s)) as written, exp(-s) overflowing to inf below s = -709.78."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-s))


# --- reference CE clamp, through np.clip ---------------------------------------


def clip_clamp(p: np.ndarray) -> np.ndarray:
    """The values the CE/WCE clamp must give: p clipped into
    [CLAMP_EPS, 1 - CLAMP_EPS] by np.clip."""
    return np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)


# --- reference training kernels, the formulas as written --------------------


def reference_wce(y: np.ndarray, p: np.ndarray, gamma: float, scale: float):
    """(value, gradient, logit gradient) the wCE kernel must give; CE is
    gamma 0.5 at scale 2.  The value and gradient are those of the clipped
    loss, and both gradients are zeroed wherever the clip is active."""
    d = y.size
    pc = clip_clamp(p)
    value = -scale / d * float(np.sum(gamma * y * np.log(pc) + (1.0 - gamma) * (1.0 - y) * np.log1p(-pc)))
    grad = -scale / d * (gamma * y / pc - (1.0 - gamma) * (1.0 - y) / (1.0 - pc))
    logit = -scale / d * (gamma * y - p * (gamma * y + (1.0 - gamma) * (1.0 - y)))
    under = (p <= CLAMP_EPS) | (p >= 1.0 - CLAMP_EPS)
    grad[under] = 0.0
    logit[under] = 0.0
    return value, grad, logit


def reference_soft_dice(y: np.ndarray, p: np.ndarray, variant: str):
    """(value, gradient, logit gradient) the soft-Dice kernel must give:
    1 - 2 y.p / (sum y + sum p) for "l1" and 1 - 2 y.p / (sum y + p.p) for
    "l2", and 0 with a zero gradient when that denominator is 0."""
    num = 2.0 * float(y @ p)
    den = float(y.sum() + (p.sum() if variant == "l1" else p @ p))
    if den == 0.0:
        return 0.0, np.zeros_like(p), np.zeros_like(p)
    dnum = num if variant == "l1" else num * 2.0 * p  # the numerator's share of the quotient rule
    grad = -(2.0 * y * den - dnum) / (den * den)
    return 1.0 - num / den, grad, grad * p * (1.0 - p)
