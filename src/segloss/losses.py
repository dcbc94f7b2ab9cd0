"""Differentiable surrogate losses: value plus the exact analytic gradient
with respect to the relaxed prediction, and a finite-difference oracle.

Conventions:

* metric-sensitive losses (soft Dice/Jaccard/Tversky, Lovász) are plain
  per-image sums, cross-entropy variants are per-pixel means;
* CE is the gamma = 0.5 weighted cross-entropy scaled by 2, i.e. the
  plain unweighted form -sum(y log p + (1-y) log(1-p)) / d;
* CE/WCE clamp p into [eps, 1-eps] before the logarithm; the gradient is
  the derivative of the clamped value (zero where the clamp is active);
* a zero surrogate denominator (possible only when y and p are both
  identically zero) yields value 0, gradient 0 and a ``degenerate`` flag.

All metric-sensitive surrogates coincide with 1 - (their discrete
similarity) on binary predictions, which ``vertex_consistency_check``
verifies pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import OutOfDomain, OutOfRange
from .masks import BinaryMask, ProbMap, check_dims

CE = "ce"
WCE = "wce"
SOFT_DICE = "soft_dice"
SOFT_JACCARD = "soft_jaccard"
LOVASZ_JACCARD = "lovasz_jaccard"
SOFT_TVERSKY = "soft_tversky"

LOSS_KINDS = (CE, WCE, SOFT_DICE, SOFT_JACCARD, LOVASZ_JACCARD, SOFT_TVERSKY)

DEFAULT_CLAMP_EPS = 1e-7


@dataclass(frozen=True)
class LossSpec:
    """Tagged configuration naming one surrogate loss and its parameters."""

    kind: str
    gamma: float | None = None        # wce only
    alpha: float | None = None        # soft_tversky only
    beta: float | None = None         # soft_tversky only
    norm_variant: str | None = None   # soft_dice only: "l1" | "l2"
    clamp_eps: float | None = None    # ce/wce only

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise OutOfRange(f"unknown loss kind {self.kind!r}")
        if (self.gamma is not None) != (self.kind == WCE):
            raise OutOfRange("gamma is required by wce and only by wce")
        if self.kind == WCE and not 0.0 <= self.gamma <= 1.0:
            raise OutOfRange(f"gamma must lie in [0, 1], got {self.gamma}")
        needs_ab = self.kind == SOFT_TVERSKY
        if (self.alpha is not None) != needs_ab or (self.beta is not None) != needs_ab:
            raise OutOfRange("alpha/beta are required by soft_tversky and only by it")
        if needs_ab and not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise OutOfRange(f"tversky weights must be finite and > 0, got {self.alpha}, {self.beta}")
        if (self.norm_variant is not None) != (self.kind == SOFT_DICE):
            raise OutOfRange("norm_variant is required by soft_dice and only by it")
        if self.kind == SOFT_DICE and self.norm_variant not in ("l1", "l2"):
            raise OutOfRange(f"norm_variant must be 'l1' or 'l2', got {self.norm_variant!r}")
        if (self.clamp_eps is not None) != (self.kind in (CE, WCE)):
            raise OutOfRange("clamp_eps applies to ce/wce only")
        if self.kind in (CE, WCE) and not 0.0 < self.clamp_eps < 0.5:
            raise OutOfRange(f"clamp_eps must lie in (0, 0.5), got {self.clamp_eps}")

    @classmethod
    def ce(cls, clamp_eps: float = DEFAULT_CLAMP_EPS) -> "LossSpec":
        return cls(CE, clamp_eps=clamp_eps)

    @classmethod
    def wce(cls, gamma: float, clamp_eps: float = DEFAULT_CLAMP_EPS) -> "LossSpec":
        return cls(WCE, gamma=gamma, clamp_eps=clamp_eps)

    @classmethod
    def soft_dice(cls, norm_variant: str = "l1") -> "LossSpec":
        return cls(SOFT_DICE, norm_variant=norm_variant)

    @classmethod
    def soft_jaccard(cls) -> "LossSpec":
        return cls(SOFT_JACCARD)

    @classmethod
    def lovasz(cls) -> "LossSpec":
        return cls(LOVASZ_JACCARD)

    @classmethod
    def soft_tversky(cls, alpha: float, beta: float) -> "LossSpec":
        return cls(SOFT_TVERSKY, alpha=alpha, beta=beta)

    def label(self) -> str:
        """Canonical short name used in reports and file names."""
        if self.kind == WCE:
            return f"wce:{self.gamma:g}"
        if self.kind == SOFT_DICE:
            return f"soft_dice_{self.norm_variant}"
        if self.kind == SOFT_TVERSKY:
            return f"tversky:{self.alpha:g}:{self.beta:g}"
        if self.kind == LOVASZ_JACCARD:
            return "lovasz"
        return self.kind


def parse_loss_spec(token: str) -> LossSpec:
    """Parse a loss token: ce, wce:<gamma>, soft_dice, soft_dice_l2,
    soft_jaccard, lovasz, tversky:<alpha>:<beta>."""
    parts = token.strip().split(":")
    head = parts[0]
    try:
        if head == "ce" and len(parts) == 1:
            return LossSpec.ce()
        if head == "wce" and len(parts) == 2:
            return LossSpec.wce(float(parts[1]))
        if head in ("soft_dice", "soft_dice_l1") and len(parts) == 1:
            return LossSpec.soft_dice("l1")
        if head == "soft_dice_l2" and len(parts) == 1:
            return LossSpec.soft_dice("l2")
        if head == "soft_jaccard" and len(parts) == 1:
            return LossSpec.soft_jaccard()
        if head == "lovasz" and len(parts) == 1:
            return LossSpec.lovasz()
        if head == "tversky" and len(parts) == 3:
            return LossSpec.soft_tversky(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise OutOfRange(f"bad numeric parameter in loss token {token!r}") from exc
    raise OutOfRange(f"unknown loss token {token!r}")


@dataclass(frozen=True)
class LossEval:
    value: float
    gradient: np.ndarray = field(repr=False)
    degenerate: bool = False


def gamma_for_prior(fg_prior: float) -> float:
    """Map the class-balancing heuristic (foreground weight 1/(2p),
    background weight 1/(2-2p)) onto the wCE gamma = fg/(fg+bg)."""
    if not 0.0 < fg_prior < 1.0:
        raise OutOfRange(f"foreground prior must lie in (0, 1), got {fg_prior}")
    w_fg = 1.0 / (2.0 * fg_prior)
    w_bg = 1.0 / (2.0 - 2.0 * fg_prior)
    return w_fg / (w_fg + w_bg)


def _wce_arrays(y, p, gamma, eps, scale):
    pc = np.clip(p, eps, 1.0 - eps)
    d = y.size
    value = -scale / d * float(
        np.sum(gamma * y * np.log(pc) + (1.0 - gamma) * (1.0 - y) * np.log1p(-pc))
    )
    inside = (p > eps) & (p < 1.0 - eps)
    grad = np.where(
        inside,
        -scale / d * (gamma * y / pc - (1.0 - gamma) * (1.0 - y) / (1.0 - pc)),
        0.0,
    )
    return value, grad, False


def _soft_dice_arrays(y, p, variant):
    num = 2.0 * float(y @ p)
    if variant == "l1":
        den = float(y.sum() + p.sum())
        if den == 0.0:
            return 0.0, np.zeros_like(p), True
        grad = -(2.0 * y * den - num) / (den * den)
    else:
        den = float(y.sum() + p @ p)
        if den == 0.0:
            return 0.0, np.zeros_like(p), True
        grad = -(2.0 * y * den - num * 2.0 * p) / (den * den)
    return 1.0 - num / den, grad, False


def _soft_jaccard_arrays(y, p):
    inter = float(y @ p)
    union = float(y.sum() + p.sum()) - inter
    if union == 0.0:
        return 0.0, np.zeros_like(p), True
    grad = -(y * union - inter * (1.0 - y)) / (union * union)
    return 1.0 - inter / union, grad, False


def _soft_tversky_arrays(y, p, alpha, beta):
    # exact parameter collapse: 0.5/0.5 is the L1 soft Dice and 1/1 the
    # soft Jaccard, value and gradient alike, so dispatch to those paths
    if alpha == 0.5 and beta == 0.5:
        return _soft_dice_arrays(y, p, "l1")
    if alpha == 1.0 and beta == 1.0:
        return _soft_jaccard_arrays(y, p)
    inter = float(y @ p)
    fp_soft = float((1.0 - y) @ p)
    fn_soft = float(y @ (1.0 - p))
    den = inter + alpha * fp_soft + beta * fn_soft
    if den == 0.0:
        return 0.0, np.zeros_like(p), True
    dden = y + alpha * (1.0 - y) - beta * y
    grad = -(y * den - inter * dden) / (den * den)
    return 1.0 - inter / den, grad, False


def _lovasz_arrays(y, p):
    # errors m_i = |y_i - p_i|; sort descending, stable ties by pixel index
    m = np.where(y > 0, 1.0 - p, p)
    order = np.argsort(-m, kind="stable")
    ys = y[order]
    fg = float(ys.sum())
    inter = fg - np.cumsum(ys)
    union = fg + np.cumsum(1.0 - ys)
    jac = 1.0 - inter / union
    g = np.diff(jac, prepend=0.0)
    value = float(m[order] @ g)
    grad = np.empty_like(p)
    grad[order] = g
    grad *= np.where(y > 0, -1.0, 1.0)
    return value, grad, False


def eval_loss_arrays(spec: LossSpec, y: np.ndarray, p: np.ndarray):
    """Array-level evaluation; returns (value, gradient, degenerate).

    y is a 0/1 float or int vector, p a float vector in [0, 1].
    """
    yf = np.asarray(y, dtype=np.float64)
    pf = np.asarray(p, dtype=np.float64)
    if spec.kind == CE:
        return _wce_arrays(yf, pf, 0.5, spec.clamp_eps, 2.0)
    if spec.kind == WCE:
        return _wce_arrays(yf, pf, spec.gamma, spec.clamp_eps, 1.0)
    if spec.kind == SOFT_DICE:
        return _soft_dice_arrays(yf, pf, spec.norm_variant)
    if spec.kind == SOFT_JACCARD:
        return _soft_jaccard_arrays(yf, pf)
    if spec.kind == SOFT_TVERSKY:
        return _soft_tversky_arrays(yf, pf, spec.alpha, spec.beta)
    if spec.kind == LOVASZ_JACCARD:
        return _lovasz_arrays(yf, pf)
    raise OutOfRange(f"unknown loss kind {spec.kind!r}")


def eval_loss(spec: LossSpec, y: BinaryMask, p: ProbMap) -> LossEval:
    """Loss value and the exact analytic gradient d(loss)/dp."""
    check_dims(y, p)
    value, grad, degenerate = eval_loss_arrays(spec, y.data, p.data)
    return LossEval(value, grad, degenerate)


def finite_diff_gradient(spec: LossSpec, y: BinaryMask, p: ProbMap, h: float) -> np.ndarray:
    """Central-difference gradient (L(p + h e_i) - L(p - h e_i)) / 2h.

    Serves as the independent oracle for the analytic gradients; it only
    ever calls the loss through its public value path.
    """
    if h <= 0:
        raise OutOfRange(f"step h must be > 0, got {h}")
    check_dims(y, p)
    base = p.data
    if base.size and (base.min() < h or base.max() > 1.0 - h):
        raise OutOfDomain("perturbation by h would leave [0, 1]")
    out = np.empty_like(base)
    for i in range(base.size):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        f_plus = eval_loss(spec, y, ProbMap(p.dims, plus)).value
        f_minus = eval_loss(spec, y, ProbMap(p.dims, minus)).value
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return out


_DISCRETE_COUNTERPART = {
    CE: lambda spec, a, b: metrics.hamming(a, b),
    WCE: lambda spec, a, b: metrics.weighted_hamming(a, b, spec.gamma),
    SOFT_DICE: lambda spec, a, b: metrics.dice(a, b),
    SOFT_JACCARD: lambda spec, a, b: metrics.jaccard(a, b),
    LOVASZ_JACCARD: lambda spec, a, b: metrics.jaccard(a, b),
    SOFT_TVERSKY: lambda spec, a, b: metrics.tversky(a, b, spec.alpha, spec.beta),
}

VERTEX_TOL = 1e-12


def vertex_consistency_check(spec: LossSpec, y: BinaryMask, yhat: BinaryMask):
    """Compare the surrogate on a binary prediction against 1 minus the
    matching discrete similarity.  Returns (surrogate, discrete, equal).

    Coincidence holds for every metric-sensitive kind; CE/WCE do not
    coincide with their Hamming counterparts (the clamped log is not 0/1
    valued), so equal is generally False for them.
    """
    check_dims(y, yhat)
    p = ProbMap(yhat.dims, yhat.data.astype(np.float64))
    surrogate = eval_loss(spec, y, p).value
    discrete = 1.0 - _DISCRETE_COUNTERPART[spec.kind](spec, y, yhat)
    return surrogate, discrete, abs(surrogate - discrete) < VERTEX_TOL
