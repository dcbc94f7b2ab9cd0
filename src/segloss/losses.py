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

``LOSSES`` is the one table of loss tokens.  Each row, keyed by token
head, names the parameters with their range rule, and gives the
``(y, p, *params)`` kernel and the discrete similarity the loss relaxes.
``parse_loss_spec`` is the only token parser; ``LOSS_GRAMMAR`` lists the
forms.

All metric-sensitive surrogates coincide with 1 - (their discrete
similarity) on binary predictions, which ``vertex_consistency_check``
verifies pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import metrics
from .errors import OutOfDomain, OutOfRange
from .masks import BinaryMask, ProbMap, check_dims

DEFAULT_CLAMP_EPS = 1e-7


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


@dataclass(frozen=True)
class LossKind:
    """One row of the loss table.  ``kernel(y, p, *params)``, with the
    spec's clamp_eps appended on a ``clamped`` row, returns (value,
    gradient, degenerate); ``counterpart(y, yhat, *params)`` is the
    discrete similarity the loss relaxes; ``valid`` is the range rule.
    ``auto``, if set, maps the dataset foreground prior to the parameters
    of the bare token."""

    params: tuple[str, ...]
    kernel: Callable
    counterpart: Callable
    valid: Callable = lambda *params: True
    rule: str = ""
    clamped: bool = False
    auto: Callable | None = None


LOSSES: dict[str, LossKind] = {
    "ce": LossKind((), lambda y, p, eps: _wce_arrays(y, p, 0.5, eps, 2.0), metrics.hamming, clamped=True),
    "wce": LossKind(("gamma",), lambda y, p, gamma, eps: _wce_arrays(y, p, gamma, eps, 1.0),
                    metrics.weighted_hamming, valid=lambda gamma: 0.0 <= gamma <= 1.0,
                    rule="gamma must lie in [0, 1]", clamped=True,
                    auto=lambda fg_prior: (gamma_for_prior(fg_prior),)),
    "soft_dice_l1": LossKind((), lambda y, p: _soft_dice_arrays(y, p, "l1"), metrics.dice),
    "soft_dice_l2": LossKind((), lambda y, p: _soft_dice_arrays(y, p, "l2"), metrics.dice),
    "soft_jaccard": LossKind((), _soft_jaccard_arrays, metrics.jaccard),
    "lovasz": LossKind((), _lovasz_arrays, metrics.jaccard),
    "tversky": LossKind(("alpha", "beta"), _soft_tversky_arrays, metrics.tversky,
                        valid=lambda alpha, beta: alpha > 0 and beta > 0,
                        rule="tversky weights must be > 0"),
}
LOSS_ALIASES = {"soft_dice": "soft_dice_l1"}


@dataclass(frozen=True)
class LossSpec:
    """A loss token head with its parameters, e.g. tversky:0.3:0.7;
    construction checks both against the table.  ``clamp_eps`` is the
    log clamp of a clamped row, DEFAULT_CLAMP_EPS when not given, and
    must stay None on every other row."""

    kind: str
    params: tuple[float, ...] = ()
    clamp_eps: float | None = None

    def __post_init__(self):
        row = LOSSES.get(self.kind)
        if row is None or len(self.params) != len(row.params):
            raise OutOfRange(f"{self.label()} is not one of {LOSS_GRAMMAR}")
        if not all(math.isfinite(p) for p in self.params):
            raise OutOfRange(f"{self.kind} parameters must be finite, got {self.params}")
        if not row.valid(*self.params):
            raise OutOfRange(f"{row.rule}, got {self.label()}")
        if not row.clamped:
            if self.clamp_eps is not None:
                raise OutOfRange(f"clamp_eps does not apply to {self.kind}")
            return
        if self.clamp_eps is None:
            object.__setattr__(self, "clamp_eps", DEFAULT_CLAMP_EPS)
        if not 0.0 < self.clamp_eps < 0.5:
            raise OutOfRange(f"clamp_eps must lie in (0, 0.5), got {self.clamp_eps}")

    def label(self) -> str:
        """Canonical short name used in reports and file names."""
        return metrics.token_label(self.kind, self.params)


def _grammar() -> str:
    """The loss token forms, for help texts."""
    forms, notes = [], ""
    for head, row in LOSSES.items():
        forms.append(head + "".join(f":<{p}>" for p in row.params))
        if row.auto is not None:
            notes += f"; bare {head} (or {head}:auto) sets {', '.join(row.params)} from the foreground prior"
    notes += "".join(f"; {alias} means {head}" for alias, head in LOSS_ALIASES.items())
    return " | ".join(forms) + notes


LOSS_GRAMMAR = _grammar()


def parse_loss_spec(token: str, fg_prior: float | None = None) -> LossSpec:
    """Parse one loss token: ``LOSS_GRAMMAR`` lists the forms.  A bare
    token of a row with ``auto`` parameters takes them from ``fg_prior``,
    the foreground prior of the data."""
    head, *parts = token.strip().split(":")
    head = LOSS_ALIASES.get(head, head)
    row = LOSSES.get(head)
    if row is None:
        raise OutOfRange(f"unknown loss token {token!r}")
    if row.auto is not None and parts in ([], ["auto"]):
        if fg_prior is None:
            raise OutOfRange(f"loss token {token!r} needs the data's foreground prior")
        return LossSpec(head, row.auto(fg_prior))
    try:
        params = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise OutOfRange(f"bad numeric parameter in loss token {token!r}") from exc
    return LossSpec(head, params)


def eval_loss_arrays(spec: LossSpec, y: np.ndarray, p: np.ndarray):
    """Array-level evaluation; returns (value, gradient, degenerate).

    y is a 0/1 float or int vector, p a float vector in [0, 1].
    """
    eps = () if spec.clamp_eps is None else (spec.clamp_eps,)
    return LOSSES[spec.kind].kernel(np.asarray(y, dtype=np.float64), np.asarray(p, dtype=np.float64),
                                    *spec.params, *eps)


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
    discrete = 1.0 - LOSSES[spec.kind].counterpart(y, yhat, *spec.params)
    return surrogate, discrete, abs(surrogate - discrete) < VERTEX_TOL
