"""Differentiable surrogate losses: value plus the exact analytic gradient
with respect to the relaxed prediction, and a finite-difference oracle.

Conventions:

* labels y are 0/1 vectors of any numeric or bool dtype, as
  ``eval_loss_arrays`` states, used as given, without a float copy: every
  label sum widens (``ndarray.sum``, ``np.cumsum``, a product with float
  p), so a mask's bool labels give the float labels' bits at any d;
  three forms rely on 0/1 labels and give other values for fractional ones:
  - the CE/wCE value keeps, per pixel, gamma log p where y = 1 and
    (1-gamma) log(1-p) where y = 0: the other term of
    gamma y log p + (1-gamma)(1-y) log(1-p) is a signed zero there, so
    the sum has the two-term expression's bits;
  - the L1 soft-Dice, soft-Jaccard and Tversky p-space gradients take
    only two values, so each is evaluated once at y = 1 and once at y = 0
    (bit for bit the elementwise expression there) and picked per pixel;
  - the CE logit gradient is (p - y)/d, the wCE form at gamma 0.5 and
    scale 2 only for 0/1 y;
* metric-sensitive losses (soft Dice/Jaccard/Tversky, Lovász) are plain
  per-image sums, cross-entropy variants are per-pixel means;
* CE is the gamma = 0.5 weighted cross-entropy scaled by 2, i.e. the
  plain unweighted form -sum(y log p + (1-y) log(1-p)) / d;
* CE/WCE clip p into [CLAMP_EPS, 1-CLAMP_EPS] (no per-spec eps) before the log;
  the gradient is that of the clipped value, zero where the clip is active
  (masked only when some p reaches the clip or is NaN);
* a zero surrogate denominator (possible only when y and p are both
  identically zero) yields value 0, gradient 0 and a ``degenerate`` flag;
* Lovász sorts the errors in descending order, ties by pixel index and NaNs
  last, by a stable sort only when an unstable one finds a tie or a NaN.

``LOSSES`` is the one table of loss tokens.  Each row, keyed by token
head, names the parameters with their range rule, and gives the
``(y, p, *params)`` kernel and the discrete similarity the loss relaxes.
``parse_loss_spec`` is the only loss token parser, and ``LossSpec`` follows
the token rule of ``metrics.Token``; ``LOSS_GRAMMAR`` lists the forms.

Four entry points evaluate a kernel on arrays: ``eval_loss_arrays``
returns (value, gradient, degenerate), ``loss_value`` only the value and
``loss_gradient`` only the gradient (both bit for bit as the first), and
``loss_logit_gradient`` the gradient with respect to the logits s of
p = sigmoid(s).  Training calls the last on each gradient step and
``loss_value`` on each loss pass; ``finite_diff_gradient`` calls ``loss_value``.

All metric-sensitive surrogates coincide with 1 - (their discrete
similarity) on binary predictions, which ``vertex_consistency_check``
verifies pairwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metrics
from .errors import OutOfDomain, OutOfRange
from .masks import BinaryMask, ProbMap, check_dims

CLAMP_EPS = 1e-7


def gamma_for_prior(fg_prior: float) -> float:
    """Map the class-balancing heuristic (foreground weight 1/(2p),
    background weight 1/(2-2p)) onto the wCE gamma = fg/(fg+bg)."""
    if not 0.0 < fg_prior < 1.0:
        raise OutOfRange(f"foreground prior must lie in (0, 1), got {fg_prior}")
    w_fg = 1.0 / (2.0 * fg_prior)
    w_bg = 1.0 / (2.0 - 2.0 * fg_prior)
    return w_fg / (w_fg + w_bg)


def _degenerate(p, value, grad):
    return (0.0 if value else None), (np.zeros_like(p) if grad else None), True


_LABELS = np.float64(1.0), np.float64(0.0)


def _by_label(y, grad_at):
    """The elementwise gradient grad_at(y) of 0/1 labels y, as its two
    values grad_at(1.0) and grad_at(0.0): numpy scalars, so each rounds,
    overflows and divides by zero as the array expression would."""
    return np.where(y, *(grad_at(t) for t in _LABELS))


def _clamp(p):
    """np.clip(p, CLAMP_EPS, 1 - CLAMP_EPS) bit for bit, without its Python wrapper."""
    return np.minimum(np.maximum(p, CLAMP_EPS), 1.0 - CLAMP_EPS)


def _wce_arrays(y, p, gamma, scale, value=True, grad=True, logit=False):
    d = y.size
    v = g = None
    if logit and scale == 2.0:  # CE: with 0/1 y the wCE form below is (p - y)/d bit for bit
        g = p - y
        g *= 1.0 / d
    elif logit:  # only d/ds at p = sigmoid(s)
        gy = gamma * y
        g = -scale / d * (gy - p * (gy + (1.0 - gamma) * (1.0 - y)))
    else:
        pc = _clamp(p)
        if value:
            v = -scale / d * float(np.sum(np.where(y, gamma * np.log(pc), (1.0 - gamma) * np.log1p(-pc))))
        if grad:
            g = -scale / d * (gamma * y / pc - (1.0 - gamma) * (1.0 - y) / (1.0 - pc))
    # zero under the clip, masking only when some p reaches it; a NaN p
    # fails the range test, takes the mask and stays NaN
    if g is not None and not (p.min() > CLAMP_EPS and p.max() < 1.0 - CLAMP_EPS):
        g[(p <= CLAMP_EPS) | (p >= 1.0 - CLAMP_EPS)] = 0.0
    return v, g, False


def _soft_dice_arrays(y, p, variant, value=True, grad=True):
    num = 2.0 * float(y @ p)
    den = float(y.sum() + (p.sum() if variant == "l1" else p @ p))
    if den == 0.0:
        return _degenerate(p, value, grad)
    g = None
    if grad and variant == "l1":
        g = _by_label(y, lambda t: (t * (2.0 * den) - num) / -(den * den))
    elif grad:  # -(2 y den - 2 num p) / den^2, bit for bit in place
        g = y * (2.0 * den)
        g -= num * 2.0 * p
        g /= -(den * den)
    return (1.0 - num / den if value else None), g, False


def _soft_jaccard_arrays(y, p, value=True, grad=True):
    inter = float(y @ p)
    union = float(y.sum() + p.sum()) - inter
    if union == 0.0:
        return _degenerate(p, value, grad)
    g = _by_label(y, lambda t: -(t * union - inter * (1.0 - t)) / (union * union)) if grad else None
    return (1.0 - inter / union if value else None), g, False


def _soft_tversky_arrays(y, p, alpha, beta, value=True, grad=True):
    # exact parameter collapse: 0.5/0.5 is the L1 soft Dice and 1/1 the
    # soft Jaccard, value and gradient alike, so dispatch to those paths
    if alpha == 0.5 and beta == 0.5:
        return _soft_dice_arrays(y, p, "l1", value, grad)
    if alpha == 1.0 and beta == 1.0:
        return _soft_jaccard_arrays(y, p, value, grad)
    inter = float(y @ p)
    fp_soft = float((1.0 - y) @ p)
    fn_soft = float(y @ (1.0 - p))
    den = inter + alpha * fp_soft + beta * fn_soft
    if den == 0.0:
        return _degenerate(p, value, grad)
    g = None
    if grad:
        g = _by_label(y, lambda t: -(t * den - inter * (t + alpha * (1.0 - t) - beta * t)) / (den * den))
    return (1.0 - inter / den if value else None), g, False


def _lovasz_arrays(y, p, value=True, grad=True):
    # errors m_i = |y_i - p_i|; sort descending, ties by pixel index
    m = np.where(y, 1.0 - p, p)
    order = np.argsort(-m)
    ms = m[order]
    if np.isnan(ms[-1:]).any() or (ms[1:] == ms[:-1]).any():
        order = np.argsort(-m, kind="stable")
    ys = y[order]
    fg = float(ys.sum())
    inter = fg - np.cumsum(ys)
    union = fg + np.cumsum(1.0 - ys)
    jac = 1.0 - inter / union
    g = np.diff(jac, prepend=0.0)
    v = float(m[order] @ g) if value else None
    out = None
    if grad:
        out = np.empty_like(p)
        out[order] = g
        out *= np.where(y, -1.0, 1.0)
    return v, out, False


@dataclass(frozen=True)
class LossKind:
    """One row of the loss table.  ``kernel(y, p, *params, value=True,
    grad=True)`` returns (value, gradient, degenerate) and skips, as None,
    whichever of value and gradient it is not asked for; the CE rows clamp
    at the module constant CLAMP_EPS, with no per-spec eps.
    ``counterpart(y, yhat, *params)`` is the discrete similarity the loss
    relaxes; ``valid`` is the range rule.
    ``auto``, if set, maps the dataset foreground prior to the parameters
    of the bare token.  ``logit`` marks a kernel that takes ``logit=True``."""

    params: tuple[str, ...]
    kernel: Callable
    counterpart: Callable
    valid: Callable = lambda *params: True
    rule: str = ""
    auto: Callable | None = None
    logit: bool = False


LOSSES: dict[str, LossKind] = {
    "ce": LossKind((), lambda y, p, **want: _wce_arrays(y, p, 0.5, 2.0, **want), metrics.hamming, logit=True),
    "wce": LossKind(("gamma",), lambda y, p, gamma, **want: _wce_arrays(y, p, gamma, 1.0, **want),
                    metrics.weighted_hamming, valid=lambda gamma: 0.0 <= gamma <= 1.0,
                    rule="gamma must lie in [0, 1]",
                    auto=lambda fg_prior: (gamma_for_prior(fg_prior),), logit=True),
    "soft_dice_l1": LossKind((), lambda y, p, **want: _soft_dice_arrays(y, p, "l1", **want), metrics.dice),
    "soft_dice_l2": LossKind((), lambda y, p, **want: _soft_dice_arrays(y, p, "l2", **want), metrics.dice),
    "soft_jaccard": LossKind((), _soft_jaccard_arrays, metrics.jaccard),
    "lovasz": LossKind((), _lovasz_arrays, metrics.jaccard),
    "tversky": LossKind(("alpha", "beta"), _soft_tversky_arrays, metrics.tversky,
                        valid=lambda alpha, beta: alpha > 0 and beta > 0,
                        rule="tversky weights must be > 0"),
}
LOSS_ALIASES = {"soft_dice": "soft_dice_l1"}


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


class LossSpec(metrics.Token):
    """A loss token, checked against ``LOSSES``."""

    table = LOSSES
    grammar = LOSS_GRAMMAR


def parse_loss_spec(token: str, fg_prior: float | None = None) -> LossSpec:
    """Parse one loss token: ``LOSS_GRAMMAR`` lists the forms.  A bare
    token of a row with ``auto`` parameters takes them from ``fg_prior``,
    the foreground prior of the data."""
    head, parts = metrics.split_token(token, "loss", LOSSES, LOSS_ALIASES)
    row = LOSSES[head]
    if row.auto is not None and parts in ([], ["auto"]):
        if fg_prior is None:
            raise OutOfRange(f"loss token {token!r} needs the data's foreground prior")
        return LossSpec(head, row.auto(fg_prior))
    return LossSpec(head, metrics.read_params(parts, "loss", token))


def _kernel(spec: LossSpec, y, p, value: bool, grad: bool, **logit):
    return LOSSES[spec.kind].kernel(np.asarray(y), np.asarray(p, dtype=np.float64),
                                    *spec.params, value=value, grad=grad, **logit)


def eval_loss_arrays(spec: LossSpec, y: np.ndarray, p: np.ndarray):
    """Array-level evaluation; returns (value, gradient, degenerate).

    y is a 0/1 vector of any numeric or bool dtype (a mask's bool data
    needs no copy), p a float vector in [0, 1].
    """
    return _kernel(spec, y, p, True, True)


def loss_value(spec: LossSpec, y: np.ndarray, p: np.ndarray) -> float:
    """eval_loss_arrays(spec, y, p)[0], without building the gradient."""
    return _kernel(spec, y, p, True, False)[0]


def loss_gradient(spec: LossSpec, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """eval_loss_arrays(spec, y, p)[1], without computing the value."""
    return _kernel(spec, y, p, False, True)[1]


def loss_logit_gradient(spec: LossSpec, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """loss_gradient(spec, y, p) * p * (1 - p), the gradient with respect to the
    logits of p = sigmoid(s); the CE rows give it in closed form."""
    if LOSSES[spec.kind].logit:
        return _kernel(spec, y, p, False, True, logit=True)[1]
    g = loss_gradient(spec, y, p)
    g *= p
    g *= 1.0 - p
    return g


def finite_diff_gradient(spec: LossSpec, y: BinaryMask, p: ProbMap, h: float) -> np.ndarray:
    """Central-difference gradient (L(p + h e_i) - L(p - h e_i)) / 2h.

    Serves as the independent oracle for the analytic gradients; it only
    ever calls the loss through its public value path, loss_value.
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
        f_plus = loss_value(spec, y.data, plus)
        f_minus = loss_value(spec, y.data, minus)
        out[i] = (f_plus - f_minus) / (2.0 * h)
    return out


VERTEX_TOL = 1e-12


def vertex_consistency_check(spec: LossSpec, y: BinaryMask, yhat: BinaryMask):
    """Compare the surrogate on a binary prediction against 1 minus the
    matching discrete similarity.  Returns (surrogate, discrete, equal).

    Coincidence holds for every metric-sensitive kind; CE/WCE do not
    coincide with their Hamming counterparts (the clipped log is not 0/1
    valued), so equal is generally False for them.
    """
    check_dims(y, yhat)
    surrogate = loss_value(spec, y.data, yhat.data)
    discrete = 1.0 - LOSSES[spec.kind].counterpart(y, yhat, *spec.params)
    return surrogate, discrete, abs(surrogate - discrete) < VERTEX_TOL
