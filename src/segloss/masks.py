"""Mask and probability-map containers plus set-count primitives.

Masks are stored as flat vectors with explicit ``(nx, ny, nz)`` dims
(``nz = 1`` for 2D).  Flat index ``i = x + nx*(y + ny*z)``: x runs fastest.
All similarity computations operate on the flat vector; the spatial layout
only matters for Hausdorff distances and synthetic data generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, OutOfRange

Dims = tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class _FlatMap:
    """A flat vector with its (nx, ny, nz) dims; each subclass sets the
    vector's ``_dtype`` and checks its values in ``_check(data)``."""

    dims: Dims
    data: np.ndarray

    def __post_init__(self):
        t = tuple(int(v) for v in self.dims)
        if len(t) == 2:
            t = (t[0], t[1], 1)
        if len(t) != 3 or any(v < 1 for v in t):
            raise ValueError(f"dims must be 2 or 3 positive pixel counts, got {self.dims!r}")
        data = np.ascontiguousarray(self.data, dtype=self._dtype).ravel()
        if data.size != t[0] * t[1] * t[2]:
            raise ValueError(f"data length {data.size} != product of dims {t}")
        if data.size:
            self._check(data)
        object.__setattr__(self, "dims", t)
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.size

    @classmethod
    def from_array(cls, arr):
        """Build from a (ny, nx) or (nz, ny, nx) array."""
        a = np.asarray(arr)
        if a.ndim not in (2, 3):
            raise ValueError("expected a 2D or 3D array")
        return cls(a.shape[::-1], a.ravel())

    def to_array(self) -> np.ndarray:
        """Spatial view shaped (nz, ny, nx)."""
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)


class BinaryMask(_FlatMap):
    """Flat binary label vector (uint8 in {0, 1}); the sets of foreground pixels."""

    _dtype = np.uint8

    def _check(self, data):
        if data.max() > 1:
            raise ValueError("binary mask values must be 0 or 1")

    def count(self) -> int:
        """Number of foreground pixels |y|."""
        return int(self.data.sum())


class ProbMap(_FlatMap):
    """Relaxed prediction vector (float64 in [0, 1]) with the same dims contract."""

    _dtype = np.float64

    def _check(self, data):
        # written so that NaN fails too
        if not (data.min() >= 0.0 and data.max() <= 1.0):
            raise ValueError("probability values must lie in [0, 1]")


@dataclass(frozen=True)
class ConfusionCounts:
    """Pixel counts tp = |y ∩ ŷ|, fp = |ŷ \\ y|, fn = |y \\ ŷ|, tn = rest."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def d(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def check_dims(a, b) -> None:
    if a.dims != b.dims:
        raise DimMismatch(f"dims differ: {a.dims} vs {b.dims}")


def overlap_counts(truth: np.ndarray, pred: np.ndarray) -> tuple[int, int, int]:
    """(tp, fp, fn) of a boolean prediction vector against the truth."""
    tp = int(np.count_nonzero(truth & pred))
    fp = int(np.count_nonzero(~truth & pred))
    fn = int(np.count_nonzero(truth & ~pred))
    return tp, fp, fn


def confusion_counts(y: BinaryMask, yhat: BinaryMask) -> ConfusionCounts:
    """Exact set cardinalities for a pair of binary masks."""
    check_dims(y, yhat)
    tp, fp, fn = overlap_counts(y.data.astype(bool), yhat.data.astype(bool))
    tn = y.d - tp - fp - fn
    return ConfusionCounts(tp, fp, fn, tn)


def threshold(p: ProbMap, t: float) -> BinaryMask:
    """Binarize with the strict convention: foreground iff p[i] > t.

    Pixels exactly equal to t are background, so at t = 0.5 a vertex
    probability map maps back to itself.
    """
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"threshold must lie in [0, 1], got {t}")
    return BinaryMask(p.dims, (p.data > t).astype(np.uint8))
