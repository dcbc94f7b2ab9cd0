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


def _normalize_dims(dims) -> Dims:
    t = tuple(int(v) for v in dims)
    if len(t) == 2:
        t = (t[0], t[1], 1)
    if len(t) != 3 or any(v < 1 for v in t):
        raise ValueError(f"dims must be 2 or 3 positive pixel counts, got {dims!r}")
    return t


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Flat binary label vector; the sets of foreground pixels."""

    dims: Dims
    data: np.ndarray  # uint8 in {0, 1}, length nx*ny*nz

    def __post_init__(self):
        dims = _normalize_dims(self.dims)
        data = np.ascontiguousarray(self.data, dtype=np.uint8).ravel()
        if data.size != dims[0] * dims[1] * dims[2]:
            raise ValueError(
                f"data length {data.size} != product of dims {dims}"
            )
        if data.size and data.max() > 1:
            raise ValueError("binary mask values must be 0 or 1")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.size

    def count(self) -> int:
        """Number of foreground pixels |y|."""
        return int(self.data.sum())

    @classmethod
    def from_array(cls, arr) -> "BinaryMask":
        """Build from a (ny, nx) or (nz, ny, nx) array of 0/1 values."""
        a = np.asarray(arr)
        if a.ndim == 2:
            ny, nx = a.shape
            dims = (nx, ny, 1)
        elif a.ndim == 3:
            nz, ny, nx = a.shape
            dims = (nx, ny, nz)
        else:
            raise ValueError("expected a 2D or 3D array")
        return cls(dims, a.ravel())

    def to_array(self) -> np.ndarray:
        """Spatial view shaped (nz, ny, nx)."""
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)


@dataclass(frozen=True, eq=False)
class ProbMap:
    """Relaxed prediction vector in [0, 1]^d with the same dims contract."""

    dims: Dims
    data: np.ndarray  # float64 in [0, 1]

    def __post_init__(self):
        dims = _normalize_dims(self.dims)
        data = np.ascontiguousarray(self.data, dtype=np.float64).ravel()
        if data.size != dims[0] * dims[1] * dims[2]:
            raise ValueError(
                f"data length {data.size} != product of dims {dims}"
            )
        if data.size and (data.min() < 0.0 or data.max() > 1.0):
            raise ValueError("probability values must lie in [0, 1]")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", data)

    @property
    def d(self) -> int:
        return self.data.size

    @classmethod
    def from_array(cls, arr) -> "ProbMap":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim == 2:
            ny, nx = a.shape
            dims = (nx, ny, 1)
        elif a.ndim == 3:
            nz, ny, nx = a.shape
            dims = (nx, ny, nz)
        else:
            raise ValueError("expected a 2D or 3D array")
        return cls(dims, a.ravel())

    def to_array(self) -> np.ndarray:
        nx, ny, nz = self.dims
        return self.data.reshape(nz, ny, nx)


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
