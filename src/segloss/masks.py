"""Mask and probability-map containers plus set-count primitives, which
return the plain ``(tp, fp, fn)`` tuple; tn is ``d - tp - fp - fn``.

Masks are stored as flat vectors, bool for a binary mask and float64 for
a probability map, with explicit ``(nx, ny, nz)`` dims (``nz = 1`` for
2D).  Flat index ``i = x + nx*(y + ny*z)``: x runs fastest.  All
similarity computations operate on the flat vector; the spatial layout
only matters for Hausdorff distances and synthetic data generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, OutOfRange

Dims = tuple[int, int, int]


@dataclass(frozen=True, eq=False)
class _FlatMap:
    """A flat vector with its (nx, ny, nz) dims; each subclass sets its
    ``_dtype`` and checks the input in ``_check(raw)`` before converting it."""

    dims: Dims
    data: np.ndarray

    def __post_init__(self):
        t = tuple(int(v) for v in self.dims)
        if len(t) == 2:
            t = (t[0], t[1], 1)
        if len(t) != 3 or any(v < 1 for v in t):
            raise ValueError(f"dims must be 2 or 3 positive pixel counts, got {self.dims!r}")
        raw = np.asarray(self.data).ravel()
        if raw.dtype.kind not in "biuf":
            raise ValueError(f"data must be bool or real numbers, got dtype {raw.dtype}")
        if raw.size != t[0] * t[1] * t[2]:
            raise ValueError(f"data length {raw.size} != product of dims {t}")
        if raw.size:
            self._check(raw)
        object.__setattr__(self, "dims", t)
        object.__setattr__(self, "data", np.ascontiguousarray(raw, dtype=self._dtype))

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
    """Flat bool label vector, the set of foreground pixels; input must be bool or exactly 0/1."""

    _dtype = np.bool_

    def _check(self, raw):
        if not np.all((raw == 0) | (raw == 1)):
            raise ValueError("binary mask values must be 0 or 1")

    def count(self) -> int:
        """Number of foreground pixels |y|."""
        return np.count_nonzero(self.data)


class ProbMap(_FlatMap):
    """Relaxed prediction vector (float64 in [0, 1]) with the same dims contract."""

    _dtype = np.float64

    def _check(self, raw):
        # written so that NaN fails too
        if not (raw.min() >= 0.0 and raw.max() <= 1.0):
            raise ValueError("probability values must lie in [0, 1]")


def check_dims(a, b) -> None:
    if a.dims != b.dims:
        raise DimMismatch(f"dims differ: {a.dims} vs {b.dims}")


def overlap_counts(truth: np.ndarray, pred: np.ndarray) -> tuple[int, int, int]:
    """(tp, fp, fn) of a boolean prediction vector against the truth."""
    tp = int(np.count_nonzero(truth & pred))
    fp = int(np.count_nonzero(~truth & pred))
    fn = int(np.count_nonzero(truth & ~pred))
    return tp, fp, fn


def confusion_counts(y: BinaryMask, yhat: BinaryMask) -> tuple[int, int, int]:
    """(tp, fp, fn) = (|y ∩ ŷ|, |ŷ \\ y|, |y \\ ŷ|) for a pair of binary masks."""
    check_dims(y, yhat)
    return overlap_counts(y.data, yhat.data)


def threshold(p: ProbMap, t: float) -> BinaryMask:
    """Binarize with the strict convention: foreground iff p[i] > t.

    Pixels exactly equal to t are background, so at t = 0.5 a vertex
    probability map maps back to itself.
    """
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"threshold must lie in [0, 1], got {t}")
    return BinaryMask(p.dims, p.data > t)
