"""Nonparametric paired bootstrap significance testing and the
top-ranked / inferior-to-all labeling used in the experiment reports.

The test statistic is the paired mean difference on resampled image
indices; the one-sided p-value is the fraction of resamples whose
statistic is <= 0 (testing "a superior to b").  Resamples hitting exactly
zero count toward p, which is the conservative direction.  Each pair is
drawn once for both directions: "b superior to a" counts the same
statistics >= 0, which IEEE negation makes exactly the reversed test.
Resampling is split into a fixed number of partitions with derived seeds,
which fix the index draws and with them the p-values the goldens pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, LengthMismatch, OutOfRange, TooFewSamples

DEFAULT_RESAMPLES = 10_000
MAX_RESAMPLES = 10_000_000  # 10**6 resamples take about 0.42 s per pair at n = 60 on a 2-core host
SIGNIFICANCE_LEVEL = 0.05

_N_PARTITIONS = 8
# index draws per block: 64 KB of int64, plus as much again for the
# gathered differences.  Ranking then lifts a train command's peak RSS
# about 0.07 MB above its training plateau, against 0.44 MB with blocks of
# 2**15, in the same time for 10**4 resamples and 20% more for 10**6.
# numpy's integer stream does not depend on how the draws are split into
# blocks, so neither does p
_BLOCK_ELEMENTS = 2**13


@dataclass(frozen=True)
class ScoreVector:
    """Per-image scores for one method, aligned across methods by index."""

    method: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if not np.isfinite(values).all():
            raise DataError(f"{self.method}: scores must be finite")
        object.__setattr__(self, "values", values)


def bootstrap_pair_test(a: ScoreVector, b: ScoreVector, n_resamples: int = DEFAULT_RESAMPLES,
                        seed: int = 0) -> tuple[float, float]:
    """One-sided paired bootstrap p-values for "a superior to b" and for
    "b superior to a", both from one set of index draws.

    The draws depend only on (seed, n), so swapping a and b swaps the
    pair; p(a,b) + p(b,a) = 1 + (fraction of exactly-zero resamples).
    """
    check_ranking(2, n_resamples)
    va, vb = a.values, b.values
    if va.size != vb.size:
        raise LengthMismatch(f"score vectors differ in length: {va.size} vs {vb.size}")
    if va.size < 2:
        raise TooFewSamples("need at least two paired scores")
    diff = va - vb
    n = diff.size
    hits_ab = hits_ba = 0
    step = max(1, _BLOCK_ELEMENTS // n)
    base, extra = divmod(n_resamples, _N_PARTITIONS)
    for part in range(_N_PARTITIONS):
        size = base + (1 if part < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, part]))
        for lo in range(0, size, step):
            idx = rng.integers(0, n, size=(min(step, size - lo), n))
            stats = diff[idx].mean(axis=1)
            hits_ab += int(np.count_nonzero(stats <= 0.0))
            hits_ba += int(np.count_nonzero(stats >= 0.0))
    return hits_ab / n_resamples, hits_ba / n_resamples


@dataclass(frozen=True)
class SignificanceMatrix:
    """Directional p-values plus the table labels derived from them."""

    methods: tuple[str, ...]
    p_values: dict[tuple[str, str], float]   # (a, b) -> p for "a superior to b"
    top_ranked: frozenset[str]               # not significantly inferior to the best mean
    inferior_to_all: frozenset[str]          # significantly inferior to every other method


def check_ranking(n_methods: int, n_resamples: int) -> None:
    """Raise rank_methods' error for fewer than two methods or n_resamples
    outside [1000, MAX_RESAMPLES], so a caller can check both before scoring."""
    if n_methods < 2:
        raise TooFewSamples("rank_methods needs at least two methods")
    if n_resamples < 1000:
        raise OutOfRange(f"n_resamples must be >= 1000, got {n_resamples}")
    if n_resamples > MAX_RESAMPLES:
        raise OutOfRange(f"n_resamples must be <= {MAX_RESAMPLES}, got {n_resamples}")


def rank_methods(scores, n_resamples: int = DEFAULT_RESAMPLES, seed: int = 0) -> SignificanceMatrix:
    """Pairwise bootstrap comparison of two or more methods.

    Each unordered pair is drawn once, with a seed derived from the pair,
    for both directions.  The best-mean method is in top_ranked by
    construction; a method lands in inferior_to_all only if every other
    method beats it at SIGNIFICANCE_LEVEL.
    """
    scores = list(scores)
    check_ranking(len(scores), n_resamples)
    names = [s.method for s in scores]
    if len(set(names)) != len(names):
        raise OutOfRange("method names must be unique")

    n = scores[0].values.size
    for s in scores:
        if s.values.size != n:
            raise LengthMismatch("all score vectors must share one length")

    p: dict[tuple[str, str], float] = {}
    for i in range(len(scores)):
        for j in range(i + 1, len(scores)):
            pair_seed = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
            p[(names[i], names[j])], p[(names[j], names[i])] = bootstrap_pair_test(
                scores[i], scores[j], n_resamples, pair_seed)

    means = {s.method: float(s.values.mean()) for s in scores}
    best = max(names, key=lambda m: means[m])
    top = {
        m for m in names
        if m == best or p[(best, m)] >= SIGNIFICANCE_LEVEL
    }
    inferior = {
        m for m in names
        if all(p[(other, m)] < SIGNIFICANCE_LEVEL for other in names if other != m)
    }
    return SignificanceMatrix(tuple(names), p, frozenset(top), frozenset(inferior))
