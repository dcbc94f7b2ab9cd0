"""Nonparametric paired bootstrap significance testing and the
top-ranked / inferior-to-all labeling used in the experiment reports.

The test statistic is the paired mean difference on resampled image
indices; the one-sided p-value is the fraction of resamples whose
statistic is <= 0 (testing "a superior to b").  Resamples hitting exactly
zero count toward p, which is the conservative direction.

Resampling is split into a fixed number of partitions with derived seeds,
so the p-value is bit-identical however the partitions are executed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, OutOfRange, TooFewSamples

DEFAULT_RESAMPLES = 10_000
MAX_RESAMPLES = 10_000_000  # 10**6 resamples take about 0.6 s at n = 60 on a 2-core host
SIGNIFICANCE_LEVEL = 0.05

# fixed partition count: it fixes the index draws, and with them the
# p-values the significance goldens pin
_N_PARTITIONS = 8
# index draws per block, about 8 MB of int64; numpy's integer stream does
# not depend on how the draws are split into blocks, so neither does p
_BLOCK_ELEMENTS = 1_000_000


@dataclass(frozen=True)
class ScoreVector:
    """Per-image scores for one method, aligned across methods by index."""

    method: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64).ravel())


def _partition_sizes(n_resamples: int) -> list[int]:
    base, extra = divmod(n_resamples, _N_PARTITIONS)
    return [base + (1 if i < extra else 0) for i in range(_N_PARTITIONS)]


def bootstrap_pair_test(a: ScoreVector, b: ScoreVector, n_resamples: int = DEFAULT_RESAMPLES,
                        seed: int = 0) -> float:
    """One-sided paired bootstrap p-value for "a superior to b".

    Index draws depend only on (seed, n); swapping a and b with the same
    seed therefore flips the statistic sign exactly, so p(a,b) + p(b,a) =
    1 + (fraction of exactly-zero resamples).
    """
    check_ranking(2, n_resamples)
    va, vb = a.values, b.values
    if va.size != vb.size:
        raise LengthMismatch(f"score vectors differ in length: {va.size} vs {vb.size}")
    if va.size < 2:
        raise TooFewSamples("need at least two paired scores")
    diff = va - vb
    n = diff.size
    hits = 0
    step = max(1, _BLOCK_ELEMENTS // n)
    for part, size in enumerate(_partition_sizes(n_resamples)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, part]))
        for lo in range(0, size, step):
            idx = rng.integers(0, n, size=(min(step, size - lo), n))
            stats = diff[idx].mean(axis=1)
            hits += int(np.count_nonzero(stats <= 0.0))
    return hits / n_resamples


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


def rank_methods(scores, n_resamples: int = DEFAULT_RESAMPLES, seed: int = 0,
                 level: float = SIGNIFICANCE_LEVEL) -> SignificanceMatrix:
    """Pairwise bootstrap comparison of two or more methods.

    Per-pair seeds derive from the unordered pair so both directions share
    the same index draws.  The best-mean method is in top_ranked by
    construction; a method lands in inferior_to_all only if every other
    method beats it at the given level.
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
            p_ij = bootstrap_pair_test(scores[i], scores[j], n_resamples, pair_seed)
            p_ji = bootstrap_pair_test(scores[j], scores[i], n_resamples, pair_seed)
            p[(names[i], names[j])] = p_ij
            p[(names[j], names[i])] = p_ji

    means = {s.method: float(s.values.mean()) for s in scores}
    best = max(names, key=lambda m: means[m])
    top = {
        m for m in names
        if m == best or p[(best, m)] >= level
    }
    inferior = {
        m for m in names
        if all(p[(other, m)] < level for other in names if other != m)
    }
    return SignificanceMatrix(tuple(names), p, frozenset(top), frozenset(inferior))
