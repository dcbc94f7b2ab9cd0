import numpy as np
import pytest

from segloss import stats
from segloss.errors import DataError, LengthMismatch, OutOfRange, TooFewSamples
from segloss.stats import ScoreVector, bootstrap_pair_test, rank_methods

from util import bootstrap_statistics, one_direction_p


def sv(name, values):
    return ScoreVector(name, np.asarray(values, dtype=float))


def test_clear_gap_gives_zero_p():
    a = sv("a", [0.9] * 100)
    b = sv("b", [0.1] * 100)
    assert bootstrap_pair_test(a, b, 1000, seed=1) == (0.0, 1.0)


def test_identical_vectors_never_significant():
    # every resampled paired difference is exactly zero; zero counts toward
    # p (conservative), so p = 1 and the pair can never come out significant
    vals = np.linspace(0.2, 0.9, 50)
    assert bootstrap_pair_test(sv("a", vals), sv("b", vals), 1000, seed=2) == (1.0, 1.0)


def test_equal_distribution_is_inconclusive():
    rng = np.random.default_rng(7)
    base = rng.uniform(0.3, 0.9, size=200)
    noise_a = rng.normal(0, 0.05, size=200)
    noise_b = rng.normal(0, 0.05, size=200)
    p, _ = bootstrap_pair_test(sv("a", base + noise_a), sv("b", base + noise_b), 2000, seed=3)
    assert 0.1 < p < 0.9


def test_determinism_and_seed_sensitivity():
    rng = np.random.default_rng(11)
    a = sv("a", rng.uniform(0, 1, 40))
    b = sv("b", rng.uniform(0, 1, 40))
    p1 = bootstrap_pair_test(a, b, 2000, seed=5)
    p2 = bootstrap_pair_test(a, b, 2000, seed=5)
    assert p1 == p2
    p3 = bootstrap_pair_test(a, b, 2000, seed=6)
    assert p1[0] != p3[0]  # almost surely


def test_shift_invariance():
    rng = np.random.default_rng(13)
    av = rng.uniform(0, 0.5, 60)
    bv = rng.uniform(0, 0.5, 60)
    p1 = bootstrap_pair_test(sv("a", av), sv("b", bv), 1500, seed=8)
    p2 = bootstrap_pair_test(sv("a", av + 0.25), sv("b", bv + 0.25), 1500, seed=8)
    assert p1 == p2


def test_reversal_complement_up_to_zero_ties():
    rng = np.random.default_rng(17)
    av = rng.uniform(0, 1, 80)
    bv = av + rng.normal(0.01, 0.05, 80)
    n = 4000
    p_ab, p_ba = bootstrap_pair_test(sv("a", av), sv("b", bv), n, seed=9)
    # each resample counts once per direction, and a zero statistic in both
    zeros = int(np.count_nonzero(bootstrap_statistics(av, bv, n, seed=9) == 0.0))
    assert p_ab * n + p_ba * n == n + zeros


@pytest.mark.parametrize("n", [3, 40])
def test_block_size_does_not_change_p(monkeypatch, n):
    rng = np.random.default_rng(19)
    a = sv("a", rng.uniform(0, 1, n))
    b = sv("b", rng.uniform(0, 1, n))
    # 1251 resamples split into partitions of 157 and 156 rows
    want = [bootstrap_pair_test(a, b, r, seed=4) for r in (1000, 1251)]
    for elements in (1, 2 * n + 1, 7 * n, 160 * n):
        monkeypatch.setattr(stats, "_BLOCK_ELEMENTS", elements)
        assert [bootstrap_pair_test(a, b, r, seed=4) for r in (1000, 1251)] == want


@pytest.mark.parametrize("n", [3, 40])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
def test_one_pass_matches_two_one_direction_passes_bit_for_bit(n, ties):
    rng = np.random.default_rng(31)
    if ties:
        # scores on a 0.25 grid, 60% of pairs equal: many resampled means are exactly 0
        av = rng.integers(0, 3, n) * 0.25
        bv = np.where(rng.uniform(size=n) < 0.6, av, rng.integers(0, 3, n) * 0.25)
    else:
        av, bv = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    a, b = sv("a", av), sv("b", bv)
    for r in (1000, 1251):
        got = bootstrap_pair_test(a, b, r, seed=4)
        assert got == (one_direction_p(av, bv, r, 4), one_direction_p(bv, av, r, 4))
        assert bootstrap_pair_test(b, a, r, seed=4) == got[::-1]
        if ties:
            assert sum(got) > 1.0  # the tied pair has exactly-zero resamples


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_score_vector_rejects_non_finite_scores(bad):
    with pytest.raises(DataError, match="finite"):
        sv("a", [0.5, bad, 0.25, 0.75])


def test_validation_errors():
    a = sv("a", [0.1, 0.2])
    with pytest.raises(OutOfRange):
        bootstrap_pair_test(a, a, 999, seed=0)
    stats.check_ranking(2, stats.MAX_RESAMPLES)
    with pytest.raises(OutOfRange, match="n_resamples must be <= 10000000"):
        bootstrap_pair_test(a, a, stats.MAX_RESAMPLES + 1, seed=0)
    with pytest.raises(LengthMismatch):
        bootstrap_pair_test(a, sv("b", [0.1, 0.2, 0.3]), 1000, seed=0)
    with pytest.raises(TooFewSamples):
        bootstrap_pair_test(sv("a", [0.5]), sv("b", [0.4]), 1000, seed=0)


def test_rank_methods_identical_pair():
    vals = np.linspace(0, 1, 30)
    m = rank_methods([sv("a", vals), sv("b", vals)], 1000, seed=1)
    assert m.top_ranked == {"a", "b"}
    assert m.inferior_to_all == frozenset()


def test_rank_methods_dominating_method():
    rng = np.random.default_rng(23)
    base = rng.uniform(0.1, 0.2, 50)
    scores = [
        sv("big", base + 0.8),
        sv("mid1", base + rng.normal(0, 0.002, 50)),
        sv("mid2", base + rng.normal(0, 0.002, 50)),
    ]
    m = rank_methods(scores, 2000, seed=2)
    assert m.top_ranked == {"big"}
    assert "big" not in m.inferior_to_all


def test_rank_methods_clear_gap_pair():
    m = rank_methods([sv("win", [0.9] * 40), sv("lose", [0.1] * 40)], 1000, seed=3)
    assert m.top_ranked == {"win"}
    assert m.inferior_to_all == {"lose"}
    assert m.p_values[("win", "lose")] == 0.0
    assert m.p_values[("lose", "win")] == 1.0


def test_rank_methods_best_mean_always_top_ranked():
    rng = np.random.default_rng(29)
    for trial in range(5):
        scores = [sv(f"m{k}", rng.uniform(0, 1, 25)) for k in range(4)]
        m = rank_methods(scores, 1000, seed=trial)
        best = max(scores, key=lambda s: s.values.mean()).method
        assert best in m.top_ranked


def test_rank_methods_needs_two():
    with pytest.raises(TooFewSamples):
        rank_methods([sv("a", [0.1, 0.2])], 1000, seed=0)
