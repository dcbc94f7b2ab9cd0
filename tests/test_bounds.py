import math
from fractions import Fraction

import numpy as np
import pytest

from segloss.bounds import (
    MAX_BRUTE_FORCE_D,
    brute_force_sup,
    closed_form_bounds,
    dice_jaccard_bounds,
    hamming_blowup_witness,
    parse_metric_id,
    risk_inequality_check,
    soft_dice_l2_blowup_witness,
    tversky_dice_bounds,
)
from segloss.errors import DTooLarge, EmptySet, OutOfRange
from segloss.losses import LossSpec, loss_value
from segloss.masks import confusion_counts
from util import (
    all_masks,
    frac_dice,
    frac_jaccard,
    mask_of,
    mask_pair_sup,
    prob_of,
    set_counts,
)


def test_dice_jaccard_closed_form():
    abs_err, rel_err = dice_jaccard_bounds()
    assert abs_err == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-15)
    assert abs_err == pytest.approx(0.171573, abs=5e-7)
    assert rel_err == 1.0
    # the maximizing argument satisfies the first-order condition (2-x)^2 = 2
    x = 2 - math.sqrt(2)
    assert (2 - x) ** 2 == pytest.approx(2.0, abs=1e-12)
    assert abs(x - x / (2 - x)) == pytest.approx(abs_err, abs=1e-15)


def test_tversky_dice_closed_form_values():
    assert tversky_dice_bounds(0.5, 0.5) == (0.0, 0.0)
    a1, r1 = tversky_dice_bounds(1.0, 1.0)
    assert a1 == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    assert r1 == pytest.approx(1.0, abs=1e-12)
    a2, r2 = tversky_dice_bounds(2.0, 0.5)
    assert a2 == pytest.approx(1 / 3, abs=1e-12)
    assert r2 == pytest.approx(3.0, abs=1e-12)


def test_tversky_dice_closed_form_symmetry_and_weight_check():
    for a, b in [(0.1, 0.9), (0.3, 0.4), (1.0, 0.2)]:
        assert tversky_dice_bounds(a, b) == tversky_dice_bounds(b, a)
    with pytest.raises(OutOfRange, match="tversky weights must be > 0"):
        tversky_dice_bounds(-1.0, 0.5)


def test_brute_force_d1_is_degenerate():
    rep = brute_force_sup("dice", "jaccard", 1)
    assert rep.empirical_abs == 0.0
    assert rep.empirical_rel == 0.0


def test_brute_force_d5_value_and_witness():
    rep = brute_force_sup("dice", "jaccard", 5)
    assert rep.empirical_abs == pytest.approx(4 / 7 - 2 / 5, abs=1e-15)
    w = rep.witness
    assert (w.tp, w.n_true, w.n_pred) == (2, 3, 4)
    # the recorded pair really attains the reported value
    counts = confusion_counts(w.y, w.yhat)
    assert counts == (w.tp, w.fp, w.fn)
    d_val = float(frac_dice(*counts))
    j_val = float(frac_jaccard(*counts))
    assert abs(d_val - j_val) == pytest.approx(rep.empirical_abs, abs=1e-15)


def test_brute_force_matches_pure_python_oracle_d4():
    best_abs = 0.0
    best_rel = 0.0
    for y in all_masks(4):
        for yh in all_masks(4):
            tp, fp, fn, _ = set_counts(y.data, yh.data)
            if tp == fp == fn == 0 and y.count() == 0 and yh.count() == 0:
                continue
            dv = frac_dice(tp, fp, fn)
            jv = frac_jaccard(tp, fp, fn)
            best_abs = max(best_abs, abs(float(dv) - float(jv)))
            if dv > 0 and jv > 0:
                best_rel = max(best_rel, float(max(dv / jv, jv / dv)) - 1)
    rep = brute_force_sup("dice", "jaccard", 4)
    assert rep.empirical_abs == pytest.approx(best_abs, abs=1e-12)
    assert rep.empirical_rel == pytest.approx(best_rel, abs=1e-12)


def test_brute_force_nondecreasing_and_below_closed_form():
    closed_abs, closed_rel = dice_jaccard_bounds()
    prev = -1.0
    for d in range(1, 9):
        rep = brute_force_sup("dice", "jaccard", d)
        assert rep.empirical_abs >= prev
        assert rep.empirical_abs <= closed_abs + 1e-12
        assert rep.empirical_rel <= closed_rel + 1e-12
        prev = rep.empirical_abs


def test_brute_force_identical_metrics():
    rep = brute_force_sup("dice", "tversky:0.5:0.5", 6)
    assert rep.empirical_abs == 0.0
    assert rep.closed_form_abs == 0.0 and rep.closed_form_rel == 0.0


def test_brute_force_tversky_respects_closed_form_spot():
    for a, b in [(0.1, 0.9), (1.0, 0.1), (0.4, 0.6), (1.0, 1.0)]:
        rep = brute_force_sup("dice", f"tversky:{a}:{b}", 7)
        ca, cr = tversky_dice_bounds(a, b)
        assert rep.closed_form_abs == pytest.approx(ca, abs=1e-12)
        assert rep.closed_form_rel == pytest.approx(cr, abs=1e-12)
        assert rep.empirical_abs <= ca + 1e-12
        assert rep.empirical_rel <= cr + 1e-12


def test_brute_force_whamming_pair():
    rep = brute_force_sup("dice", "whamming:0.5", 5)
    assert rep.closed_form_abs == 1.0
    assert math.isinf(rep.closed_form_rel)
    assert 0.0 < rep.empirical_abs <= 1.0


def _fields(rep):
    def w(x):
        if x is None:
            return None
        return (x.tp, x.fp, x.fn, x.value, x.y.dims, bytes(x.y.data), x.yhat.dims, bytes(x.yhat.data))

    return (rep.metric_a, rep.metric_b, rep.d, rep.closed_form_abs, rep.closed_form_rel,
            rep.empirical_abs, rep.empirical_rel, w(rep.witness), w(rep.witness_rel))


@pytest.mark.parametrize("pair", [
    ("dice", "jaccard"), ("jaccard", "dice"), ("dice", "tversky:0.3:0.7"),
    ("dice", "tversky:2:0.1"), ("dice", "whamming:0.5"), ("dice", "whamming:0"),
    ("dice", "hamming"),
    # its rel supremum at d = 3 ties two triples that differ only in fp
    ("whamming:0", "whamming:0.5"),
])
def test_brute_force_equals_mask_pair_scan(pair):
    for d in range(1, 10):
        assert _fields(brute_force_sup(*pair, d)) == _fields(mask_pair_sup(*pair, d)), d


@pytest.mark.parametrize("b", ["jaccard", "tversky:0.3:0.7", "tversky:2:0.1", "tversky:1:1"])
def test_brute_force_approaches_closed_form(b):
    reps = [brute_force_sup("dice", b, d) for d in (12, 50, 100)]
    assert reps[-1].closed_form_abs - reps[-1].empirical_abs < 1e-6
    rel_gaps = [r.closed_form_rel - r.empirical_rel for r in reps]
    assert all(x >= y for x, y in zip(rel_gaps, rel_gaps[1:]))
    if b in ("tversky:0.3:0.7", "tversky:1:1"):
        assert rel_gaps[-1] < 0.05


def test_brute_force_whamming_has_no_relative_bound():
    # weighted Hamming does not relatively approximate Dice: the ratio
    # keeps growing with d
    assert brute_force_sup("dice", "whamming:0.5", 100).empirical_rel > 20


def test_brute_force_limits():
    with pytest.raises(DTooLarge):
        brute_force_sup("dice", "jaccard", MAX_BRUTE_FORCE_D + 1)
    with pytest.raises(OutOfRange):
        brute_force_sup("dice", "jaccard", 0)


def test_parse_metric_id():
    assert parse_metric_id("tversky:0.3:0.7").params == (0.3, 0.7)
    assert parse_metric_id("whamming").params == (0.5,)
    with pytest.raises(OutOfRange):
        parse_metric_id("euclid")
    with pytest.raises(OutOfRange, match="tversky weights must be > 0"):
        parse_metric_id("tversky:0:1")


def test_closed_form_normalizes_tversky_special_points():
    a, r = closed_form_bounds(parse_metric_id("jaccard"), parse_metric_id("tversky:1:1"))
    assert (a, r) == (0.0, 0.0)
    a, r = closed_form_bounds(parse_metric_id("jaccard"), parse_metric_id("tversky:0.5:0.5"))
    assert a == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-15)
    assert r == 1.0


def test_blowup_witness_frozen_case():
    w = hamming_blowup_witness(0.1)
    assert (w.tp, w.fp, w.fn, w.d) == (1, 10, 0, 100)
    assert w.gamma_star == 0.0
    assert w.dice_value == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
    assert w.hamming_value == pytest.approx(float(Fraction(89, 99)), abs=1e-15)
    assert w.ratio == pytest.approx(float(Fraction(534, 99)), abs=1e-12)
    assert w.ratio >= 5.39


def test_blowup_ratio_grows_without_bound():
    assert hamming_blowup_witness(0.01).ratio > 49
    assert hamming_blowup_witness(0.1).ratio < hamming_blowup_witness(0.01).ratio
    assert hamming_blowup_witness(0.05).ratio > 10
    assert hamming_blowup_witness(0.005).ratio > 100


def test_blowup_range_check():
    for bad in (0.0, -0.1, 0.62, 1.0):
        with pytest.raises(OutOfRange):
            hamming_blowup_witness(bad)


def test_blowup_counts_follow_the_family():
    # |y \ yhat| = 0, |yhat \ y| = a*d, |y n yhat| = a^2*d
    for a in (0.1, 0.25, 0.05):
        w = hamming_blowup_witness(a)
        fr = Fraction(a).limit_denominator(10 ** 6)
        assert w.fn == 0
        assert Fraction(w.fp, w.d) == fr
        assert Fraction(w.tp, w.d) == fr * fr


@pytest.mark.parametrize("d", [1, 2, 8, 100, 4096])
def test_soft_dice_l1_and_soft_jaccard_satisfy_the_dice_jaccard_identity(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        y = (rng.random(d) < rng.random()).astype(np.uint8)
        p = rng.random(d) ** rng.uniform(0.2, 5.0)
        dice = 1.0 - loss_value(LossSpec("soft_dice_l1"), y, p)
        jac = 1.0 - loss_value(LossSpec("soft_jaccard"), y, p)
        assert jac == pytest.approx(dice / (2.0 - dice), rel=0, abs=1e-15)


@pytest.mark.parametrize("m", [1, 4, 100, 10_000])
def test_soft_dice_l2_blowup_ratio_is_sqrt_m(m):
    w = soft_dice_l2_blowup_witness(m)
    assert w.ratio == pytest.approx(math.sqrt(m), rel=1e-12)
    # the witness scores the pair as the trained losses do
    assert 1.0 - loss_value(LossSpec("soft_dice_l2"), w.y, w.p) == pytest.approx(w.soft_dice, abs=1e-15)
    assert 1.0 - loss_value(LossSpec("soft_jaccard"), w.y, w.p) == pytest.approx(w.soft_jaccard, abs=1e-15)
    with pytest.raises(OutOfRange):
        soft_dice_l2_blowup_witness(0)


def test_risk_inequality_single_and_perfect():
    y = mask_of([1, 1, 0, 0])
    yh = mask_of([1, 0, 1, 0])
    rep = risk_inequality_check([(y, yh)])
    assert rep.pointwise_ok and rep.jensen_ok
    rep2 = risk_inequality_check([(y, y), (yh, yh)])
    assert rep2.pointwise_ok and rep2.jensen_ok
    assert rep2.mean_dice_loss == 0.0 and rep2.mean_jaccard_loss == 0.0


def test_risk_inequality_random_pairs_and_probmaps():
    rng = np.random.default_rng(123)
    samples = []
    for _ in range(500):
        y = mask_of(rng.integers(0, 2, size=32))
        if rng.uniform() < 0.5:
            samples.append((y, mask_of(rng.integers(0, 2, size=32))))
        else:
            samples.append((y, prob_of(rng.uniform(0, 1, size=32))))
    rep = risk_inequality_check(samples)
    assert rep.pointwise_ok and rep.jensen_ok


def test_risk_inequality_empty():
    with pytest.raises(EmptySet):
        risk_inequality_check([])
