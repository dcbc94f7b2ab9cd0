import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from segloss import metrics
from segloss.bounds import brute_force_sup
from segloss.errors import OutOfRange
from segloss.masks import BinaryMask, confusion_counts
from util import (
    all_masks,
    frac_dice,
    frac_hamming,
    frac_jaccard,
    frac_tversky,
    frac_weighted_hamming,
    mask_of,
    pairwise_hausdorff,
    set_counts,
)

Y = mask_of([1, 1, 0, 0])
YH = mask_of([1, 0, 1, 0])


def test_dice_worked_pair():
    assert metrics.dice(Y, YH) == 0.5


def test_dice_identity_and_empty_conventions():
    m = mask_of([1, 0, 1])
    assert metrics.dice(m, m) == 1.0
    empty = mask_of([0, 0, 0])
    assert metrics.dice(empty, empty) == 1.0
    assert metrics.dice(empty, m) == 0.0
    assert metrics.dice(m, empty) == 0.0


def test_jaccard_worked_pair_and_conversion():
    j = metrics.jaccard(Y, YH)
    assert j == pytest.approx(1 / 3, abs=1e-15)
    d = metrics.dice(Y, YH)
    assert d / (2 - d) == pytest.approx(j, abs=1e-15)


def test_jaccard_disjoint():
    assert metrics.jaccard(mask_of([1, 0]), mask_of([0, 1])) == 0.0


def test_hamming_worked_pair_identity_complement():
    assert metrics.hamming(Y, YH) == 0.5
    assert metrics.hamming(Y, Y) == 1.0
    comp = mask_of([0, 0, 1, 1])
    assert metrics.hamming(Y, comp) == 0.0


def test_weighted_hamming_matches_plain_at_class_fraction():
    y = mask_of([1, 0, 0, 0])
    yh = mask_of([0, 1, 0, 0])
    assert metrics.weighted_hamming(y, yh, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert metrics.hamming(y, yh) == 0.5


def test_weighted_hamming_identity_and_gamma_one():
    assert metrics.weighted_hamming(Y, Y, 0.7) == 1.0
    assert metrics.weighted_hamming(mask_of([1, 0]), mask_of([1, 1]), 1.0) == 1.0


def test_weighted_hamming_gamma_range():
    with pytest.raises(OutOfRange):
        metrics.weighted_hamming(Y, YH, 1.5)


def test_tversky_interpolates_dice_and_jaccard():
    assert metrics.tversky(Y, YH, 0.5, 0.5) == metrics.dice(Y, YH)
    assert metrics.tversky(Y, YH, 1.0, 1.0) == metrics.jaccard(Y, YH)
    assert metrics.tversky(Y, YH, 0.3, 0.7) == pytest.approx(0.5, abs=1e-15)


def test_tversky_weight_validation():
    with pytest.raises(OutOfRange, match="tversky weights must be > 0"):
        metrics.tversky(Y, YH, 0.0, 0.5)


def test_exhaustive_small_d_against_fraction_oracle():
    gammas = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]
    for d in (1, 2, 3, 4):
        for y in all_masks(d):
            for yh in all_masks(d):
                tp, fp, fn, tn = set_counts(y.data, yh.data)
                assert metrics.dice(y, yh) == pytest.approx(float(frac_dice(tp, fp, fn)), abs=1e-14)
                assert metrics.jaccard(y, yh) == pytest.approx(float(frac_jaccard(tp, fp, fn)), abs=1e-14)
                assert metrics.hamming(y, yh) == pytest.approx(float(frac_hamming(fp, fn, d)), abs=1e-14)
                for g in gammas:
                    assert metrics.weighted_hamming(y, yh, float(g)) == pytest.approx(
                        float(frac_weighted_hamming(fp, fn, tp + fn, d, g)), abs=1e-14
                    )
                assert metrics.tversky(y, yh, 0.25, 2.0) == pytest.approx(
                    float(frac_tversky(tp, fp, fn, Fraction(1, 4), Fraction(2))), abs=1e-14
                )


def test_exhaustive_invariants_small_d():
    for d in (2, 3, 5):
        for y in all_masks(d):
            for yh in all_masks(d):
                dv = metrics.dice(y, yh)
                jv = metrics.jaccard(y, yh)
                if y.count() and yh.count():
                    assert jv <= dv
                assert metrics.tversky(y, yh, 0.5, 0.5) == dv
                assert metrics.tversky(y, yh, 1.0, 1.0) == jv
                acc = metrics.evaluate(["accuracy"], y, yh)[0].value
                assert metrics.hamming(y, yh) == pytest.approx(acc, abs=1e-15)
                if 0 < y.count() < d:
                    assert metrics.weighted_hamming(y, yh, y.count() / d) == pytest.approx(
                        metrics.hamming(y, yh), abs=1e-12
                    )
                # symmetries
                assert metrics.dice(yh, y) == dv
                assert metrics.jaccard(yh, y) == jv
                assert metrics.tversky(y, yh, 0.3, 0.7) == pytest.approx(
                    metrics.tversky(yh, y, 0.7, 0.3), abs=1e-15
                )


def test_fbeta_one_equals_dice():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = mask_of(rng.integers(0, 2, size=9))
        yh = mask_of(rng.integers(0, 2, size=9))
        f1 = metrics.evaluate(["fbeta:1.0"], y, yh)[0]
        assert f1.value == pytest.approx(metrics.dice(y, yh), abs=1e-15)


def test_fbeta_frozen_values():
    # tp=2, fp=0, fn=2
    y = mask_of([1, 1, 1, 1, 0])
    yh = mask_of([1, 1, 0, 0, 0])
    f05 = metrics.evaluate(["fbeta:0.5"], y, yh)[0].value
    f20 = metrics.evaluate(["fbeta:2.0"], y, yh)[0].value
    assert f05 == pytest.approx(2.5 / 3, abs=1e-15)
    assert f20 == pytest.approx(10 / 18, abs=1e-15)
    with pytest.raises(OutOfRange):
        metrics.evaluate(["fbeta"], y, yh)


@pytest.mark.parametrize("counts, limit", [
    ((1, 0, 0, 4), 1.0),   # perfect prediction
    ((0, 0, 0, 4), 1.0),   # both empty: the convention
    ((2, 1, 3, 9), 0.4),   # the recall tp/(tp+fn)
    ((0, 3, 0, 9), 0.0),   # only false positives
])
@pytest.mark.parametrize("b", [1e154, 1e200, 1e308])
def test_fbeta_past_the_float_range_gives_its_limit(counts, limit, b):
    assert metrics.fbeta_from_counts(*counts, b) == limit


@pytest.mark.parametrize("b", [0.5, 1.0, 1.5, 2.0, 1e100])
def test_fbeta_from_counts_is_the_plain_ratio_bit_for_bit(b):
    d = 12
    tp, fp, fn = (a.ravel() for a in np.meshgrid(*[np.arange(d + 1.0)] * 3, indexing="ij"))
    keep = tp + fp + fn <= d
    tp, fp, fn = tp[keep], fp[keep], fn[keep]
    b2 = b * b
    den = (1.0 + b2) * tp + b2 * fn + fp
    plain = np.where(den == 0, 1.0, (1.0 + b2) * tp / np.where(den == 0, 1.0, den))
    got = metrics.fbeta_from_counts(tp, fp, fn, d, b)
    assert np.array_equal(got.view(np.int64), plain.view(np.int64))


def test_hausdorff_three_four_five():
    a = np.zeros((5, 5), dtype=np.uint8)
    a[0, 0] = 1  # (x=0, y=0)
    b = np.zeros((5, 5), dtype=np.uint8)
    b[4, 3] = 1  # (x=3, y=4)
    hd = metrics.evaluate(["hausdorff"], BinaryMask.from_array(a), BinaryMask.from_array(b))[0]
    assert hd.defined and hd.value == pytest.approx(5.0, abs=1e-12)


def test_hausdorff_identity_and_subset():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[1:3, 1:3] = 1
    ma = BinaryMask.from_array(a)
    assert metrics.evaluate(["hausdorff"], ma, ma)[0].value == 0.0
    b = a.copy()
    b[1, 1] = 0
    mb = BinaryMask.from_array(b)
    # dropped corner sits one pixel from its nearest remaining neighbour
    v = metrics.evaluate(["hausdorff"], ma, mb)[0].value
    assert v == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_undefined_when_side_empty():
    empty = mask_of([0, 0, 0, 0])
    full = mask_of([1, 1, 0, 0])
    r = metrics.evaluate(["hausdorff"], empty, full)[0]
    assert not r.defined and math.isnan(r.value)


def _hausdorff_pair(a: np.ndarray, b: np.ndarray):
    """hausdorff_distance on uint8 masks, and the pairwise-scan oracle."""
    got = metrics.hausdorff_distance(BinaryMask.from_array(a.astype(np.uint8)),
                                     BinaryMask.from_array(b.astype(np.uint8)))
    return got, pairwise_hausdorff(a != 0, b != 0)


HAUSDORFF_SHAPES = [(1, 1, 1), (1, 1, 9), (1, 9, 1), (7, 1, 1), (12, 17), (1, 12, 17),
                    (3, 1, 20), (2, 15, 1), (4, 9, 13), (6, 11, 5), (9, 16, 24)]


def _random_sub_box(shape, rng) -> tuple[slice, ...]:
    """A random box inside ``shape`` that leaves a margin where it can."""
    box = []
    for n in shape:
        lo = int(rng.integers(0, (n + 1) // 2))
        box.append(slice(lo, int(rng.integers(lo, n - lo)) + 1))
    return tuple(box)


def _inside(mask: np.ndarray, box) -> np.ndarray:
    out = np.zeros_like(mask)
    out[box] = mask[box]
    return out


def _touching_every_face(mask: np.ndarray, rng) -> np.ndarray:
    """``mask`` with one more voxel set at a random spot of each face."""
    out = mask.copy()
    for axis, n in enumerate(mask.shape):
        for end in (0, n - 1):
            spot = [int(rng.integers(0, m)) for m in mask.shape]
            spot[axis] = end
            out[tuple(spot)] = True
    return out


@pytest.mark.parametrize("shape", HAUSDORFF_SHAPES)
def test_hausdorff_equals_pairwise_scan(shape):
    rng = np.random.default_rng(sum(shape) * 1009 + len(shape))
    # a second stream, so the original cases keep their draws
    box_rng = np.random.default_rng(sum(shape) * 2017 + len(shape))
    for density in (0.02, 0.2, 0.6, 1.0):
        a = rng.random(shape) < density
        b = rng.random(shape) < density
        single = np.zeros(shape, dtype=bool)
        single[tuple(rng.integers(0, n) for n in shape)] = True
        # the transforms see only the bounding box of y | yhat: masks in
        # interior sub-boxes (their own, or one shared) and masks touching
        # every face, where the box is the whole volume
        box_a, box_b = _random_sub_box(shape, box_rng), _random_sub_box(shape, box_rng)
        a_in = _inside(a, box_a)
        faces = (_touching_every_face(a, box_rng), _touching_every_face(b, box_rng))
        for y, yhat in ((a, b), (single, b), (a, single), (a_in, _inside(b, box_b)),
                        (a_in, _inside(b, box_a)), (single, a_in), faces, (single, faces[1])):
            got, want = _hausdorff_pair(y, yhat)
            if math.isnan(want):
                assert not got.defined and math.isnan(got.value)
            else:
                assert got.defined and got.value == want


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 6, 1), (1, 1, 6), (5, 1, 1), (1, 7, 4), (3, 8, 5)])
def test_hausdorff_opposite_corners_is_exact_diagonal(shape):
    a = np.zeros(shape, dtype=np.uint8)
    b = np.zeros(shape, dtype=np.uint8)
    a[0, 0, 0] = 1
    b[-1, -1, -1] = 1
    got = metrics.hausdorff_distance(BinaryMask.from_array(a), BinaryMask.from_array(b))
    assert got.defined and got.value == math.sqrt(sum((n - 1) ** 2 for n in shape))


def test_hausdorff_foreground_on_one_axis0_line_matches_pairwise_scan():
    shape = (6, 9, 11)
    rng = np.random.default_rng(7)
    line = np.zeros(shape, dtype=bool)
    line[rng.random(shape[0]) < 0.5, 4, 7] = True
    line[0, 4, 7] = True
    other = rng.random(shape) < 0.3
    for a, b in ((line, other), (other, line), (line, line[::-1])):
        got, want = _hausdorff_pair(a, b)
        assert got.defined and got.value == want


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 4, 5), (3, 4, 5)])
def test_hausdorff_undefined_when_either_side_empty(shape):
    empty = np.zeros(shape, dtype=np.uint8)
    full = np.ones(shape, dtype=np.uint8)
    for a, b in ((empty, full), (full, empty), (empty, empty)):
        got = metrics.hausdorff_distance(BinaryMask.from_array(a), BinaryMask.from_array(b))
        assert not got.defined and math.isnan(got.value)


def test_hausdorff_imports_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys, numpy as np\n"
            "import segloss.cli\n"
            "from segloss import metrics\n"
            "from segloss.masks import BinaryMask\n"
            "def loaded():\n"
            "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "assert not loaded(), 'scipy loaded at import'\n"
            "m = BinaryMask.from_array(np.eye(5, dtype=np.uint8))\n"
            "assert metrics.evaluate(['hausdorff'], m, m)[0].value == 0.0\n"
            "assert not loaded(), 'scipy loaded by hausdorff'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_avd_percent_and_undefined():
    y = mask_of([1, 1, 0, 0, 0])
    yh = mask_of([1, 1, 1, 0, 0])
    r = metrics.evaluate(["avd"], y, yh)[0]
    assert r.defined and r.value == pytest.approx(50.0, abs=1e-12)
    r2 = metrics.evaluate(["avd"], mask_of([0, 0]), mask_of([1, 0]))[0]
    assert not r2.defined


def test_auxiliary_unknown_kind():
    with pytest.raises(OutOfRange):
        metrics.evaluate(["perimeter"], Y, YH)


def test_every_table_row_parses_evaluates_and_feeds_the_bound_search():
    rng = np.random.default_rng(11)
    y, yh = mask_of(rng.integers(0, 2, size=12)), mask_of(rng.integers(0, 2, size=12))
    counts = (*confusion_counts(y, yh), y.d)
    for head, kind in metrics.METRICS.items():
        mid = metrics.parse_metric_id(head + ":0.4" * len(kind.params))
        assert metrics.parse_metric_id(mid.label()) == mid
        (value,) = metrics.evaluate([mid.label()], y, yh)
        assert value.name == mid.label()
        if kind.counts is None:
            with pytest.raises(OutOfRange):
                brute_force_sup(mid, metrics.MetricId("dice"), 3)
            continue
        assert value.value == float(kind.counts(*counts, *mid.params))
        assert brute_force_sup(mid, metrics.MetricId("dice"), 3).d == 3


def test_distinct_tokens_get_distinct_labels_that_parse_back():
    tokens = ["fbeta:1", "fbeta:1.0000001", "fbeta:1e-7", "fbeta:1.23456789e-7",
              "tversky:0.3:0.7", "tversky:0.30000001:0.7", "tversky:0.1:0.2",
              "tversky:0.1:0.20000000000000001", "whamming", "whamming:0.3"]
    mids = {metrics.parse_metric_id(t) for t in tokens}
    assert len(mids) == len(tokens) - 1  # tversky:0.1:0.2 is written twice
    labels = {mid.label() for mid in mids}
    assert len(labels) == len(mids)
    for mid in mids:
        assert metrics.parse_metric_id(mid.label()) == mid
    # a numpy parameter labels as a plain float
    assert metrics.MetricId("fbeta", (np.float64(1.0000001),)).label() == "fbeta:1.0000001"
    # parameters that :g keeps exactly keep their old labels
    assert metrics.parse_metric_id("tversky:0.3:0.7").label() == "tversky:0.3:0.7"
    assert metrics.parse_metric_id("fbeta:2.0").label() == "fbeta:2"


@pytest.mark.parametrize("token", ["whamming:1.5", "whamming:nan", "fbeta:0", "fbeta:-1",
                                   "fbeta:inf", "tversky:1:nan", "tversky:0.3", "dice:1", "fbeta",
                                   "jaccard:", "hausdorff:2", "euclid"])
def test_parse_metric_id_rejects_bad_tokens(token):
    with pytest.raises(OutOfRange):
        metrics.parse_metric_id(token)


def test_parse_metric_id_defaults_and_grammar():
    assert metrics.parse_metric_id(" whamming ") == metrics.MetricId("whamming", (0.5,))
    assert "whamming[:<g>]" in metrics.METRIC_GRAMMAR
    assert "bare whamming means whamming:0.5" in metrics.METRIC_GRAMMAR
    assert "hausdorff" in metrics.METRIC_GRAMMAR
    assert "hausdorff" not in metrics.COUNTS_METRIC_GRAMMAR
