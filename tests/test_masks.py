import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segloss.errors import DimMismatch, DTooLarge, OutOfRange
from segloss.masks import BinaryMask, ProbMap, confusion_counts, threshold
from util import all_masks, bit_matrix, enumerate_mask_pairs, mask_of, prob_of, set_counts


def test_confusion_counts_worked_pair():
    tp, fp, fn = confusion_counts(mask_of([1, 1, 0, 0]), mask_of([1, 0, 1, 0]))
    assert (tp, fp, fn, 4 - tp - fp - fn) == (1, 1, 1, 1)


def test_confusion_counts_identity():
    y = mask_of([1, 0, 1, 1, 0])
    tp, fp, fn = confusion_counts(y, y)
    assert (tp, fp, fn, y.d - tp - fp - fn) == (3, 0, 0, 2)


def test_confusion_counts_both_empty():
    tp, fp, fn = confusion_counts(mask_of([0, 0, 0, 0]), mask_of([0, 0, 0, 0]))
    assert (tp, fp, fn, 4 - tp - fp - fn) == (0, 0, 0, 4)


def test_confusion_counts_sum_to_d_and_match_set_oracle():
    rng = np.random.default_rng(11)
    for _ in range(50):
        yb = rng.integers(0, 2, size=17)
        hb = rng.integers(0, 2, size=17)
        tp, fp, fn = confusion_counts(mask_of(yb), mask_of(hb))
        assert (tp, fp, fn, 17 - tp - fp - fn) == set_counts(yb, hb)
        assert 17 - tp - fp - fn >= 0


def test_confusion_counts_swap_symmetry():
    for y in all_masks(4):
        for yh in all_masks(4):
            tp, fp, fn = confusion_counts(y, yh)
            assert confusion_counts(yh, y) == (tp, fn, fp)


def test_confusion_counts_dim_mismatch():
    with pytest.raises(DimMismatch):
        confusion_counts(mask_of([1, 0]), mask_of([1, 0, 0]))


def test_threshold_basic_and_strict_ties():
    assert threshold(prob_of([0.3, 0.7]), 0.5).data.tolist() == [0, 1]
    assert threshold(prob_of([0.5, 0.5]), 0.5).data.tolist() == [0, 0]


def test_threshold_idempotent_on_vertices():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=12)
    out = threshold(prob_of(bits.astype(float)), 0.5)
    assert out.data.tolist() == bits.tolist()


def test_threshold_then_self_confusion_is_clean():
    p = prob_of([0.1, 0.6, 0.5, 0.9])
    m = threshold(p, 0.5)
    _, fp, fn = confusion_counts(m, m)
    assert fp == 0 and fn == 0


def test_threshold_range_check():
    with pytest.raises(OutOfRange):
        threshold(prob_of([0.5]), 1.5)


def test_enumerate_d1_exhaustive():
    pairs = [(y.data.tolist(), h.data.tolist()) for y, h in enumerate_mask_pairs(1)]
    assert pairs == [([0], [0]), ([0], [1]), ([1], [0]), ([1], [1])]


def test_enumerate_d2_first_pair_and_count():
    pairs = list(enumerate_mask_pairs(2))
    assert len(pairs) == 16
    assert pairs[0][0].data.tolist() == [0, 0]
    assert pairs[0][1].data.tolist() == [0, 0]


def test_enumerate_counts_and_uniqueness():
    for d in (3, 5):
        seen = set()
        n = 0
        for y, h in enumerate_mask_pairs(d):
            seen.add((bytes(y.data), bytes(h.data)))
            n += 1
        assert n == 4 ** d
        assert len(seen) == n


def test_enumerate_lexicographic_order():
    prev = None
    for y, h in enumerate_mask_pairs(3):
        key = (tuple(y.data), tuple(h.data))
        if prev is not None:
            assert key > prev
        prev = key


def test_enumerate_limits():
    with pytest.raises(DTooLarge):
        next(enumerate_mask_pairs(15))
    with pytest.raises(OutOfRange):
        next(enumerate_mask_pairs(0))


def test_bit_matrix_rows_agree_with_enumeration():
    d = 4
    rows = bit_matrix(d)
    masks = all_masks(d)
    for i, m in enumerate(masks):
        assert rows[i].tolist() == m.data.tolist()


def test_mask_validation():
    with pytest.raises(ValueError):
        BinaryMask((2, 2, 1), np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        BinaryMask((3, 1, 1), np.array([0, 1]))
    with pytest.raises(ValueError):
        ProbMap((2, 1, 1), np.array([0.5, 1.2]))
    with pytest.raises(ValueError):
        ProbMap((1, 1, 1), [np.nan])


def test_mask_array_round_trip_layout():
    arr = np.array([[0, 1, 0], [1, 1, 0]], dtype=np.uint8)  # (ny=2, nx=3)
    m = BinaryMask.from_array(arr)
    assert m.dims == (3, 2, 1)
    # flat index x + nx*y
    assert m.data.tolist() == [0, 1, 0, 1, 1, 0]
    assert np.array_equal(m.to_array()[0], arr)


@pytest.mark.parametrize("cls, values", [(BinaryMask, [0, 1]), (ProbMap, [0.0, 0.25, 1.0])])
def test_mask_3d_array_round_trip(cls, values):
    arr = np.array(values)[np.arange(24).reshape(2, 3, 4) % len(values)]  # (nz, ny, nx)
    m = cls.from_array(arr)
    assert m.dims == (4, 3, 2)
    # flat index x + nx*(y + ny*z)
    assert m.data[1 + 4 * (2 + 3 * 1)] == arr[1, 2, 1]
    assert np.array_equal(m.to_array(), arr)


@pytest.mark.parametrize("cls", [BinaryMask, ProbMap])
def test_from_array_rejects_1d(cls):
    with pytest.raises(ValueError):
        cls.from_array(np.zeros(4))


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=30, deadline=None)
def test_threshold_preserves_dims(d, data):
    values = data.draw(st.lists(st.floats(0, 1), min_size=d, max_size=d))
    p = prob_of(values)
    assert threshold(p, 0.5).dims == p.dims
