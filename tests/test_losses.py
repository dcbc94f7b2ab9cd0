import numpy as np
import pytest

from segloss import metrics
from segloss.errors import OutOfDomain, OutOfRange
from segloss.losses import (
    CLAMP_EPS,
    LOSS_GRAMMAR,
    LOSSES,
    LossSpec,
    _clamp,
    eval_loss_arrays,
    finite_diff_gradient,
    gamma_for_prior,
    loss_gradient,
    loss_logit_gradient,
    loss_value,
    parse_loss_spec,
    vertex_consistency_check,
)
from util import (
    clip_clamp,
    lovasz_has_near_ties,
    mask_of,
    max_rel_grad_error,
    prob_of,
    random_instance,
    reference_soft_dice,
    reference_soft_jaccard,
    reference_tversky,
    reference_wce,
)

METRIC_SENSITIVE = [
    LossSpec("soft_dice_l1"),
    LossSpec("soft_dice_l2"),
    LossSpec("soft_jaccard"),
    LossSpec("lovasz"),
    LossSpec("tversky", (0.3, 0.7)),
]

ALL_KINDS = [
    LossSpec("ce"),
    LossSpec("wce", (0.2,)),
    LossSpec("wce", (0.5,)),
    LossSpec("wce", (0.8,)),
    LossSpec("soft_dice_l1"),
    LossSpec("soft_dice_l2"),
    LossSpec("soft_jaccard"),
    LossSpec("lovasz"),
    LossSpec("tversky", (0.3, 0.7)),
    LossSpec("tversky", (0.5, 0.5)),
    LossSpec("tversky", (1.0, 1.0)),
]


def test_soft_dice_l1_frozen_value():
    value, _, _ = eval_loss_arrays(LossSpec("soft_dice_l1"), np.array([1, 0]), np.array([0.8, 0.2]))
    assert value == pytest.approx(0.2, abs=1e-15)


def test_soft_dice_l2_frozen_value():
    value, _, _ = eval_loss_arrays(LossSpec("soft_dice_l2"), np.array([1, 0]), np.array([0.8, 0.2]))
    assert value == pytest.approx(1 - 1.6 / 1.68, abs=1e-15)


def test_soft_jaccard_frozen_value():
    value, _, _ = eval_loss_arrays(LossSpec("soft_jaccard"), np.array([1, 0]), np.array([0.8, 0.2]))
    assert value == pytest.approx(1 / 3, abs=1e-15)


def test_lovasz_single_pixel():
    value, grad, _ = eval_loss_arrays(LossSpec("lovasz"), np.array([1]), np.array([0.3]))
    assert value == pytest.approx(0.7, abs=1e-15)
    assert grad.tolist() == [-1.0]


def test_lovasz_worked_pair_hand_trace():
    # errors (0, 1, 1, 0); sorted weights 1/2, 1/6, 1/3, 0 -> loss 2/3
    value, _, _ = eval_loss_arrays(LossSpec("lovasz"), np.array([1, 1, 0, 0]), np.array([1.0, 0.0, 1.0, 0.0]))
    assert value == pytest.approx(2 / 3, abs=1e-15)


def test_lovasz_all_background_is_max_like():
    value, _, _ = eval_loss_arrays(LossSpec("lovasz"), np.array([0, 0, 0]), np.array([0.2, 0.7, 0.4]))
    assert value == pytest.approx(0.7, abs=1e-15)


def test_wce_frozen_gradient():
    _, grad, _ = eval_loss_arrays(LossSpec("wce", (0.5,)), np.array([1]), np.array([0.5]))
    assert grad[0] == pytest.approx(-1.0, abs=1e-12)
    fd = finite_diff_gradient(LossSpec("wce", (0.5,)), mask_of([1]), prob_of([0.5]), 1e-6)
    assert fd[0] == pytest.approx(-1.0, abs=1e-6)


def test_ce_is_doubled_balanced_wce():
    y, p = np.array([1, 0, 1]), np.array([0.7, 0.4, 0.9])
    ce_value, ce_grad, _ = eval_loss_arrays(LossSpec("ce"), y, p)
    wce_value, wce_grad, _ = eval_loss_arrays(LossSpec("wce", (0.5,)), y, p)
    assert ce_value == pytest.approx(2 * wce_value, abs=1e-15)
    assert np.allclose(ce_grad, 2 * wce_grad, atol=1e-15)


def test_ce_clamp_keeps_vertex_inputs_finite():
    value, grad, _ = eval_loss_arrays(LossSpec("ce"), np.array([1, 0]), np.array([0.0, 1.0]))
    assert np.isfinite(value) and value > 0
    assert np.all(grad == 0.0)  # clamp active: flat in p


def test_tversky_collapse_exact():
    rng = np.random.default_rng(5)
    for _ in range(50):
        y, p = random_instance(rng, 16)
        td = eval_loss_arrays(LossSpec("tversky", (0.5, 0.5)), y.data, p.data)
        sd = eval_loss_arrays(LossSpec("soft_dice_l1"), y.data, p.data)
        assert td[0] == sd[0]
        assert np.array_equal(td[1], sd[1])
        tj = eval_loss_arrays(LossSpec("tversky", (1.0, 1.0)), y.data, p.data)
        sj = eval_loss_arrays(LossSpec("soft_jaccard"), y.data, p.data)
        assert tj[0] == sj[0]
        assert np.array_equal(tj[1], sj[1])


def test_tversky_general_formula_near_collapse_points():
    # the dispatch at exactly 0.5/0.5 must agree with the raw formula nearby
    rng = np.random.default_rng(6)
    y, p = random_instance(rng, 32)
    at = eval_loss_arrays(LossSpec("tversky", (0.5, 0.5)), y.data, p.data)[0]
    near = eval_loss_arrays(LossSpec("tversky", (0.5 + 1e-9, 0.5 - 1e-9)), y.data, p.data)[0]
    assert near == pytest.approx(at, abs=1e-7)


def test_perfect_prediction_zero_loss():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=12)
    bits[0] = 1  # keep nonempty
    for spec in METRIC_SENSITIVE:
        assert eval_loss_arrays(spec, bits, bits.astype(float))[0] == pytest.approx(0.0, abs=1e-15)


def test_degenerate_both_zero():
    for spec in [LossSpec("soft_dice_l1"), LossSpec("soft_dice_l2"),
                 LossSpec("soft_jaccard"), LossSpec("tversky", (0.3, 0.7))]:
        value, grad, degenerate = eval_loss_arrays(spec, np.zeros(3), np.zeros(3))
        assert degenerate
        assert value == 0.0
        assert np.all(grad == 0.0)


def test_loss_values_in_range():
    rng = np.random.default_rng(8)
    for _ in range(100):
        y, p = random_instance(rng, 24, p_lo=0.0, p_hi=1.0)
        for spec in METRIC_SENSITIVE:
            v = eval_loss_arrays(spec, y.data, p.data)[0]
            assert -1e-12 <= v <= 1.0 + 1e-12
        for spec in (LossSpec("ce"), LossSpec("wce", (0.8,))):
            v = eval_loss_arrays(spec, y.data, p.data)[0]
            assert np.isfinite(v) and v >= 0


def _bits(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.int64)


# training passes the masks' own bool data; a loop over the dtypes in the
# test body keeps one test id per loss row
LABEL_DTYPES = (np.uint8, np.bool_, np.int64, np.float64)


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label())
def test_value_and_gradient_entry_points_match_the_full_evaluation_bit_for_bit(spec):
    rng = np.random.default_rng(21)
    # more than 255 ones, so a label sum that stays uint8 wraps around
    d = 640
    y = rng.integers(0, 2, size=d).astype(np.float64)
    assert y.sum() > 255
    # p exactly 0 and 1 puts the CE/WCE clamp in play
    clamped = rng.uniform(0.0, 1.0, size=d)
    clamped[::5] = 0.0
    clamped[1::5] = 1.0
    cases = [(y, rng.uniform(0.0, 1.0, size=d)), (y, clamped),
             (np.zeros(d), np.zeros(d))]  # degenerate for the soft overlaps
    for y_float, p in cases:
        value, grad, _ = eval_loss_arrays(spec, y_float, p)
        for dtype in LABEL_DTYPES:
            yv = y_float.astype(dtype)
            # any 0/1 label dtype gives the float labels' bits
            typed_value, typed_grad, _ = eval_loss_arrays(spec, yv, p)
            assert np.array_equal(_bits(typed_value), _bits(value)), dtype
            assert np.array_equal(_bits(typed_grad), _bits(grad)), dtype
            assert np.array_equal(_bits(loss_value(spec, yv, p)), _bits(value)), dtype
            assert np.array_equal(_bits(loss_gradient(spec, yv, p)), _bits(grad)), dtype
            # the logit-space gradient is the gradient chained through the
            # sigmoid; the CE rows' closed form rounds differently
            chained, logit = grad * p * (1.0 - p), loss_logit_gradient(spec, yv, p)
            if LOSSES[spec.kind].logit:
                np.testing.assert_allclose(logit, chained, rtol=1e-12, atol=0.0)
                assert np.array_equal(_bits(logit), _bits(loss_logit_gradient(spec, y_float, p))), dtype
            else:
                assert np.array_equal(_bits(logit), _bits(chained)), dtype


def _same_bits(a, b) -> bool:
    """The same float64 bits, except that any NaN matches any NaN: IEEE 754
    leaves the sign bit of a NaN result unspecified."""
    a, b = np.atleast_1d(np.asarray(a, dtype=np.float64)), np.atleast_1d(np.asarray(b, dtype=np.float64))
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(_bits(a[~nan]), _bits(b[~nan])))


_REFERENCE = {"ce": lambda y, p: reference_wce(y, p, 0.5, 2.0),
              "wce": lambda y, p, gamma: reference_wce(y, p, gamma, 1.0),
              "soft_dice_l1": lambda y, p: reference_soft_dice(y, p, "l1"),
              "soft_dice_l2": lambda y, p: reference_soft_dice(y, p, "l2"),
              "soft_jaccard": reference_soft_jaccard,
              "tversky": reference_tversky}


@pytest.mark.parametrize("spec", [LossSpec("ce"), LossSpec("wce", (0.0,)), LossSpec("wce", (0.3,)),
                                  LossSpec("wce", (0.9,)), LossSpec("wce", (1.0,)),
                                  LossSpec("soft_dice_l1"), LossSpec("soft_dice_l2"), LossSpec("soft_jaccard"),
                                  LossSpec("tversky", (0.3, 0.7)), LossSpec("tversky", (1.0, 1.0))],
                         ids=LossSpec.label)
def test_training_kernels_match_the_written_out_formulas_bit_for_bit(spec):
    rng = np.random.default_rng(29)
    cases = []
    for d in (4096, 3277):  # a whole 64 x 64 image and a masked one
        y = (rng.uniform(size=d) < 0.1).astype(np.float64)
        inside = rng.uniform(0.01, 0.99, d)  # no p under the clip
        edges = inside.copy()
        edges[:8] = [0.0, 1.0, 5e-8, 1.0 - 5e-8, 0.0, 1.0, 5e-8, 1.0 - 5e-8]
        y[:8] = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        nan = inside.copy()
        nan[d // 2] = np.nan
        cases += [(y, inside), (y, edges), (y, nan)]
    cases.append((np.zeros(4096), np.zeros(4096)))
    for y, p in cases:
        value, grad, logit = _REFERENCE[spec.kind](y, p, *spec.params)
        assert _same_bits(loss_value(spec, y, p), value)
        assert _same_bits(loss_gradient(spec, y, p), grad)
        assert _same_bits(loss_logit_gradient(spec, y, p), logit)
        # value and gradient from one kernel call, as from two
        both = eval_loss_arrays(spec, y, p)
        assert _same_bits(both[0], value) and _same_bits(both[1], grad)


@pytest.mark.parametrize("spec", [LossSpec("ce"), LossSpec("wce", (0.0,)), LossSpec("wce", (0.5,)),
                                  LossSpec("wce", (0.9,)), LossSpec("wce", (1.0,))], ids=LossSpec.label)
def test_ce_value_keeps_one_log_per_pixel_with_the_two_log_bits(spec):
    # the kernel keeps gamma log p at y = 1 and (1-gamma) log(1-p) at y = 0;
    # the other term of the written-out sum is a signed zero there, so every
    # 0/1 label dtype gives its bits, all-zero sums and clipped p included
    rng = np.random.default_rng(31)
    d = 4096
    y = (rng.uniform(size=d) < 0.02).astype(np.float64)
    y[:8] = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
    p = rng.uniform(size=d)
    clipped = p.copy()
    clipped[:8] = [0.0, 1.0, 5e-8, 1.0 - 5e-8] * 2
    nan = p.copy()
    nan[[0, 4]] = np.nan  # one NaN at y = 0, one at y = 1
    cases = [(y, p), (y, clipped), (y, nan), (np.zeros(d), np.zeros(d)), (np.ones(d), np.ones(d)),
             (np.zeros(d), np.ones(d)), (np.ones(d), np.zeros(d))]
    for labels, probs in cases:
        want = _REFERENCE[spec.kind](labels, probs, *spec.params)[0]
        for dtype in LABEL_DTYPES:
            assert _same_bits(loss_value(spec, labels.astype(dtype), probs), want), dtype


def _stable_sort_lovasz(y, p):
    """The Lovász value and gradient from one stable sort of the errors."""
    m = np.where(y > 0, 1.0 - p, p)
    order = np.argsort(-m, kind="stable")
    ys = y[order]
    fg = float(ys.sum())
    g = np.diff(1.0 - (fg - np.cumsum(ys)) / (fg + np.cumsum(1.0 - ys)), prepend=0.0)
    grad = np.empty_like(p)
    grad[order] = g
    grad *= np.where(y > 0, -1.0, 1.0)
    return float(m[order] @ g), grad


def test_lovasz_sorts_as_one_stable_sort_bit_for_bit():
    rng = np.random.default_rng(31)
    cases = []
    for d in (1, 2, 3, 17, 640, 5000):
        y = rng.uniform(size=d) < rng.uniform(0.02, 0.5)
        u = rng.uniform(0.0, 1.0, d)
        ties = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], d)  # exact ties, among them m = 0
        signed_zeros = np.where(y, 1.0, -0.0)  # errors of +0.0 and -0.0
        signed_zeros[::3] = u[::3]
        nan = u.copy()
        nan[rng.integers(0, d, 1 + d // 4)] = np.nan
        saturated = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 60.0, d)))  # many exact 0s and 1s
        cases += [(y, u), (y, np.round(u, 2)), (y, ties), (y, signed_zeros), (y, nan), (y, saturated)]
    for y, p in cases:
        want_value, want_grad = _stable_sort_lovasz(y, p)
        for labels in (y, y.astype(np.float64)):
            value, grad, _ = eval_loss_arrays(LossSpec("lovasz"), labels, p)
            assert _same_bits(value, want_value) and _same_bits(grad, want_grad), (y.size, p[:4])


GRAD_TOL = 1e-5


def test_clamp_equals_np_clip_bit_for_bit():
    rng = np.random.default_rng(3)
    p = np.concatenate([rng.uniform(0.0, 1.0, 256), rng.uniform(0.0, 1e-6, 16), 1.0 - rng.uniform(0.0, 1e-6, 16),
                        [0.0, 1.0, CLAMP_EPS, 1.0 - CLAMP_EPS, np.nan]])
    assert np.array_equal(_clamp(p).view(np.int64), clip_clamp(p).view(np.int64))


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label())
def test_logit_gradient_against_finite_differences_in_logit_space(spec):
    rng = np.random.default_rng(8)
    h = 1e-6
    checked = 0
    while checked < 30:
        y, p = random_instance(rng, 16)
        if spec.kind == "lovasz" and lovasz_has_near_ties(y, p):
            continue
        s = np.log(p.data) - np.log1p(-p.data)
        fd = np.empty_like(s)
        for i in range(s.size):
            step = np.zeros_like(s)
            step[i] = h
            fd[i] = (loss_value(spec, y.data, 1.0 / (1.0 + np.exp(-(s + step))))
                     - loss_value(spec, y.data, 1.0 / (1.0 + np.exp(-(s - step))))) / (2.0 * h)
        analytic = loss_logit_gradient(spec, y.data, p.data)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        assert np.max(np.abs(analytic - fd) / denom) < GRAD_TOL
        checked += 1


@pytest.mark.parametrize("spec", [LossSpec("ce"), LossSpec("wce", (0.3,))], ids=LossSpec.label)
def test_ce_logit_gradient_is_zero_under_the_clip_and_nan_at_nan(spec):
    p = np.array([0.0, 1e-9, CLAMP_EPS, 1.0 - CLAMP_EPS, 1.0 - 1e-9, 1.0, np.nan, 0.5, 0.25])
    y = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    g = loss_logit_gradient(spec, y, p)
    assert np.all(g[:6] == 0.0)
    assert np.isnan(g[6])
    assert np.all(np.isfinite(g[7:])) and np.all(g[7:] != 0.0)
    # the p-space gradient is NaN at the NaN p as well, and zero under the clip
    gp = loss_gradient(spec, y, p)
    assert np.isnan(gp[6]) and np.all(gp[:6] == 0.0)
    # NaN where the chained form gives NaN, too
    assert np.array_equal(np.isnan(g), np.isnan(gp * p * (1.0 - p)))


@pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.label())
def test_gradient_against_finite_differences(spec):
    rng = np.random.default_rng(42)
    for d in (4, 16, 64):
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            assert trial < 1000, "instance filter rejected too many draws"
            y, p = random_instance(rng, d)
            if spec.kind == "lovasz" and lovasz_has_near_ties(y, p):
                continue
            assert max_rel_grad_error(spec, y, p) < GRAD_TOL
            checked += 1


def test_finite_diff_domain_check():
    with pytest.raises(OutOfDomain):
        finite_diff_gradient(LossSpec("soft_dice_l1"), mask_of([1]), prob_of([1e-9]), 1e-6)
    with pytest.raises(OutOfRange):
        finite_diff_gradient(LossSpec("soft_dice_l1"), mask_of([1]), prob_of([0.5]), 0.0)


def test_gradient_zero_on_flat_region(monkeypatch):
    # both probabilities sit inside a wide clamp zone -> value locally constant
    monkeypatch.setattr("segloss.losses.CLAMP_EPS", 0.2)
    y, p = mask_of([1, 0]), prob_of([0.1, 0.9])
    for spec in (LossSpec("ce"), LossSpec("wce", (0.7,))):
        _, grad, _ = eval_loss_arrays(spec, y.data, p.data)
        assert np.all(grad == 0.0)
        fd = finite_diff_gradient(spec, y, p, 1e-6)
        assert np.allclose(fd, 0.0, atol=1e-8)


def test_vertex_consistency_worked_values():
    y, yh = mask_of([1, 1, 0, 0]), mask_of([1, 0, 1, 0])
    s, disc, ok = vertex_consistency_check(LossSpec("soft_dice_l1"), y, yh)
    assert ok and s == pytest.approx(0.5, abs=1e-13) and disc == 0.5
    s, disc, ok = vertex_consistency_check(LossSpec("lovasz"), y, yh)
    assert ok and s == pytest.approx(2 / 3, abs=1e-13)
    s, disc, ok = vertex_consistency_check(LossSpec("soft_dice_l1"), y, y)
    assert ok and s == 0.0 and disc == 0.0


def test_vertex_consistency_random_d64():
    rng = np.random.default_rng(9)
    for _ in range(200):
        y = mask_of(rng.integers(0, 2, size=64))
        yh = mask_of(rng.integers(0, 2, size=64))
        for spec in METRIC_SENSITIVE:
            _, _, ok = vertex_consistency_check(spec, y, yh)
            assert ok


def test_gamma_for_prior_matches_balancing_heuristic():
    assert gamma_for_prior(0.02) == pytest.approx(0.98, abs=1e-12)
    assert gamma_for_prior(0.5) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(OutOfRange):
        gamma_for_prior(0.0)


def test_spec_validation():
    with pytest.raises(OutOfRange):
        LossSpec("soft_dice")  # missing norm_variant
    with pytest.raises(OutOfRange):
        LossSpec("wce", (1.5,))
    with pytest.raises(OutOfRange):
        LossSpec("tversky", (0.0, 1.0))
    with pytest.raises(OutOfRange):
        LossSpec("soft_jaccard", (0.5,))


def test_parse_loss_spec_round_trip():
    for token, expect in [
        ("ce", LossSpec("ce")),
        ("wce:0.8", LossSpec("wce", (0.8,))),
        ("soft_dice", LossSpec("soft_dice_l1")),
        ("soft_dice_l2", LossSpec("soft_dice_l2")),
        ("soft_jaccard", LossSpec("soft_jaccard")),
        ("lovasz", LossSpec("lovasz")),
        ("tversky:0.3:0.7", LossSpec("tversky", (0.3, 0.7))),
    ]:
        assert parse_loss_spec(token) == expect
    with pytest.raises(OutOfRange):
        parse_loss_spec("focal")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_spec_rejects_non_finite_parameters(bad):
    for make in (lambda: LossSpec("tversky", (bad, 0.5)), lambda: LossSpec("tversky", (0.5, bad)),
                 lambda: LossSpec("wce", (bad,))):
        with pytest.raises(OutOfRange):
            make()
    with pytest.raises(OutOfRange):
        parse_loss_spec(f"tversky:{bad}:1")


# one spec per LOSSES row, with the discrete similarity it must relax
TABLE_ROWS = [
    (LossSpec("ce"), metrics.hamming),
    (LossSpec("wce", (0.3,)), metrics.weighted_hamming),
    (LossSpec("soft_dice_l1"), metrics.dice),
    (LossSpec("soft_dice_l2"), metrics.dice),
    (LossSpec("soft_jaccard"), metrics.jaccard),
    (LossSpec("lovasz"), metrics.jaccard),
    (LossSpec("tversky", (0.3, 0.7)), metrics.tversky),
]


def test_table_rows_cover_every_loss():
    assert [spec.kind for spec, _ in TABLE_ROWS] == list(LOSSES)


@pytest.mark.parametrize("spec, counterpart", TABLE_ROWS, ids=[spec.kind for spec, _ in TABLE_ROWS])
def test_table_row_parses_evaluates_and_checks_vertices_through_its_entry(spec, counterpart):
    row = LOSSES[spec.kind]
    assert parse_loss_spec(spec.label()) == spec
    rng = np.random.default_rng(12)
    y, p = random_instance(rng, 40)
    value, grad, degenerate = eval_loss_arrays(spec, y.data, p.data)
    want = row.kernel(y.data.astype(np.float64), p.data, *spec.params)
    assert value == want[0] and np.array_equal(grad, want[1]) and degenerate == want[2]
    for _ in range(20):
        yh = mask_of(rng.integers(0, 2, size=40))
        _, disc, _ = vertex_consistency_check(spec, y, yh)
        assert disc == 1.0 - row.counterpart(y, yh, *spec.params)
        assert disc == 1.0 - counterpart(y, yh, *spec.params)


@pytest.mark.parametrize("spec", [spec for spec, _ in TABLE_ROWS if spec.params], ids=LossSpec.label)
def test_distinct_loss_parameters_give_distinct_labels(spec):
    for i in range(len(spec.params)):
        for step in (-1.0, 1.0):
            params = list(spec.params)
            params[i] = float(np.nextafter(params[i], params[i] + step))
            other = LossSpec(spec.kind, tuple(params))
            assert other.label() != spec.label()
            assert parse_loss_spec(other.label()) == other
    assert (parse_loss_spec("tversky:0.3:0.7").label()
            != parse_loss_spec("tversky:0.30000001:0.7").label() == "tversky:0.30000001:0.7")


def test_bare_wce_takes_the_balancing_gamma_with_a_round_trip_label():
    gamma = gamma_for_prior(0.03)
    for token in ("wce", "wce:auto"):
        spec = parse_loss_spec(token, 0.03)
        assert spec == LossSpec("wce", (gamma,))
        assert spec.label() == f"wce:{gamma!r}"
        assert parse_loss_spec(spec.label()) == spec
        with pytest.raises(OutOfRange):
            parse_loss_spec(token)


@pytest.mark.parametrize("token, message", [
    ("focal", "unknown {what} token 'focal'"),
    ("tversky:abc:1", "bad numeric parameter in {what} token 'tversky:abc:1'"),
    ("tversky:0.3", "tversky:0.3 is not one of {grammar}"),
    ("tversky:0.3:0.7:1", "tversky:0.3:0.7:1 is not one of {grammar}"),
    ("tversky:nan:1", "tversky parameters must be finite, got (nan, 1.0)"),
    ("tversky:1:inf", "tversky parameters must be finite, got (1.0, inf)"),
    ("tversky:0:1", "tversky weights must be > 0, got tversky:0:1"),
])
def test_loss_and_metric_tokens_follow_one_rule(token, message):
    for what, parse, grammar in [("metric", metrics.parse_metric_id, metrics.METRIC_GRAMMAR),
                                 ("loss", parse_loss_spec, LOSS_GRAMMAR)]:
        with pytest.raises(OutOfRange) as caught:
            parse(token)
        assert str(caught.value) == message.format(what=what, grammar=grammar)


@pytest.mark.parametrize("token", ["focal", "ce:1", "wce:1.5", "wce:abc", "tversky:0:1", "tversky:1",
                                   "soft_dice:2"])
def test_bad_loss_token_is_out_of_range(token):
    with pytest.raises(OutOfRange):
        parse_loss_spec(token)
