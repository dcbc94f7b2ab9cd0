import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segloss import metrics
from segloss.errors import (
    EmptySet,
    InfeasibleConfig,
    InfeasibleRatio,
    NonFiniteLoss,
    OutOfRange,
    TooFewSamples,
)
from segloss.losses import LossSpec, parse_loss_spec
from segloss.masks import BinaryMask, threshold
from segloss.toytrain import (
    N_FEATURES,
    SCORE_COLUMNS,
    EmptyBinWarning,
    Sample,
    SampleSet,
    SyntheticConfig,
    TrainConfig,
    _masked,
    _mean_loss,
    _probabilities,
    _quantile_edges,
    _run_epoch,
    _size_bins,
    _StepMatrix,
    build_fgbg_masks,
    derive_seed,
    generate_dataset,
    run_loss_comparison,
    score_images,
    stratify_by_size,
    train,
    warm_up,
)
from util import mask_of, masked_sigmoid, one_branch_sigmoid, prob_of, sample_of

SMALL = SyntheticConfig(n_images=40, dims=(32, 32), object_radius_range=(3.0, 6.0),
                        fg_prior_target=0.08, noise_sigma=0.3, seed=5)
QUICK = TrainConfig(loss=LossSpec("ce"), learning_rate=4.0, max_epochs=6,
                    pretrain_epochs_ce=2, early_stop_patience=4, batch_size=4, seed=9)


def both_datasets_equal(a, b):
    return all(
        np.array_equal(sa.features, sb.features) and np.array_equal(sa.label.data, sb.label.data)
        for sa, sb in zip(a, b)
    )


@pytest.mark.parametrize("s", [0, 7, 2**32 - 1])
def test_derive_seed_ignores_trailing_zero_parts(s):
    assert derive_seed(s, 17, 0) == derive_seed(s, 17)
    assert derive_seed(s, 0) == derive_seed(s)
    assert derive_seed(s, 17) != derive_seed(s, 17, 1)


def test_generate_is_deterministic():
    a = generate_dataset(SMALL)
    b = generate_dataset(SMALL)
    assert len(a) == 40
    assert both_datasets_equal(a, b)


def test_generate_prior_within_band():
    cfg = SyntheticConfig(n_images=80, dims=(64, 64), fg_prior_target=0.02, seed=3)
    data = generate_dataset(cfg)
    prior = data.mean_fg_prior()
    assert 0.016 <= prior <= 0.024


def test_generate_feature_layout():
    data = generate_dataset(SMALL)
    s = data[0]
    d = 32 * 32
    assert s.features.shape == (d, 5)
    assert np.all(s.features[:, 4] == 1.0)
    assert s.features[:, 2].min() == 0.0 and s.features[:, 2].max() == 1.0
    assert s.label.d == d


def test_generate_zero_noise_path():
    cfg = SyntheticConfig(n_images=4, dims=(32, 32), object_radius_range=(3.0, 6.0),
                          fg_prior_target=0.08, noise_sigma=0.0, seed=5)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert both_datasets_equal(a, b)
    # without noise the smoothed intensity stays inside the clean range
    assert all(s.features[:, 1].min() >= 0.0 for s in a)


def test_generate_infeasible_configs():
    with pytest.raises(InfeasibleConfig):
        generate_dataset(SyntheticConfig(dims=(64, 64), object_radius_range=(2.0, 3.0),
                                         fg_prior_target=0.5))
    with pytest.raises(InfeasibleConfig):
        generate_dataset(SyntheticConfig(dims=(16, 16), object_radius_range=(3.0, 12.0)))


@pytest.mark.parametrize("rmin", [1e-160, 1e-300, 5e-324])
def test_generate_takes_a_radius_min_whose_blob_area_underflows(rmin):
    # pi * rmin^2 is subnormal at 1e-160, where the blob-count quotient
    # overflows to inf, and 0 at the two smaller radii; up to 3 blobs fit
    data = generate_dataset(replace(SMALL, n_images=4, object_radius_range=(rmin, 6.0)))
    assert len(data) == 4 and all(s.label.count() > 0 for s in data)


def test_train_deterministic_and_tversky_collapse():
    data = generate_dataset(SMALL)
    r1 = train(data, QUICK)
    r2 = train(data, QUICK)
    assert np.array_equal(r1.weights, r2.weights)
    sd = train(data, TrainConfig(loss=LossSpec("soft_dice_l1"), learning_rate=4.0, max_epochs=6,
                                 pretrain_epochs_ce=2, early_stop_patience=4, batch_size=4, seed=9))
    tv = train(data, TrainConfig(loss=LossSpec("tversky", (0.5, 0.5)), learning_rate=4.0, max_epochs=6,
                                 pretrain_epochs_ce=2, early_stop_patience=4, batch_size=4, seed=9))
    assert np.array_equal(sd.weights, tv.weights)


def test_train_learns_separable_blobs():
    # no gain jitter, tiny noise: the raw intensity feature separates the
    # classes, so CE alone must reach high training Dice
    cfg = SyntheticConfig(n_images=30, dims=(32, 32), object_radius_range=(3.0, 6.0),
                          fg_prior_target=0.08, noise_sigma=0.02, gain_jitter=0.0, seed=2)
    data = generate_dataset(cfg)
    res = train(data, TrainConfig(loss=LossSpec("ce"), learning_rate=4.0, max_epochs=40,
                                  pretrain_epochs_ce=0, early_stop_patience=10, batch_size=4, seed=1))
    sc = score_images(data, range(len(data)), res.weights)
    assert sc["dice"].mean() > 0.9


def test_train_without_pretraining_runs():
    data = generate_dataset(SMALL)
    res = train(data, TrainConfig(loss=LossSpec("soft_dice_l1"), max_epochs=3,
                                  pretrain_epochs_ce=0, seed=4))
    assert res.epochs_run == 3
    assert res.val_losses.shape == (3,)


def test_train_single_image_degenerate_split():
    data = generate_dataset(SMALL).subset([0])
    res = train(data, TrainConfig(loss=LossSpec("ce"), max_epochs=2, pretrain_epochs_ce=0, seed=0))
    assert np.all(np.isfinite(res.weights))


def test_train_empty_and_nonfinite():
    data = generate_dataset(SMALL)
    with pytest.raises(EmptySet):
        train(data.subset([]), QUICK)
    # a non-finite feature poisons the loss; the guard must abort loudly
    d = 32 * 32
    feats = np.full((d, 5), np.nan)
    bad = SampleSet([sample_of(feats, BinaryMask((32, 32, 1), np.zeros(d, dtype=np.uint8)))])
    with pytest.raises(NonFiniteLoss):
        train(bad, TrainConfig(loss=LossSpec("ce"), max_epochs=2, pretrain_epochs_ce=0, seed=0))


def test_train_reports_stop_reason_and_learning_rate_cuts():
    data = generate_dataset(SMALL).subset(range(16))
    # patience 2 cuts the rate after every epoch that fails to improve on
    # the best validation loss, and stops at the second in a row
    res = train(data, TrainConfig(loss=LossSpec("soft_dice_l1"), max_epochs=40,
                                  pretrain_epochs_ce=2, early_stop_patience=2, seed=3))
    assert res.stop_reason == "patience"
    assert res.epochs_run == 10 and res.lr_cuts == (3, 8, 9)
    val = res.val_losses
    for e in range(1, res.epochs_run):
        assert (e in res.lr_cuts) == (val[e] >= val[:e].min())
    full = train(data, TrainConfig(loss=LossSpec("soft_dice_l1"), max_epochs=3,
                                   pretrain_epochs_ce=2, early_stop_patience=2, seed=3))
    assert full.stop_reason == "max_epochs" and full.epochs_run == 3 and full.lr_cuts == ()
    none = train(data, replace(QUICK, max_epochs=0))
    assert none.stop_reason == "max_epochs" and none.epochs_run == 0 and none.lr_cuts == ()


@pytest.mark.parametrize("pretrain, phase_loss", [(0, "soft_dice_l1"), (2, "ce")])
def test_train_divergence_is_caught_in_the_phase_it_happens(pretrain, phase_loss):
    # an inf feature in the first (training) image turns the weights
    # non-finite on the first gradient step; the last (validation) image
    # stays finite, so only the finite-weights check can catch it
    data = generate_dataset(SMALL).subset(range(5))
    feats = data[0].features.copy()
    feats[0, 0] = np.inf
    bad = SampleSet([sample_of(feats, data[0].label), *data.samples[1:]])
    cfg = TrainConfig(loss=LossSpec("soft_dice_l1"), max_epochs=3, pretrain_epochs_ce=pretrain, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteLoss, match=rf"non-finite weights \(loss={phase_loss}, lr=4.0\)"):
        train(bad, cfg)


def test_train_loss_mostly_nonincreasing():
    # descent at the default learning rate and batch size lowers the
    # training-set loss it descends on in nearly every epoch
    samples = generate_dataset(SMALL).samples
    steps = _StepMatrix(samples)
    for loss in (LossSpec("ce"), LossSpec("soft_dice_l1")):
        cfg = TrainConfig(loss=loss, seed=7)
        rng = np.random.default_rng(cfg.seed)
        w = rng.normal(0.0, 0.5, N_FEATURES)
        curve = []
        for _ in range(30):
            w = _run_epoch(samples, steps, w, loss, cfg.learning_rate, cfg.batch_size, rng)
            curve.append(_mean_loss(samples, steps, w, loss))
        frac = float(np.mean(np.diff(curve) <= 1e-12))
        assert frac >= 0.9


def test_output_mask_all_ones_matches_unmasked():
    data = generate_dataset(SMALL)
    ones = [BinaryMask(data.dims, np.ones(32 * 32, dtype=np.uint8))] * len(data)
    r_plain = train(data, QUICK)
    r_masked = train(_masked(data, ones), QUICK)
    assert np.array_equal(r_plain.weights, r_masked.weights)
    plain = run_loss_comparison(data, [LossSpec("ce")], folds=4, seed=3, base_cfg=QUICK)
    masked = run_loss_comparison(data, [LossSpec("ce")], folds=4, seed=3, base_cfg=QUICK,
                                 output_masks=ones)
    for c in SCORE_COLUMNS:
        assert np.array_equal(plain.arms[0].scores[c], masked.arms[0].scores[c])


def test_output_mask_validation():
    data = generate_dataset(SMALL)
    wrong = BinaryMask((8, 8, 1), np.zeros(64, dtype=np.uint8))
    ones = BinaryMask(data.dims, np.ones(32 * 32, dtype=np.uint8))
    tiny = TrainConfig(loss=LossSpec("ce"), max_epochs=1)
    with pytest.raises(OutOfRange, match="output mask dims"):
        run_loss_comparison(data, [LossSpec("ce")], folds=2, base_cfg=tiny, output_masks=[wrong] * len(data))
    with pytest.raises(OutOfRange, match="one output mask per image"):
        run_loss_comparison(data, [LossSpec("ce")], folds=2, base_cfg=tiny,
                            output_masks=(ones,) * (len(data) - 1))
    # a mask that selects no pixels would leave the losses a 0-pixel image
    empty = BinaryMask(data.dims, np.zeros(32 * 32, dtype=np.uint8))
    for masks, image in (([empty] * len(data), 0), ([ones] * 3 + [empty] + [ones] * (len(data) - 4), 3)):
        with pytest.raises(OutOfRange, match=f"output mask of image {image} selects no pixels"):
            run_loss_comparison(data, [LossSpec("ce"), LossSpec("soft_dice_l1")], folds=2, base_cfg=tiny,
                                output_masks=masks)


def test_comparison_shapes_folds_and_determinism():
    data = generate_dataset(SMALL)
    losses = [LossSpec("ce"), LossSpec("soft_dice_l1")]
    r1 = run_loss_comparison(data, losses, folds=4, seed=3, base_cfg=QUICK)
    r2 = run_loss_comparison(data, losses, folds=4, seed=3, base_cfg=QUICK, threads=3)
    assert [a.name for a in r1.arms] == ["ce", "soft_dice_l1"]
    assert np.array_equal(r1.folds, np.arange(len(data)) % 4)
    for a1, a2 in zip(r1.arms, r2.arms):
        assert np.array_equal(a1.scores["dice"], a2.scores["dice"])
        assert np.array_equal(a1.scores["jaccard"], a2.scores["jaccard"])
        assert not np.isnan(a1.scores["dice"]).any()


def test_comparison_needs_enough_images():
    data = generate_dataset(SMALL).subset(range(3))
    with pytest.raises(TooFewSamples):
        run_loss_comparison(data, [LossSpec("ce")], folds=5, seed=0, base_cfg=QUICK)


def test_stratify_identical_sizes_collapse_to_global_mean():
    data = generate_dataset(SMALL)
    tiny = TrainConfig(loss=LossSpec("ce"), max_epochs=2, pretrain_epochs_ce=0, seed=0)
    res = run_loss_comparison(data, [LossSpec("ce"), LossSpec("soft_dice_l1")], folds=4,
                              seed=3, base_cfg=tiny)
    res.fg_sizes = np.full(len(data), 100)
    with pytest.warns(EmptyBinWarning):
        strata = stratify_by_size(res, 10)
    for arm in res.arms:
        for m in strata.mean_dice[arm.name]:
            assert m == pytest.approx(float(arm.scores["dice"].mean()), abs=1e-15)
    assert sum(strata.bin_counts) == len(data)


def test_stratify_empty_bins_collapse_with_warning():
    data = generate_dataset(SMALL).subset(range(6))
    tiny = TrainConfig(loss=LossSpec("ce"), max_epochs=1, pretrain_epochs_ce=0, seed=0)
    res = run_loss_comparison(data, [LossSpec("ce")], folds=2, seed=1, base_cfg=tiny)
    with pytest.warns(EmptyBinWarning):
        strata = stratify_by_size(res, 10)
    assert sum(strata.bin_counts) == 6
    assert all(c >= 1 for c in strata.bin_counts)


def test_size_edges_are_np_quantile_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        # few distinct sizes give ties, many give distinct neighbours
        sizes = rng.integers(0, rng.choice([3, 40, 2000]), size=n)
        for n_bins in (3, 5, 10):
            want = np.quantile(sizes, [k / n_bins for k in range(1, n_bins)])
            got = _quantile_edges(sizes, n_bins)
            assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64)), (n, n_bins)
            bins = _size_bins(sizes, n_bins)
            assert np.array_equal(bins, np.searchsorted(want, sizes, side="right")), (n, n_bins)


def test_stratify_two_identical_losses_identical_curves():
    data = generate_dataset(SMALL)
    tiny = TrainConfig(loss=LossSpec("ce"), max_epochs=2, pretrain_epochs_ce=0, seed=0)
    res = run_loss_comparison(data, [LossSpec("soft_dice_l1")], folds=4, seed=3, base_cfg=tiny)
    # duplicate the arm under a new name: identical scores -> identical curve
    import copy
    dup = copy.deepcopy(res.arms[0])
    dup.name = "copy"
    res.arms.append(dup)
    strata = stratify_by_size(res, 5)
    assert strata.mean_dice["soft_dice_l1"] == strata.mean_dice["copy"]


def test_fgbg_masks_hit_target_fraction():
    data = generate_dataset(SyntheticConfig(n_images=60, seed=11))
    [(masks, w, h, achieved)] = build_fgbg_masks(data, [0.2])
    assert len(masks) == 60
    assert abs(achieved - 0.2) <= 0.02
    # recompute the fraction independently from the produced masks
    fracs = []
    for m, s in zip(masks, data):
        sel = m.data.astype(bool)
        fracs.append(s.label.data[sel].mean())
    assert np.isclose(np.mean(fracs), achieved)
    assert 0.18 <= np.mean(fracs) <= 0.22


def test_fgbg_rect_covering_image_matches_unmasked():
    data = generate_dataset(SMALL)
    prior = data.mean_fg_prior()
    [(masks, w, h, achieved)] = build_fgbg_masks(data, [prior])  # whole image wins
    assert (w, h) == (32, 32)
    assert all(m.data.all() for m in masks)


def test_fgbg_infeasible_ratio():
    data = generate_dataset(SMALL)
    # no width comes within 25% of these: the best mean fraction is 0.0825
    for ratio in (0.001, 0.05):
        with pytest.raises(InfeasibleRatio,
                           match=rf"^best rectangle gives mean fg fraction 0\.0825, target {ratio} "):
            build_fgbg_masks(data, [ratio])
    with pytest.raises(OutOfRange):
        build_fgbg_masks(data, [0.0])


# build_fgbg_masks on SMALL: (rect_w, rect_h, achieved.hex(), sha256 of the
# masks' bytes in image order), recorded when the widths were searched twice
# and each ratio had a call of its own; now pinned through one call for all five
FROZEN_RECTS = {
    0.1: (29, 29, "0x1.9b6d285d06455p-4",
          "d8a580ed32e69277aff85f6e8fcc1d59e4ac4194f68c4f40c86eb155c86f8830"),
    0.2: (20, 20, "0x1.a5810624dd2f2p-3",
          "66bd3bb6a7aa48a395cedf504fba9b3c6945337f0faaf2089abb59fb845063b6"),
    0.3: (16, 16, "0x1.2d4cccccccccdp-2",
          "37f6b6bc87dae8943de7b7e2baa3d7e08c268504f7240047ae6d6def4c5509f3"),
    0.5: (11, 11, "0x1.0a0cb1b810ecep-1",
          "fa7f94a44ca7b2409696b5c256a5ecb4aac5b8c982697ae160cb9c4caf9175e0"),
    0.8: (8, 8, "0x1.9d33333333333p-1",
          "2f5effd06d552b2501a698362211d5378975e895fbdc3275012e4235997d3a26"),
}


def _rect_key(result):
    masks, w, h, achieved = result
    return w, h, achieved.hex(), hashlib.sha256(b"".join(m.data.tobytes() for m in masks)).hexdigest()


def test_fgbg_rectangles_are_frozen_bit_for_bit():
    data = generate_dataset(SMALL)
    results = build_fgbg_masks(data, list(FROZEN_RECTS))
    assert len(results) == len(FROZEN_RECTS)
    for (ratio, frozen), result in zip(FROZEN_RECTS.items(), results):
        assert _rect_key(result) == frozen, ratio


def test_fgbg_one_scan_gives_each_ratio_what_it_gives_alone():
    data = generate_dataset(SMALL)
    ratios = [0.5, 0.1, 0.8, 0.3, 0.2]  # not sorted: results follow the list
    for ratio, result in zip(ratios, build_fgbg_masks(data, ratios), strict=True):
        assert _rect_key(result) == _rect_key(build_fgbg_masks(data, [ratio])[0]), ratio
    # the first ratio in list order that no width reaches is the one reported
    with pytest.raises(InfeasibleRatio, match=r"target 0\.05 "):
        build_fgbg_masks(data, [0.3, 0.05, 0.001])
    # an empty list looks at no data: a volume, which a ratio rejects, passes
    volume = SampleSet([Sample(np.zeros((2, 2 * 8 * 8)), np.zeros((3, 2 * 8 * 8)),
                               BinaryMask.from_array(np.zeros((2, 8, 8), dtype=np.uint8)))])
    for d in (data, volume):
        assert build_fgbg_masks(d, []) == []
    with pytest.raises(OutOfRange, match="2D data"):
        build_fgbg_masks(volume, [0.3])


def test_sigmoid_is_one_branch_and_keeps_the_two_branch_threshold():
    rng = np.random.default_rng(11)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 800.0, -800.0,
                        745.0, -745.0, 709.8, -709.8, 5e-324, -5e-324])
    logits = [special, rng.choice(special, 37)]
    for scale in (1e-3, 1.0, 30.0, 800.0):
        s = rng.uniform(-scale, scale, 4099)
        s[rng.integers(0, s.size, 40)] = rng.choice(special, 40)
        logits.append(s)
    for s in logits:
        # weight 1 on a one-row matrix of the negated logits: w_neg @ X is -s
        with np.errstate(over="ignore"):
            p = _probabilities(np.ones(1), (-s)[None, :])
        assert np.array_equal(p.view(np.int64), one_branch_sigmoid(s).view(np.int64))
        two = masked_sigmoid(s)
        pos = s >= 0  # +-0, +inf and 800 included
        assert np.array_equal(p[pos].view(np.int64), two[pos].view(np.int64))
        neg = (s < 0) & (np.abs(two) >= np.finfo(np.float64).tiny)
        np.testing.assert_allclose(p[neg], two[neg], rtol=2e-15, atol=0.0)
        # the scores threshold at 0.5, so they depend on the weights alone
        assert np.array_equal(p > 0.5, two > 0.5)
        assert np.array_equal(np.isnan(p), np.isnan(s))


def test_fit_and_score_keep_the_sigmoid_overflow_silent():
    # pixel values of +-800 put logits below s = -709.78, where exp(-s)
    # overflows to inf; each fit and scoring pass silences that warning
    data = generate_dataset(SMALL).subset(range(8))
    loud = SampleSet([Sample(np.where(s.pixels > 0.5, 800.0, -800.0), s.coords, s.label) for s in data])
    w = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            _probabilities(-w, _StepMatrix(loud).load(loud[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sc = score_images(loud, range(len(loud)), w)
        res = train(loud, replace(QUICK, max_epochs=2, pretrain_epochs_ce=1))
    assert np.all(np.isfinite(sc["dice"])) and np.all(np.isfinite(res.weights))


def test_score_images_equals_metrics_of_thresholded_probabilities():
    data = generate_dataset(SMALL)
    w = train(data, QUICK).weights
    rects = build_fgbg_masks(data, [0.3])[0][0]
    idx = range(len(data))
    for sel in (None, rects):
        sc = score_images(_masked(data, sel), idx, w)  # as the runner scores
        for i in idx:
            s = data[i]
            keep = slice(None) if sel is None else sel[i].data.astype(bool)
            y = mask_of(s.label.data[keep])
            yhat = threshold(prob_of(one_branch_sigmoid(s.features[keep] @ w)), 0.5)
            assert sc["dice"][i] == metrics.dice(y, yhat)
            assert sc["jaccard"][i] == metrics.jaccard(y, yhat)
        assert 0.0 < sc["dice"].mean() < 1.0


# train() on SMALL with QUICK under each loss, and on the in-rectangle
# pixels (fg/bg ratio 0.3) under two: the weights and the best validation loss
# as float.hex, recorded before the features were split into per-image pixel
# rows and one shared coordinate array
FROZEN_FITS = {
    "ce": (("0x1.7386f3424314fp+1", "0x1.1e1649d26f3cdp+2", "-0x1.3dbe7c20d6c37p+0",
            "-0x1.10ab42a3041b7p+0", "-0x1.967a845d9c1d6p+1"), "0x1.eb0d81ab60870p-5"),
    "wce:0.9": (("0x1.52cc6f6d8425fp+1", "0x1.c4f86ee2181ebp+1", "-0x1.ee109a8af2239p-1",
                 "-0x1.26e210e3e78aap-1", "-0x1.7ba3cb0f1b22cp+0"), "0x1.866c82b0d638fp-6"),
    "soft_dice_l1": (("0x1.1aab165b0099ap+2", "0x1.b9c57dc13e2fbp+2", "-0x1.6b6a1e2f07c9dp+0",
                      "-0x1.6a90eb4623285p+0", "-0x1.299a688252654p+2"), "0x1.3787d2fed291ap-3"),
    "soft_dice_l2": (("0x1.3f0e7d6e44682p+1", "0x1.650c98cb4717ep+2", "-0x1.b6790789ce036p-1",
                      "-0x1.884cf4ef25d5ep-1", "-0x1.980ec9976b255p+1"), "0x1.35aa4e7e6aac9p-4"),
    "soft_jaccard": (("0x1.20b07bdaccd1ep+2", "0x1.d09fc9f41fc5dp+2", "-0x1.74af8d3937dbcp+0",
                      "-0x1.87932a3c082f1p+0", "-0x1.476903bf1d710p+2"), "0x1.edd24cc4a65d6p-3"),
    "tversky:0.3:0.7": (("0x1.1863a07317458p+2", "0x1.b28d4af4a8ba4p+2", "-0x1.4ffedca9df934p+0",
                         "-0x1.4adb79a60d026p+0", "-0x1.fc638d4308ea6p+1"), "0x1.24f2b005a93dap-3"),
    "lovasz": (("0x1.0f89d1369ca8fp+1", "0x1.6504752b307d8p+2", "-0x1.7d4c708a78d1ep-1",
                "-0x1.76e6f908ffaa5p-1", "-0x1.9fa88ec68b806p+1"), "0x1.d763a95e3b2bbp-3"),
}
FROZEN_MASKED_FITS = {
    "ce": (("0x1.586beb5f750e7p+1", "0x1.52734ef05c656p+2", "-0x1.f2de31f332aa5p-1",
            "-0x1.5638ff9b89346p-3", "-0x1.9ab219d1b689ap+1"), "0x1.04ed0565897f7p-3"),
    "soft_dice_l1": (("0x1.01c2ec55156f7p+2", "0x1.7ed46c5b0bf33p+2", "-0x1.210aeeef1d24fp+0",
                      "-0x1.171888fdf68f9p-2", "-0x1.be6a4a8b28fcbp+1"), "0x1.059292113821ep-3"),
}


def _hex_fit(res):
    return tuple(float(v).hex() for v in res.weights), res.best_val_loss.hex()


def test_train_weights_are_frozen_bit_for_bit():
    data = generate_dataset(SMALL)
    masked = _masked(data, build_fgbg_masks(data, [0.3])[0][0])
    for pool, fits in ((data, FROZEN_FITS), (masked, FROZEN_MASKED_FITS)):
        # each loss alone, then from one warm-up that every loss starts
        # from, as the arms of a fold do: a generator shared rather than
        # copied would give every loss after the first other bits
        start = warm_up(pool, QUICK)
        for token, frozen in fits.items():
            cfg = replace(QUICK, loss=parse_loss_spec(token))
            assert _hex_fit(train(pool, cfg)) == frozen, token
            assert _hex_fit(train(pool, cfg, start)) == frozen, token


def test_samples_of_one_dataset_share_one_coordinate_array():
    data = generate_dataset(SMALL)
    first = data[0].coords
    assert first.shape == (N_FEATURES - 2, 32 * 32) and first.flags.c_contiguous
    for s in data:
        assert s.coords is first and np.shares_memory(s.coords, first)
        assert s.pixels.shape == (2, 32 * 32) and s.pixels.flags.c_contiguous
        assert not np.shares_memory(s.pixels, first)
    assert not np.shares_memory(data[0].pixels, data[1].pixels)
    # a second dataset gets its own
    assert not np.shares_memory(generate_dataset(SMALL)[0].coords, first)


def test_sample_features_are_the_stacked_feature_values():
    data = generate_dataset(SMALL)
    # sha256 of every image's (d, 5) features, recorded when generate_dataset
    # stored them as one (5, d) array per image
    digest = hashlib.sha256()
    for s in data:
        assert s.features.shape == (32 * 32, N_FEATURES) and s.features.dtype == np.float64
        digest.update(np.ascontiguousarray(s.features).tobytes())
    assert digest.hexdigest() == "0cdacd82916fe243a5cdf876d4c6d518e8f5102bb208f88795c3214e760684ff"
    s = data[3]
    assert np.array_equal(s.features, np.vstack([s.pixels, s.coords]).T)
    ys, xs = np.mgrid[0:32, 0:32] / 31.0
    assert np.array_equal(s.features[:, 2:], np.stack([xs.ravel(), ys.ravel(), np.ones(32 * 32)], axis=1))


def test_masked_gives_views_of_all_pixels_and_copies_under_a_mask():
    data = generate_dataset(SMALL).subset(range(4))
    # every pixel: the samples themselves, their own arrays and mask bytes
    assert _masked(data, None) is data
    keep = np.zeros(32 * 32, dtype=bool)
    keep[5::3] = True
    part = BinaryMask(data.dims, keep.astype(np.uint8))
    ones = BinaryMask(data.dims, np.ones(32 * 32, dtype=np.uint8))
    masks = [part, ones, part, ones]
    for m, s, mask in zip(_masked(data, masks), data, masks):
        sel = mask.data.astype(bool)
        assert not np.shares_memory(m.pixels, s.pixels) and not np.shares_memory(m.coords, s.coords)
        assert not np.shares_memory(m.label.data, s.label.data)
        assert m.pixels.flags.c_contiguous and m.coords.flags.c_contiguous
        assert np.array_equal(m.features, s.features[sel])
        assert m.label.dims == (mask.count(), 1, 1)
        assert m.label.data.dtype == np.bool_ and np.array_equal(m.label.data, s.label.data[sel])


def test_step_matrix_loads_pixel_rows_and_changed_coordinate_rows():
    data = generate_dataset(SMALL).subset(range(3))
    keep = np.zeros(32 * 32, dtype=bool)
    keep[::4] = True
    masked = _masked(data, [BinaryMask(data.dims, keep.astype(np.uint8))] * 3)
    samples = [data[0], masked[1], data[2]]
    steps = _StepMatrix(samples)
    for s in [*samples, samples[1], samples[0]]:
        X = steps.load(s)
        assert X.flags.c_contiguous and X.shape == (N_FEATURES, s.pixels.shape[1])
        assert np.array_equal(X, np.vstack([s.pixels, s.coords]))
