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
from segloss.losses import LossSpec
from segloss.masks import BinaryMask, threshold
from segloss.toytrain import (
    N_FEATURES,
    SCORE_COLUMNS,
    EmptyBinWarning,
    Sample,
    SampleSet,
    SyntheticConfig,
    TrainConfig,
    _fit,
    _mean_loss,
    _prepare,
    _resolve_masks,
    _run_epoch,
    _score,
    _sigmoid,
    build_fgbg_masks,
    generate_dataset,
    run_loss_comparison,
    score_images,
    stratify_by_size,
    train,
)
from util import mask_of, masked_sigmoid, one_branch_sigmoid, prob_of

SMALL = SyntheticConfig(n_images=40, dims=(32, 32), object_radius_range=(3.0, 6.0),
                        fg_prior_target=0.08, noise_sigma=0.3, seed=5)
QUICK = TrainConfig(loss=LossSpec("ce"), learning_rate=4.0, max_epochs=6,
                    pretrain_epochs_ce=2, early_stop_patience=4, batch_size=4, seed=9)


def both_datasets_equal(a, b):
    return all(
        np.array_equal(sa.features, sb.features) and np.array_equal(sa.label.data, sb.label.data)
        for sa, sb in zip(a, b)
    )


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
    bad = SampleSet([Sample(feats, BinaryMask((32, 32, 1), np.zeros(d, dtype=np.uint8)))])
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
    bad = SampleSet([Sample(feats, data[0].label), *data.samples[1:]])
    cfg = TrainConfig(loss=LossSpec("soft_dice_l1"), max_epochs=3, pretrain_epochs_ce=pretrain, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteLoss, match=rf"non-finite weights \(loss={phase_loss}, lr=4.0\)"):
        train(bad, cfg)


def test_train_loss_mostly_nonincreasing():
    # descent at the default learning rate and batch size lowers the
    # training-set loss it descends on in nearly every epoch
    data = generate_dataset(SMALL)
    items = _prepare(data, [slice(None)] * len(data))
    for loss in (LossSpec("ce"), LossSpec("soft_dice_l1")):
        cfg = TrainConfig(loss=loss, seed=7)
        rng = np.random.default_rng(cfg.seed)
        w = rng.normal(0.0, 0.5, N_FEATURES)
        curve = []
        for _ in range(30):
            w = _run_epoch(items, w, loss, cfg.learning_rate, cfg.batch_size, rng)
            curve.append(_mean_loss(items, w, loss))
        frac = float(np.mean(np.diff(curve) <= 1e-12))
        assert frac >= 0.9


def test_output_mask_all_ones_matches_unmasked():
    data = generate_dataset(SMALL)
    ones = [BinaryMask(data.dims, np.ones(32 * 32, dtype=np.uint8))] * len(data)
    r_plain = train(data, QUICK)
    r_masked = _fit(_prepare(data, _resolve_masks(data, ones)), QUICK)
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
    masks, w, h, achieved = build_fgbg_masks(data, 0.2)
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
    masks, w, h, achieved = build_fgbg_masks(data, prior)  # whole image wins
    assert (w, h) == (32, 32)
    assert all(m.data.all() for m in masks)


def test_fgbg_infeasible_ratio():
    data = generate_dataset(SMALL)
    with pytest.raises(InfeasibleRatio):
        build_fgbg_masks(data, 0.001)
    with pytest.raises(OutOfRange):
        build_fgbg_masks(data, 0.0)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow below s = -709.78 stays silent
            p = _sigmoid(s)
        assert np.array_equal(p.view(np.int64), one_branch_sigmoid(s).view(np.int64))
        two = masked_sigmoid(s)
        pos = s >= 0  # +-0, +inf and 800 included
        assert np.array_equal(p[pos].view(np.int64), two[pos].view(np.int64))
        neg = (s < 0) & (np.abs(two) >= np.finfo(np.float64).tiny)
        np.testing.assert_allclose(p[neg], two[neg], rtol=2e-15, atol=0.0)
        # the scores threshold at 0.5, so they depend on the weights alone
        assert np.array_equal(p > 0.5, two > 0.5)
        assert np.array_equal(np.isnan(p), np.isnan(s))


def test_score_images_equals_metrics_of_thresholded_probabilities():
    data = generate_dataset(SMALL)
    w = train(data, QUICK).weights
    rects = build_fgbg_masks(data, 0.3)[0]
    idx = range(len(data))
    for sel in (None, rects):
        if sel is None:
            sc = score_images(data, idx, w)
        else:  # the runner scores in-mask pixels this way
            sc = _score(_prepare(data, _resolve_masks(data, sel)), w)
        for i in idx:
            s = data[i]
            keep = slice(None) if sel is None else sel[i].data.astype(bool)
            y = mask_of(s.label.data[keep])
            yhat = threshold(prob_of(_sigmoid(s.features[keep] @ w)), 0.5)
            assert sc["dice"][i] == metrics.dice(y, yhat)
            assert sc["jaccard"][i] == metrics.jaccard(y, yhat)
        assert 0.0 < sc["dice"].mean() < 1.0
