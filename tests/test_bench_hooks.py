"""The names the layer probe and tracer in perfbench/layers.py bind.

perfbench/smoke.py exercises them by running the whole benchmark at
small sizes; these checks fail at once when a refactor renames or drops
one.
"""

import importlib.util
import inspect
import os

import numpy as np
import pytest

from segloss import bounds, cli, fileio, losses, metrics, stats, toytrain
from segloss.masks import BinaryMask


def _load_layers():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.py")
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()


@pytest.mark.parametrize("name", list(LAYERS.KERNELS))
def test_probe_kernel_tokens_parse_and_evaluate(name):
    spec = LAYERS.parse_loss_spec(LAYERS.KERNELS[name])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    out = LAYERS.eval_loss_arrays(spec, y, np.array([0.8, 0.3, 0.6, 0.1]))
    assert isinstance(out, tuple) and len(out) == 3


def test_probe_counts_loss_calls_through_toytrain():
    assert toytrain.eval_loss_arrays is losses.eval_loss_arrays


def test_probe_captures_the_runner_arguments_by_name():
    params = inspect.signature(cli.run_loss_comparison).parameters
    assert {"data", "losses", "folds", "seed", "base_cfg", "output_masks", "threads"} <= set(params)


def test_probe_calls_train_score_images_and_subset_positionally():
    inspect.signature(toytrain.train).bind("data", "cfg")
    inspect.signature(toytrain.score_images).bind("data", "idx", "w")
    inspect.signature(toytrain.SampleSet.subset).bind("self", "idx")
    assert isinstance(toytrain.derive_seed(0, 0), int)


def test_probe_reads_weights_and_epochs_run_off_a_train_result():
    data = toytrain.generate_dataset(toytrain.SyntheticConfig(
        n_images=5, nx=16, ny=16, radius_min=2.0, radius_max=4.0, fg_prior=0.08))
    res = toytrain.train(data, toytrain.TrainConfig(loss=losses.LossSpec("ce"), max_epochs=2,
                                                    pretrain_epochs_ce=1))
    assert res.weights.shape == (toytrain.N_FEATURES,)
    assert res.epochs_run == len(res.val_losses) == 2


def test_probe_multiplies_sample_features_by_weights_and_training_gets_feature_major_rows():
    data = toytrain.generate_dataset(toytrain.SyntheticConfig(
        n_images=2, nx=16, ny=16, radius_min=2.0, radius_max=4.0, fg_prior=0.08))
    d = 16 * 16
    w = np.arange(1.0, toytrain.N_FEATURES + 1.0)
    for s in data:
        assert s.features.shape == (d, toytrain.N_FEATURES)
        assert (s.features @ w).shape == (d,)
    keep = np.zeros(d, dtype=bool)
    keep[::3] = True
    for masks, sel in ((None, slice(None)), ([BinaryMask(data.dims, keep.astype(np.uint8))] * 2, keep)):
        pool = toytrain._masked(data, masks)
        steps = toytrain._StepMatrix(pool)
        for m, s in zip(pool, data):
            X = steps.load(m)
            assert X.flags.c_contiguous and X.shape == (toytrain.N_FEATURES, m.label.d)
            assert np.array_equal(X.T, s.features[sel])
            # no output masks: the sample's own rows, no copy
            assert np.shares_memory(m.pixels, s.pixels) == (masks is None)
            assert np.shares_memory(m.coords, s.coords) == (masks is None)


@pytest.mark.parametrize("masked", [False, True])
def test_runner_fits_and_scores_through_train_and_score_images(monkeypatch, masked):
    # the probe times toytrain.train and toytrain.score_images as the
    # runner's per-job work, so the runner must call exactly those; the
    # CE warm-up runs once per fold, and every arm of the fold starts from it
    data = toytrain.generate_dataset(toytrain.SyntheticConfig(
        n_images=5, nx=16, ny=16, radius_min=2.0, radius_max=4.0, fg_prior=0.08))
    masks = [BinaryMask(data.dims, np.ones(16 * 16, dtype=np.uint8))] * len(data) if masked else None
    arms = [losses.LossSpec("ce"), losses.LossSpec("soft_dice_l1")]
    base = toytrain.TrainConfig(loss=losses.LossSpec("ce"), max_epochs=2, pretrain_epochs_ce=1)

    def run():
        return toytrain.run_loss_comparison(data, arms, folds=2, seed=3, base_cfg=base, output_masks=masks)

    plain = run()
    calls = {"train": 0, "warm_up": 0, "score_images": 0}

    def counted(name):
        real = getattr(toytrain, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(toytrain, name, counted(name))
    wrapped = run()
    assert calls == {"train": 2 * len(arms), "warm_up": 2, "score_images": 2 * len(arms)}
    for a, b in zip(plain.arms, wrapped.arms):
        for c in toytrain.SCORE_COLUMNS:
            assert np.array_equal(a.scores[c], b.scores[c])


def test_span_reads_the_mask_path_argument_by_name():
    assert "path" in inspect.signature(fileio.read_mask).parameters


def test_spans_read_rank_and_bound_arguments_by_name_as_the_cli_passes_them():
    vectors = [stats.ScoreVector(m, [0.1, 0.2]) for m in "abc"]
    attrs = LAYERS._span_attrs("stats.rank_methods", inspect.signature(stats.rank_methods),
                               (vectors, 1000, 7), {}, None)
    assert attrs == {"bootstrap_tests": 6, "n_resamples": 1000}
    attrs = LAYERS._span_attrs("bounds.brute_force_sup", inspect.signature(bounds.brute_force_sup),
                               ("dice", "jaccard", 3), {}, None)
    assert attrs == {"d": 3}


def test_span_sums_the_bytes_of_the_paths_write_report_returns(tmp_path):
    table = fileio.ReportTable("t", ["x"], [[1]])
    paths = fileio.write_report(table, str(tmp_path), "t")
    assert sorted(paths) == sorted(str(p) for p in tmp_path.iterdir())
    attrs = LAYERS._span_attrs("fileio.write_report", inspect.signature(fileio.write_report),
                               (table, str(tmp_path), "t"), {}, paths)
    assert attrs == {"bytes": sum(p.stat().st_size for p in tmp_path.iterdir())}


def test_hausdorff_row_resolves_the_module_function_at_call_time(monkeypatch):
    calls = []
    monkeypatch.setattr(metrics, "hausdorff_distance", lambda y, yhat: calls.append((y, yhat)) or 0.0)
    m = BinaryMask((2, 1, 1), np.array([1, 0], dtype=np.uint8))
    assert metrics.METRICS["hausdorff"].masks(m, m) == 0.0
    assert calls == [(m, m)]


def test_benchmark_command_lines_parse(monkeypatch):
    # a flag the benchmark passes, such as --threads, must keep parsing;
    # workloads.py imports its sibling oracles.py as a top-level module
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = cli.build_parser()
    inputs = workloads.Inputs("inputs")
    for scale in (workloads.FULL, workloads.TINY):
        for workload in workloads.WORKLOADS.values():
            for argv in workload(scale).commands(inputs, 1, "out"):
                parser.parse_args(argv)
