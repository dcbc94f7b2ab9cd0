import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from segloss import bounds, cli, fileio, toytrain
from segloss.losses import LossSpec
from segloss.masks import BinaryMask, ProbMap
from segloss.stats import DEFAULT_RESAMPLES
from segloss.toytrain import SyntheticConfig, TrainConfig, derive_seed

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# every evaluate token kind, plus a non-default weighted-Hamming gamma and
# Tversky at its Dice point
EVAL_TOKENS = ("dice,jaccard,hamming,accuracy,whamming:0.5,whamming:0.3,"
               "tversky:0.3:0.7,tversky:0.5:0.5,fbeta:2,hausdorff,avd")


@pytest.mark.parametrize("pair", ["dice-jaccard", "dice-tversky:0.3:0.7", "dice-whamming:0.5"])
def test_bounds_reports_match_golden(tmp_path, pair):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", pair, "--dmax", "12"]) == 0
    base = "bounds_" + pair.replace(":", "_")
    for ext in ("csv", "json"):
        with open(os.path.join(GOLDEN, f"{base}.{ext}"), "rb") as fh:
            want = fh.read()
        with open(tmp_path / f"{base}.{ext}", "rb") as fh:
            assert fh.read() == want, ext


def test_bounds_pair_first_metric_may_have_negative_exponent(tmp_path):
    reports = []
    for pair in ("tversky:1e-3:1-dice", "tversky:0.001:1-dice"):
        assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", pair, "--dmax", "4"]) == 0
        base = "bounds_" + pair.replace(":", "_")
        reports.append([(tmp_path / f"{base}.{ext}").read_bytes() for ext in ("csv", "json")])
    assert reports[0] == reports[1]
    table = fileio.read_report_json(str(tmp_path / "bounds_tversky_1e-3_1-dice.json"))
    assert {(row[1], row[2]) for row in table.rows} == {("tversky:0.001:1", "dice")}


def test_bounds_dmax_past_limit_is_usage_error(tmp_path, capsys):
    dmax = str(bounds.MAX_BRUTE_FORCE_D + 1)
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", dmax]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_bounds_pair_without_partner_is_usage_error(tmp_path, capsys):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice"]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--fig1-grid", "--pair", "dice-jaccard", "--dmax", "3"], []],
                         ids=["fig1-grid-with-pair", "neither"])
def test_bounds_needs_exactly_one_of_pair_and_fig1_grid(tmp_path, capsys, argv):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", *argv]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("too_tight", [(0.0, None), (1.0, 0.0)])
def test_bounds_closed_form_violation_is_numeric_failure(tmp_path, capsys, monkeypatch, too_tight):
    monkeypatch.setattr(bounds, "closed_form_bounds", lambda a, b: too_tight)
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", "3"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def write_eval_inputs(directory, case: str) -> tuple[str, str]:
    """A fixed (ground truth, prediction) file pair for an evaluate case:
    "pair" is a 2x4x5 MSK1 volume with a probability-map prediction;
    "empty_pred" and "empty_gt" are 5x4 PGM binary masks with one side
    empty."""
    if case == "pair":
        z, y, x = np.indices((2, 4, 5))
        gt = BinaryMask.from_array(((x + 2 * y + 3 * z) % 5 == 0).astype(np.uint8))
        pred = ProbMap.from_array(np.array([0.1, 0.3, 0.7, 0.9])[(3 * x + y + 2 * z) % 4])
    else:
        some = np.zeros((4, 5), dtype=np.uint8)
        some[1:3, 1:4] = 1
        none = np.zeros((4, 5), dtype=np.uint8)
        gt, pred = (some, none) if case == "empty_pred" else (none, some)
        gt, pred = BinaryMask.from_array(gt), BinaryMask.from_array(pred)
    ext = "msk" if case == "pair" else "pgm"
    paths = (os.path.join(directory, f"gt.{ext}"), os.path.join(directory, f"pred.{ext}"))
    fileio.write_mask(gt, paths[0])
    fileio.write_mask(pred, paths[1])
    return paths


@pytest.mark.parametrize("case", ["pair", "empty_pred", "empty_gt"])
def test_evaluate_reports_match_golden(tmp_path, case):
    gt, pred = write_eval_inputs(tmp_path, case)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", EVAL_TOKENS]) == 0
    for ext in ("csv", "json"):
        with open(os.path.join(GOLDEN, f"evaluate_{case}.{ext}"), "rb") as fh:
            assert (out / f"evaluate.{ext}").read_bytes() == fh.read(), ext


def test_evaluate_missing_file_is_data_error(tmp_path, capsys):
    gt, _ = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, str(tmp_path / "absent.msk")]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_probability_ground_truth_is_data_error(tmp_path, capsys):
    _, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", pred, pred]) == 2
    assert "data error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_without_metrics_is_usage_error(tmp_path, capsys):
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", ","]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_bare_whamming_means_gamma_half(tmp_path):
    gt, pred = write_eval_inputs(tmp_path, "pair")
    reports = []
    for token in ("whamming", "whamming:0.5"):
        out = tmp_path / token.replace(":", "_")
        assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", token]) == 0
        reports.append([(out / f"evaluate.{ext}").read_bytes() for ext in ("csv", "json")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    *(["evaluate", "{gt}", "{pred}", "--metrics", f"dice,{token}"]
      for token in ("whamming:abc", "fbeta:x", "fbeta:nan", "tversky:nan:1", "tversky:inf:1",
                    "dice:1", "fbeta")),
    ["bounds", "--pair", "dice-tversky:nan:1"],
    ["bounds", "--pair", "dice-hausdorff"],
])
def test_bad_metric_token_is_usage_error(tmp_path, capsys, argv):
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), *(a.format(gt=gt, pred=pred) for a in argv)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_non_finite_metric_value_is_numeric_failure(tmp_path, capsys):
    # b*b overflows to inf, so the F-beta ratio is inf/inf
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", "fbeta:1e200"]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["pair", "empty_pred"])
@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_evaluate_threshold_outside_unit_interval_is_usage_error(tmp_path, capsys, case, value):
    # checked before any file is read, so a binary prediction, which is
    # never thresholded, fails the same way as a probability map
    gt, pred = write_eval_inputs(tmp_path, case)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--threshold", value]) == 1
    assert capsys.readouterr().err.startswith("segloss: usage error: --threshold must lie in [0, 1]")
    assert not out.exists()


@pytest.mark.parametrize("dmax", ["0", "-3"])
def test_bounds_dmax_below_one_is_usage_error(tmp_path, capsys, dmax):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", dmax]) == 1
    assert "below 1" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


TINY_TRAIN = ("n_images = 12\nnx = 32\nny = 32\nradius_min = 3\nradius_max = 6\nfg_prior = 0.08\n"
              "folds = 2\nmax_epochs = 6\npretrain_epochs_ce = 2\nn_resamples = 1000\n"
              "losses = ce, soft_dice\nfgbg_ratios = 0.3\n")


def _tree(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_train_reports_identical_across_threads(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN)
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["--threads", threads, "--out-dir", str(out), "train", str(cfg)]) == 0
        trees.append(_tree(out))
    # scores per arm, significance, summary and strata, then the fg/bg run's
    # scores per arm, significance and summary; each as csv and json
    assert len(trees[0]) == 18
    assert trees[0] == trees[1]


@pytest.mark.filterwarnings("always::segloss.toytrain.EmptyBinWarning")
def test_train_warning_is_one_segloss_line(tmp_path, capsys):
    cfg = tmp_path / "six.cfg"
    cfg.write_text("n_images = 6\nfolds = 2\nmax_epochs = 2\npretrain_epochs_ce = 1\n")
    assert cli.main(["--out-dir", str(tmp_path / "shown"), "train", str(cfg)]) == 0
    assert capsys.readouterr().err == "segloss: warning: 4 empty size bins collapsed (6 images over 10 bins)\n"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", toytrain.EmptyBinWarning)
        assert cli.main(["--out-dir", str(tmp_path / "quiet"), "train", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert _tree(tmp_path / "shown") == _tree(tmp_path / "quiet")
    assert len(_tree(tmp_path / "shown")) == 10


def test_fgbg_runs_compare_the_configured_losses(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", "losses = soft_jaccard, lovasz")
                   .replace("max_epochs = 6", "max_epochs = 2"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    # the masked run scores the listed arms, and no ce arm
    assert sorted(n for n in os.listdir(out) if n.startswith("fgbg_0p3_scores_")) == [
        "fgbg_0p3_scores_lovasz.csv", "fgbg_0p3_scores_lovasz.json",
        "fgbg_0p3_scores_soft_jaccard.csv", "fgbg_0p3_scores_soft_jaccard.json"]
    methods = [row[4] for row in fileio.read_report_json(str(out / "fgbg_0p3_summary.json")).rows]
    assert methods == ["soft_jaccard", "lovasz"]


TINY_SWEEP = ("n_images = 10\nnx = 32\nny = 32\nradius_min = 3\nradius_max = 6\nfg_prior = 0.08\n"
              "folds = 2\nmax_epochs = 4\npretrain_epochs_ce = 1\nn_resamples = 1000\n"
              "alphas = 0.3, 0.7\nequal_alphas = 1\n")


# the wce (auto and fixed gamma), soft Jaccard and Lovasz arms
TINY_TRAIN_ARMS = TINY_TRAIN.replace("losses = ce, soft_dice", "losses = wce, wce:0.9, soft_jaccard, lovasz")
GOLDEN_TREE = {TINY_TRAIN: "train", TINY_SWEEP: "sweep", TINY_TRAIN_ARMS: "train_arms"}


@pytest.mark.parametrize("command, config", [("train", TINY_TRAIN), ("sweep", TINY_SWEEP),
                                             ("train", TINY_TRAIN_ARMS)])
def test_experiment_reports_match_golden(tmp_path, command, config):
    # the train configs have an fg/bg ratio, so the golden trees cover the
    # masked path as well as the plain comparison
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), command, str(cfg)]) == 0
    assert _tree(out) == _tree(pathlib.Path(GOLDEN) / GOLDEN_TREE[config])


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_THREADS = ("import os, segloss.cli\n"
                "task = '/proc/self/task'\n"
                "print(len(os.listdir(task)) if os.path.isdir(task) else 1, os.environ.get('OMP_NUM_THREADS'))\n")


def _fresh_python(args, cwd=None, **env):
    """Run a new interpreter with src on PYTHONPATH and no BLAS thread variable set."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env={**base, **env}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_import_loads_no_numpy():
    # so that the cli module's pin runs before numpy loads
    _fresh_python(["-c", "import sys, segloss; assert 'numpy' not in sys.modules"])


def test_cli_runs_one_blas_thread():
    assert _fresh_python(["-c", SHOW_THREADS]).split() == ["1", "1"]


def test_cli_leaves_a_set_blas_thread_variable_alone():
    assert _fresh_python(["-c", SHOW_THREADS], OPENBLAS_NUM_THREADS="2").split()[1] == "None"


def test_train_cli_process_matches_golden(tmp_path):
    # pytest has loaded numpy with its default threads, so cli.main in this
    # process never takes the pinned path; a child process does
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN)
    _fresh_python(["-m", "segloss.cli", "--out-dir", "out", "train", str(cfg)], cwd=tmp_path)
    assert _tree(tmp_path / "out") == _tree(pathlib.Path(GOLDEN) / "train")


def test_sweep_builds_eleven_arms(tmp_path):
    # no alphas or equal_alphas in the config: the default arms
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_images = 20\nnx = 32\nny = 32\nradius_min = 3\nradius_max = 6\nfg_prior = 0.08\n"
                   "folds = 2\nmax_epochs = 1\npretrain_epochs_ce = 0\nn_resamples = 1000\nseed = 1\n")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "sweep", str(cfg)]) == 0
    names = [row[0] for row in fileio.read_report_json(str(out / "sweep_summary.json")).rows]
    assert len(names) == 11
    assert "tversky:0.5:0.5" in names
    assert names[-2:] == ["tversky:0.75:0.75", "tversky:1:1"]


def test_report_prints_every_row_of_a_json_report(capsys):
    path = os.path.join(GOLDEN, "train", "summary.json")
    assert cli.main(["report", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    with open(os.path.join(GOLDEN, "train", "summary.csv"), encoding="utf-8") as fh:
        csv_lines = fh.read().splitlines()
    assert lines[0] == "# summary"
    assert lines[1].split() == csv_lines[0].split(",")
    # the csv cells hold no commas or blanks, so each printed row splits
    # into the same cells
    assert [line.split() for line in lines[2:]] == [row.split(",") for row in csv_lines[1:]]
    assert len(lines) == 4  # name, header and one row per arm


def test_report_missing_path_is_data_error(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "absent.json")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("name, columns, rows", [("bad", ["a", "b"], [[1, 2, 3], [4]]), ("bad", "ab", [[1, 2]]),
                                                 (5, ["a"], [[1]]), ("bad", ["a", "b"], [[{"k": 1}, 2]])],
                         ids=["ragged-rows", "string-columns", "number-name", "object-cell"])
def test_report_of_a_malformed_table_is_data_error(tmp_path, capsys, name, columns, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": name, "columns": columns, "rows": rows}))
    assert cli.main(["report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("segloss: data error: ")


@pytest.mark.parametrize("argv", [
    ["evaluate", "{gt}", "{dir}"],
    ["evaluate", "{dir}", "{gt}"],
    ["report", "{dir}"],
    ["train", "{dir}"],
    ["sweep", "{dir}"],
    ["--out-dir", "{file}", "evaluate", "{gt}", "{gt}"],
    ["--out-dir", "{file}/sub", "bounds", "--pair", "dice-jaccard", "--dmax", "2"],
    ["report", "{gt}"],
    ["train", "{gt}"],
    ["sweep", "{gt}"],
], ids=["evaluate-pred-dir", "evaluate-gt-dir", "report-dir", "train-dir", "sweep-dir",
        "out-dir-is-file", "out-dir-under-file", "report-msk", "train-msk", "sweep-msk"])
def test_os_error_on_a_path_is_data_error(tmp_path, capsys, argv):
    # IsADirectoryError, FileExistsError and NotADirectoryError in turn,
    # then a mask file, which is not UTF-8 text, where a report or config
    # is expected
    gt, _ = write_eval_inputs(tmp_path, "pair")
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_bytes(b"")
    before = sorted(tmp_path.rglob("*"))
    paths = {"gt": gt, "dir": str(tmp_path / "dir"), "file": str(tmp_path / "file")}
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "--out-dir":
        argv = ["--out-dir", str(tmp_path / "out")] + argv
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("segloss: data error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_bytes() == b""


@pytest.mark.parametrize("losses", ["ce, ce", "soft_dice, soft_dice_l1"])
def test_train_duplicate_arm_labels_are_usage_error_before_training(tmp_path, capsys, monkeypatch, losses):
    def no_training(*args, **kwargs):
        raise AssertionError("an arm was trained")

    monkeypatch.setattr(toytrain, "_fit", no_training)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", f"losses = {losses}"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("segloss: usage error: loss arms must have distinct labels")
    assert not out.exists()


def test_train_arms_equal_in_g_format_get_distinct_reports(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice",
                                      "losses = tversky:0.3:0.7, tversky:0.30000001:0.7"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    summary = fileio.read_report_json(str(out / "summary.json"))
    assert [row[0] for row in summary.rows] == ["tversky:0.3:0.7", "tversky:0.30000001:0.7"]
    for base, name in [("scores_tversky_0p3_0p7", "scores_tversky:0.3:0.7"),
                       ("scores_tversky_0p30000001_0p7", "scores_tversky:0.30000001:0.7")]:
        assert fileio.read_report_json(str(out / f"{base}.json")).name == name



@pytest.mark.parametrize("command, edit, code, message", [
    ("train", ("n_resamples = 1000", "n_resamples = 500"), 1,
     "usage error: n_resamples must be >= 1000"),
    ("train", ("losses = ce, soft_dice", "losses = ce"), 1,
     "usage error: rank_methods needs at least two methods"),
    ("train", ("fgbg_ratios = 0.3", "fgbg_ratios = 1.5"), 1,
     "usage error: ratio must lie in (0, 1]"),
    ("train", ("fgbg_ratios = 0.3", "fgbg_ratios = 0.3, 0.001"), 3,
     "numeric failure: best rectangle gives"),
    ("train", ("fgbg_ratios = 0.3", "fgbg_ratios = 0.3, 0.3"), 1,
     "usage error: fgbg_ratios must have distinct report names, got fgbg_0p3 twice"),
    ("sweep", ("n_resamples = 1000", "n_resamples = 500"), 1,
     "usage error: n_resamples must be >= 1000"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000\nseed = -1"), 1,
     "usage error: seed must be >= 0"),
    ("train", ("radius_min = 3", "radius_min = nan"), 1, "usage error: invalid radius range"),
    ("train", ("radius_max = 6", "radius_max = nan"), 1, "usage error: invalid radius range"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000\nnoise_sigma = nan"), 1,
     "usage error: noise_sigma must be finite and >= 0"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000\nnoise_sigma = inf"), 1,
     "usage error: noise_sigma must be finite and >= 0"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000\nlearning_rate = nan"), 1,
     "usage error: learning_rate must be finite and > 0"),
    ("sweep", ("n_resamples = 1000", "n_resamples = 1000\nlearning_rate = inf"), 1,
     "usage error: learning_rate must be finite and > 0"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000\nnoise_sigma = 1e308"), 3,
     "numeric failure: noise_sigma = 1e+308 overflows the image features"),
    ("train", ("n_resamples = 1000", "n_resamples = 1000000000000"), 1,
     "usage error: n_resamples must be <= 10000000, got 1000000000000"),
    ("sweep", ("n_resamples = 1000", "n_resamples = 10000001"), 1,
     "usage error: n_resamples must be <= 10000000, got 10000001"),
])
def test_experiment_config_errors_stop_before_training(tmp_path, capsys, monkeypatch,
                                                       command, edit, code, message):
    def no_training(*args, **kwargs):
        raise AssertionError("a job was trained")

    monkeypatch.setattr(toytrain, "_fit", no_training)
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text({"train": TINY_TRAIN, "sweep": TINY_SWEEP}[command].replace(*edit))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--out-dir", str(out), command, str(cfg)]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith(f"segloss: {message}")
    assert not out.exists()


@pytest.mark.parametrize("raised, shown", [("Unable to allocate 7.28 TiB for an array",) * 2,
                                            ("", "out of memory")])
def test_out_of_memory_is_numeric_failure(tmp_path, capsys, monkeypatch, raised, shown):
    def no_memory(*args, **kwargs):
        raise MemoryError(raised)

    monkeypatch.setattr(cli, "generate_dataset", no_memory)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN)
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg)]) == 3
    assert capsys.readouterr().err == f"segloss: numeric failure: {shown}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_negative_seed_flag_is_usage_error(tmp_path, capsys, monkeypatch, command):
    def no_data(*args, **kwargs):
        raise AssertionError("data was generated")

    monkeypatch.setattr(cli, "generate_dataset", no_data)
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text({"train": TINY_TRAIN, "sweep": TINY_SWEEP}[command])
    out = tmp_path / "out"
    assert cli.main(["--seed", "-1", "--out-dir", str(out), command, str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("segloss: usage error: seed must be >= 0")
    assert not out.exists()


def test_train_fgbg_ratios_equal_in_g_format_get_distinct_reports(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("fgbg_ratios = 0.3", "fgbg_ratios = 0.3, 0.30000001")
                   .replace("max_epochs = 6", "max_epochs = 2"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    for tag, ratio in [("fgbg_0p3", 0.3), ("fgbg_0p30000001", 0.30000001)]:
        summary = fileio.read_report_json(str(out / f"{tag}_summary.json"))
        assert summary.name == f"{tag}_summary"
        assert [row[0] for row in summary.rows] == [ratio, ratio]


def test_experiment_setup_defaults_are_the_config_dataclass_defaults():
    assert cli._experiment_setup({}, None) == (
        0, SyntheticConfig(seed=derive_seed(0, 17)), TrainConfig(loss=LossSpec("ce")), 5,
        DEFAULT_RESAMPLES)


def test_experiment_setup_fills_an_unset_half_of_a_pair_from_its_default():
    seed, synth, base, folds, n_resamples = cli._experiment_setup(
        {"nx": 40, "radius_max": 8.0, "data_seed": 4, "max_epochs": 3, "folds": 3}, 2)
    assert (seed, folds, n_resamples) == (2, 3, DEFAULT_RESAMPLES)
    assert synth == SyntheticConfig(dims=(40, 64), object_radius_range=(3.0, 8.0), seed=4)
    assert base == TrainConfig(loss=LossSpec("ce"), max_epochs=3)

@pytest.mark.parametrize("loss", ["tversky:nan:1", "tversky:inf:1"])
def test_train_non_finite_loss_weight_is_usage_error(tmp_path, capsys, loss):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", f"losses = ce, {loss}"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
