import json
import os
import pathlib
import subprocess
import sys
import dataclasses
import warnings
from dataclasses import replace

import numpy as np
import pytest

from segloss import bounds, cli, fileio, metrics, toytrain
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


@pytest.mark.parametrize("argv", [["--fig1-grid", "--pair", "dice-jaccard", "--dmax", "3"], [],
                                  *(["--fig1-grid", "--dmax", v] for v in ("0", "999", "5"))],
                         ids=["fig1-grid-with-pair", "neither", "fig1-grid-dmax-0", "fig1-grid-dmax-999",
                              "fig1-grid-dmax-5"])
def test_bounds_needs_exactly_one_of_pair_and_fig1_grid(tmp_path, capsys, argv):
    assert cli.main(["--out-dir", str(tmp_path), "bounds", *argv]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("too_tight", [(0.0, None), (1.0, 0.0)])
def test_bounds_closed_form_violation_is_numeric_failure(tmp_path, capsys, monkeypatch, too_tight):
    monkeypatch.setattr(bounds, "closed_form_bounds", lambda a, b: too_tight)
    assert cli.main(["--out-dir", str(tmp_path), "bounds", "--pair", "dice-jaccard", "--dmax", "3"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_bounds_tversky_weights_past_the_float_range(tmp_path, capsys):
    # 2w overflows at 1e308 and 0.5/w at 1e-320: a closed form that is not
    # a float is one numeric-failure line, with no report written
    for pair in ("dice-tversky:1e308:1e308", "dice-tversky:1e-320:0.5"):
        out = tmp_path / pair.replace(":", "_")
        assert cli.main(["--out-dir", str(out), "bounds", "--pair", pair, "--dmax", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("segloss: numeric failure: ") and err.count("\n") == 1
        assert not out.exists()
    # no closed form here; the Tversky denominator overflows to inf and
    # gives the limit 0 without a warning line
    out = tmp_path / "tj"
    assert cli.main(["--out-dir", str(out), "bounds", "--pair", "tversky:1e308:1e308-jaccard", "--dmax", "3"]) == 0
    assert capsys.readouterr().err == ""
    rows = fileio.read_report_json(str(out / "bounds_tversky_1e308_1e308-jaccard.json")).rows
    assert [row[0] for row in rows] == [1, 2, 3]


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


def test_evaluate_non_finite_metric_value_is_numeric_failure(tmp_path, capsys, monkeypatch):
    # a counts kernel that gives NaN reaches the finiteness guard in MetricId.counts
    nan_kernel = replace(metrics.METRICS["fbeta"], counts=lambda tp, fp, fn, d, b: np.full(np.shape(tp), np.nan))
    monkeypatch.setitem(metrics.METRICS, "fbeta", nan_kernel)
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", "fbeta:2"]) == 3
    assert capsys.readouterr().err.splitlines() == ["segloss: numeric failure: fbeta:2 gave a non-finite value"]
    # the out dir is made before any metric is computed, and stays empty
    assert os.listdir(out) == []


@pytest.mark.parametrize("argv, report, rows", [
    # tp = 0, fn = 6: F-beta tends to the recall, 0
    (["evaluate", "{gt}", "{pred}", "--metrics", "fbeta:1e200"], "evaluate.json",
     [["fbeta:1e+200", 0.0, True]]),
    # the sup of |dice - recall| over d = 1..3, at (tp, fp, fn) = (0, 1, 0), (1, 1, 0), (1, 2, 0)
    (["bounds", "--pair", "dice-fbeta:1e200", "--dmax", "3"], "bounds_dice-fbeta_1e200.json",
     [[1, 0.0, 0.0], [2, 1 - 2 / 3, 0.5], [3, 0.5, 1.0]]),
], ids=["evaluate", "bounds"])
def test_fbeta_past_the_float_range_reports_its_limit(tmp_path, capsys, argv, report, rows):
    # b*b overflows to inf, so the plain F-beta ratio would be inf/inf or inf*0
    gt, pred = write_eval_inputs(tmp_path, "empty_pred")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), *(a.format(gt=gt, pred=pred) for a in argv)]) == 0
    assert capsys.readouterr().err == ""
    got = fileio.read_report_json(str(out / report)).rows
    if report.startswith("bounds"):
        got = [[r[0], r[5], r[6]] for r in got]  # d, empirical_abs, empirical_rel
    assert got == rows


def test_evaluate_tversky_weights_past_the_float_range_give_the_limit_0(tmp_path, capsys):
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", "tversky:1e308:1e308"]) == 0
    assert capsys.readouterr().err == ""
    assert fileio.read_report_json(str(out / "evaluate.json")).rows == [["tversky:1e+308:1e+308", 0.0, True]]


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


def _no_scan(*args, **kwargs):
    raise AssertionError("a metric was computed")


@pytest.mark.parametrize("argv", [["bounds", "--pair", "dice-jaccard", "--dmax", "200"],
                                  ["bounds", "--fig1-grid"],
                                  ["evaluate", "{gt}", "{pred}", "--metrics", "dice,hausdorff"]],
                         ids=["bounds-pair", "bounds-fig1-grid", "evaluate"])
@pytest.mark.parametrize("out_dir", ["{file}", "{file}/sub"], ids=["out-dir-is-file", "out-dir-under-file"])
def test_unusable_out_dir_stops_bounds_and_evaluate_before_any_work(tmp_path, capsys, monkeypatch, argv, out_dir):
    for fn in ("brute_force_sup", "tversky_dice_bounds"):
        monkeypatch.setattr(bounds, fn, _no_scan)
    monkeypatch.setattr(cli, "evaluate", _no_scan)
    gt, pred = write_eval_inputs(tmp_path, "pair")
    (tmp_path / "file").write_bytes(b"")
    before = sorted(tmp_path.rglob("*"))
    argv = [a.format(gt=gt, pred=pred) for a in argv]
    assert cli.main(["--out-dir", out_dir.format(file=tmp_path / "file"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("segloss: data error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


TINY_TRAIN = ("n_images = 12\nnx = 32\nny = 32\nradius_min = 3\nradius_max = 6\nfg_prior = 0.08\n"
              "folds = 2\nmax_epochs = 6\npretrain_epochs_ce = 2\nn_resamples = 1000\n"
              "losses = ce, soft_dice\nfgbg_ratios = 0.3\n")


def _tree(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _assert_same_tree(directory, golden):
    """The same file names, then the same bytes; a failure names the files."""
    got, want = _tree(directory), _tree(golden)
    assert list(got) == list(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"bytes differ in {', '.join(changed)}"


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
    _assert_same_tree(out, pathlib.Path(GOLDEN) / GOLDEN_TREE[config])


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SHOW_THREADS = ("import os, segloss.cli\n"
                "task = '/proc/self/task'\n"
                "print(len(os.listdir(task)) if os.path.isdir(task) else 1, os.environ.get('OMP_NUM_THREADS'))\n")


def _fresh_python(args, cwd=None, *, quiet=False, **env):
    """Run a new interpreter with src on PYTHONPATH and no BLAS thread
    variable set; with quiet, it must write nothing to stderr."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env={**base, **env}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert not (quiet and proc.stderr), proc.stderr
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
    _assert_same_tree(tmp_path / "out", pathlib.Path(GOLDEN) / "train")


# modules no command needs: np.quantile imports numpy.ma through np.unique,
# about 0.65 MB of a train command's peak memory; fractions (with decimal)
# is only for the Hamming blow-up witness, 0.43 MB of every command; and
# _hashlib, which numpy.random reaches through secrets and hmac, maps
# OpenSSL's libcrypto, 3.3 MB of a train command's peak memory.  The cli
# blocks _hashlib with a None entry in sys.modules, so an entry counts as
# loaded only when it is not None.
UNNEEDED_MODULES = ("numpy.ma", "decimal", "fractions", "_hashlib")


def _run_leaving_unneeded_modules_unloaded(argv, cwd, modules=UNNEEDED_MODULES):
    _fresh_python(["-c", "import sys; from segloss import cli; "
                         f"assert cli.main({argv!r}) == 0; "
                         f"loaded = [m for m in {modules!r} if sys.modules.get(m) is not None]; "
                         "assert not loaded, loaded"], cwd=cwd)


def test_train_leaves_numpy_ma_unloaded(tmp_path):
    # the size strata get their edges without np.quantile
    (tmp_path / "train.cfg").write_text(TINY_TRAIN)
    _run_leaving_unneeded_modules_unloaded(["--out-dir", "out", "train", "train.cfg"], tmp_path)
    assert (tmp_path / "out" / "strata.json").exists()


def test_evaluate_leaves_unneeded_modules_unloaded(tmp_path):
    gt, pred = write_eval_inputs(str(tmp_path), "pair")
    _run_leaving_unneeded_modules_unloaded(["--out-dir", "out", "evaluate", gt, pred,
                                            "--metrics", "dice,whamming,hausdorff,avd"], tmp_path)
    assert (tmp_path / "out" / "evaluate.json").exists()


@pytest.mark.parametrize("argv", [["bounds", "--pair", "dice-jaccard", "--dmax", "3"],
                                  ["evaluate", "{gt}", "{pred}", "--metrics", EVAL_TOKENS],
                                  ["report", "{report}"]],
                         ids=["bounds", "evaluate", "report"])
def test_commands_without_training_leave_numpy_random_unloaded(tmp_path, argv):
    # importing numpy.random, and the secrets module it imports, would add
    # to the start-up time of these commands; it is also why the cli's
    # _hashlib block changes nothing for them
    gt, pred = write_eval_inputs(str(tmp_path), "pair")
    report = os.path.join(GOLDEN, "train", "summary.json")
    argv = [a.format(gt=gt, pred=pred, report=report) for a in argv]
    _run_leaving_unneeded_modules_unloaded(["--out-dir", "out", *argv], tmp_path, ("numpy.random", "secrets"))


# sha256(b"abc") and HMAC-SHA256 of b"m" under key b"k"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
HMAC_K_M = "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec"


def test_train_process_maps_no_openssl(tmp_path):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps on this platform")
    (tmp_path / "train.cfg").write_text(TINY_TRAIN)
    # hashlib and hmac load after the run, as a caller of the cli would
    # load them, and still give their known digests
    out = _fresh_python(["-c", "from segloss import cli; "
                               "assert cli.main(['--out-dir', 'out', 'train', 'train.cfg']) == 0; "
                               "maps = open('/proc/self/maps').read().splitlines(); "
                               "print([m for m in maps if 'libcrypto' in m]); "
                               "import hashlib, hmac; "
                               "print(hashlib.sha256(b'abc').hexdigest()); "
                               "print(hmac.new(b'k', b'm', 'sha256').hexdigest())"],
                        cwd=tmp_path, quiet=True)
    assert out.splitlines() == ["[]", SHA256_ABC, HMAC_K_M]


def test_cli_keeps_an_already_loaded_hashlib_module():
    out = _fresh_python(["-c", "import _hashlib, sys, segloss.cli; print(sys.modules['_hashlib'] is _hashlib)"])
    assert out.split() == ["True"]


def test_train_extreme_tversky_weights_exit_3_with_one_error_line(tmp_path, capsys):
    # the weights overflow the Tversky denominator, whose alpha P + beta Y
    # and (1 - alpha - beta) I terms reach inf and -inf: the loss is NaN
    # before the first step, and numpy's floating-point warnings stay silent
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", "losses = ce, tversky:1e308:1e308"))
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["segloss: numeric failure: initial validation loss is nan"]


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


def _no_training(*args, **kwargs):
    raise AssertionError("a job was trained")


@pytest.mark.parametrize("losses", ["ce, ce", "soft_dice, soft_dice_l1"])
def test_train_duplicate_arm_labels_are_usage_error_before_training(tmp_path, capsys, monkeypatch, losses):
    monkeypatch.setattr(toytrain, "train", _no_training)
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
    ("train", ("n_resamples = 1000", "n_resamples = 1000\ndata_seed = -1"), 1,
     "usage error: data_seed must be >= 0"),
    ("train", ("fg_prior = 0.08", "fg_prior = 1.5"), 1, "usage error: fg_prior must lie in (0, 1)"),
    ("train", ("nx = 32", "nx = 3"), 1, "usage error: nx and ny must be >= 4"),
    ("sweep", ("radius_max = 6", "radius_max = 15"), 3,
     "numeric failure: 2 * radius_max + 4 must be <= nx and ny"),
])
def test_experiment_config_errors_stop_before_training(tmp_path, capsys, monkeypatch,
                                                       command, edit, code, message):
    monkeypatch.setattr(toytrain, "train", _no_training)
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text({"train": TINY_TRAIN, "sweep": TINY_SWEEP}[command].replace(*edit))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["--out-dir", str(out), command, str(cfg)]) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err.startswith(f"segloss: {message}")
    assert not out.exists()


@pytest.mark.parametrize("rmin", ["1e-160", "1e-300", "5e-324"])
def test_train_runs_with_a_radius_min_whose_blob_area_underflows(tmp_path, capsys, rmin):
    # pi * radius_min^2 is subnormal or 0: the blob count once took
    # floor(inf) or divided by 0 and ended in a traceback
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("radius_min = 3", f"radius_min = {rmin}")
                   .replace("max_epochs = 6", "max_epochs = 2"))
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg)]) == 0
    assert all(line.startswith("segloss: warning: ") for line in capsys.readouterr().err.splitlines())


def test_train_infeasible_tiny_fgbg_ratio_exits_3_with_one_short_error_line(tmp_path, capsys, monkeypatch):
    # the relative deviation is about 1e299: printed with three significant digits
    monkeypatch.setattr(toytrain, "train", _no_training)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("fgbg_ratios = 0.3", "fgbg_ratios = 1e-300"))
    assert cli.main(["--out-dir", str(tmp_path / "out"), "train", str(cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200, err
    assert err[0].startswith("segloss: numeric failure: best rectangle gives mean fg fraction"), err


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("out_dir", ["{file}", "{file}/sub"], ids=["out-dir-is-file", "out-dir-under-file"])
def test_unusable_out_dir_stops_the_experiment_before_training(tmp_path, capsys, monkeypatch, command, out_dir):
    monkeypatch.setattr(toytrain, "train", _no_training)
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text({"train": TINY_TRAIN, "sweep": TINY_SWEEP}[command])
    (tmp_path / "file").write_bytes(b"")
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(["--out-dir", out_dir.format(file=tmp_path / "file"), command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("segloss: data error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_bytes() == b""


@pytest.mark.parametrize("ratios, scans, summaries", [
    ("fgbg_ratios = 0.3, 0.5", [[0.3, 0.5]], ["fgbg_0p3_summary.json", "fgbg_0p5_summary.json"]),
    ("", [], []),
])
def test_train_scans_the_rectangle_widths_once_for_all_fgbg_ratios(tmp_path, monkeypatch, ratios, scans,
                                                                   summaries):
    calls = []

    def counted(data, ratios):
        calls.append(list(ratios))
        return toytrain.build_fgbg_masks(data, ratios)

    monkeypatch.setattr(cli, "build_fgbg_masks", counted)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("fgbg_ratios = 0.3", ratios).replace("max_epochs = 6", "max_epochs = 2"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    assert calls == scans
    assert sorted(n for n in os.listdir(out) if n.startswith("fgbg_") and n.endswith("_summary.json")) == summaries


@pytest.mark.parametrize("losses, twins", [
    ("soft_dice, tversky:0.5:0.5", ("soft_dice_l1", "tversky_0p5_0p5")),
    ("soft_jaccard, tversky:1:1", ("soft_jaccard", "tversky_1_1")),
])
def test_one_loss_in_two_arm_positions_scores_the_same(tmp_path, losses, twins):
    # tversky:0.5:0.5 runs the L1 soft Dice kernel and tversky:1:1 soft
    # Jaccard's, so each pair is one loss trained in arm positions 0 and 1
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", f"losses = {losses}"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    first, second = (fileio.read_report_json(str(out / f"scores_{arm}.json")) for arm in twins)
    assert first.columns == second.columns
    for c, column in enumerate(first.columns):
        assert [row[c] for row in first.rows] == [row[c] for row in second.rows], column


def test_an_arm_scores_the_same_whatever_the_other_arms(tmp_path):
    # the arms of a fold share its seed and its CE warm-up, so soft Dice
    # beside Lovasz writes the bytes it writes beside CE in the golden tree
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", "losses = lovasz, soft_dice"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 0
    names = [f"{prefix}scores_soft_dice_l1.{ext}" for prefix in ("", "fgbg_0p3_") for ext in ("csv", "json")]
    for name in names:
        assert (out / name).read_bytes() == (pathlib.Path(GOLDEN) / "train" / name).read_bytes(), name


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
        0, SyntheticConfig(data_seed=derive_seed(0, 17)), TrainConfig(loss=LossSpec("ce")), 5,
        DEFAULT_RESAMPLES)


def test_experiment_setup_leaves_each_unset_key_at_its_field_default():
    seed, synth, base, folds, n_resamples = cli._experiment_setup(
        {"nx": 40, "radius_max": 8.0, "data_seed": 4, "max_epochs": 3, "folds": 3}, 2)
    assert (seed, folds, n_resamples) == (2, 3, DEFAULT_RESAMPLES)
    assert synth == SyntheticConfig(nx=40, ny=64, radius_min=3.0, radius_max=8.0, data_seed=4)
    assert base == TrainConfig(loss=LossSpec("ce"), max_epochs=3)


COMMON_KEYS = {"n_images": int, "nx": int, "ny": int, "radius_min": float, "radius_max": float,
               "fg_prior": float, "noise_sigma": float, "data_seed": int, "gain_jitter": float,
               "learning_rate": float, "max_epochs": int, "batch_size": int, "pretrain_epochs_ce": int,
               "early_stop_patience": int, "folds": int, "seed": int, "n_resamples": int}


def test_config_schemas_are_the_pinned_key_to_type_tables():
    assert cli.TRAIN_SCHEMA == {**COMMON_KEYS, "losses": fileio.cfg_str_list,
                                "fgbg_ratios": fileio.cfg_float_list}
    assert cli.SWEEP_SCHEMA == {**COMMON_KEYS, "alphas": fileio.cfg_float_list,
                                "equal_alphas": fileio.cfg_float_list}


def test_config_fields_share_no_name_with_each_other_or_the_command_keys():
    # a new field with a taken name would merge two settings into one key
    synth = [f.name for f in dataclasses.fields(SyntheticConfig)]
    train = [f.name for f in dataclasses.fields(TrainConfig) if f.name not in ("loss", "seed")]
    names = [*synth, *train, "folds", "seed", "n_resamples", "losses", "fgbg_ratios", "alphas",
             "equal_alphas"]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("command, schema", [("train", cli.TRAIN_SCHEMA), ("sweep", cli.SWEEP_SCHEMA)])
def test_experiment_help_lists_every_config_key(capsys, command, schema):
    with pytest.raises(SystemExit) as stop:
        cli.main([command, "--help"])
    assert stop.value.code == 0
    listed = " ".join(capsys.readouterr().out.split()).split("with the keys ", 1)[1]
    assert listed.split(";")[0].split(" options:")[0].split(", ") == list(schema)

@pytest.mark.parametrize("loss", ["tversky:nan:1", "tversky:inf:1"])
def test_train_non_finite_loss_weight_is_usage_error(tmp_path, capsys, loss):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN.replace("losses = ce, soft_dice", f"losses = ce, {loss}"))
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "train", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blob, message", [
    (b"P5\n0 5\n255\n", "bad raster size 0x5"),
    (b"P5\n2 2\n255", "missing whitespace after maxval"),
    (b"MSK1 2 2 1 u8", "missing header line"),
    (b"MSK1 a 2 1 u8\n" + bytes(4), "bad dims in header b'MSK1 a 2 1 u8'"),
], ids=["pgm-zero-width", "pgm-ends-at-maxval", "msk-no-newline", "msk-dims-not-integers"])
def test_evaluate_malformed_mask_header_is_one_data_error_line(tmp_path, capsys, blob, message):
    gt, _ = write_eval_inputs(tmp_path, "pair")
    bad = tmp_path / "bad.msk"
    bad.write_bytes(blob)
    out = tmp_path / "out"
    assert cli.main(["--out-dir", str(out), "evaluate", gt, str(bad)]) == 2
    assert capsys.readouterr().err == f"segloss: data error: {message}\n"
    assert not out.exists()


def test_evaluate_onto_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    # the report's rename fails; _atomic_write removes its temporary file
    gt, pred = write_eval_inputs(tmp_path, "pair")
    out = tmp_path / "out"
    (out / "evaluate.csv").mkdir(parents=True)
    assert cli.main(["--out-dir", str(out), "evaluate", gt, pred, "--metrics", "dice"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("segloss: data error: ") and err.count("\n") == 1
    assert os.listdir(out) == ["evaluate.csv"] and not os.listdir(out / "evaluate.csv")


def test_zero_threads_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(toytrain, "train", _no_training)
    cfg = tmp_path / "train.cfg"
    cfg.write_text(TINY_TRAIN)
    out = tmp_path / "out"
    assert cli.main(["--threads", "0", "--out-dir", str(out), "train", str(cfg)]) == 1
    assert capsys.readouterr().err == "segloss: usage error: --threads must be >= 1\n"
    assert not out.exists()
