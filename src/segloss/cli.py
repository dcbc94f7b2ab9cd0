"""The segloss command line: evaluate masks, verify approximation bounds,
and run the synthetic training experiments from a config file.

Exit codes: 0 ok, 1 usage/config error, 2 data error (an OS error on a
path included), 3 numeric failure.  A warning prints as one
`segloss: warning: <message>` line on stderr.  `bounds` and `evaluate`
make the out dir after their argument checks (and evaluate after reading
its masks), so an out dir that cannot be made stops them before any scan
or metric runs.
Every run with identical arguments, config and seed produces byte-identical
report files.  Experiments run their (fold, arm) jobs one after another in
one process; --threads is still accepted and checked, but changes nothing.

`train` compares the loss arms its config lists under `losses`, one token
per arm (`segloss train --help` lists the forms); arms must have distinct
labels.  The arms of a fold share one seed and one CE warm-up, so an arm's
score files depend neither on its place in `losses` nor on the other arms.
Each entry of `fgbg_ratios` reruns the same arms with the loss
and the scores restricted to a per-image rectangle around the objects,
sized so the mean foreground fraction inside it is that ratio; its
reports carry a prefix such as fgbg_0p3_, so a repeated ratio is a usage
error; one scan of the rectangle widths serves every ratio.  Every config
error, including a ratio no rectangle can reach, and an out dir that cannot
be made stop the command before the first job trains; a job that fails
later leaves the out dir with the reports of the runs before it.  `sweep`
is a `train` run with generated Tversky arms: one tversky:a:(1-a) per
entry of `alphas`, then one tversky:v:v per entry of `equal_alphas`, with
the summary written as sweep_summary.  A weighted-CE gamma sweep needs no
command of its own: it is a `train` config such as
`losses = wce:0.1, wce:0.3, wce:0.5, wce:0.7, wce:0.9, ce, soft_dice`,
which tests whether any wCE weighting matches soft Dice on Dice.

Importing this module makes two process-level choices, each unless the
process made it first.  It runs BLAS on one thread: it sets
OMP_NUM_THREADS=1 before numpy loads, unless OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS or MKL_NUM_THREADS is already set.  The largest BLAS
call in segloss is a 5 x d matrix-vector product, so a second BLAS thread
only spins.  And it keeps OpenSSL out: it blocks the _hashlib module,
unless it is already loaded, so hashlib and hmac use CPython's built-in
hashes (md5, sha1, sha2, sha3, blake2), and OpenSSL-only names such as
hashlib.scrypt are missing in a CLI process.  Code that imports the other
modules directly keeps numpy's default threading and OpenSSL.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

if not any(v in os.environ for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")):
    os.environ["OMP_NUM_THREADS"] = "1"
# numpy.random imports secrets, and through it hmac and hashlib, only to
# draw seed entropy, which no segloss call does (every generator gets a
# seed); without _hashlib they fall back to CPython's built-in hashes and
# OpenSSL's libcrypto, 3.3 MB of a train process's memory, is never mapped
sys.modules.setdefault("_hashlib", None)

# the first import that loads numpy, so it must follow the pin
from . import bounds as bounds_mod
from . import fileio
from .errors import DataError, DTooLarge, NumericError, OutOfRange, SeglossError, UsageError
from .losses import LOSS_GRAMMAR, LossSpec, parse_loss_spec
from .masks import BinaryMask, ProbMap, threshold
from .metrics import COUNTS_METRIC_GRAMMAR, METRIC_GRAMMAR, evaluate, parse_metric_ids, token_label
from .stats import DEFAULT_RESAMPLES, ScoreVector, check_ranking, rank_methods
from .toytrain import (
    SCORE_COLUMNS,
    SyntheticConfig,
    TrainConfig,
    build_fgbg_masks,
    check_comparison,
    derive_seed,
    generate_dataset,
    run_loss_comparison,
    stratify_by_size,
)

DEFAULT_METRICS = "dice,jaccard"
FIG1_GRID = [round(0.1 + 0.05 * k, 10) for k in range(59)]  # 0.1 .. 3.0
SWEEP_ALPHAS = tuple(round(0.1 * k, 10) for k in range(1, 10))
SWEEP_EQUAL_ARMS = (0.75, 1.0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage -> 1
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="segloss", description=__doc__)
    p.add_argument("--seed", type=int, default=None,
                   help="override the experiment seed from the config")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility (must be >= 1) and ignored: "
                        "experiments run sequentially")
    p.add_argument("--out-dir", default=".", help="directory for report files")
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="discrete metrics for a mask pair")
    ev.add_argument("gt", help="ground-truth mask file (binary)")
    ev.add_argument("pred", help="prediction file (binary or probability)")
    ev.add_argument("--threshold", type=float, default=0.5,
                    help="binarization threshold for probability predictions")
    ev.add_argument("--metrics", default=DEFAULT_METRICS,
                    help=f"comma list of: {METRIC_GRAMMAR}")

    bo = sub.add_parser("bounds", help="closed-form and brute-force bounds")
    what = bo.add_mutually_exclusive_group(required=True)
    what.add_argument("--pair", default=None,
                      help=f"two metrics joined by '-', e.g. dice-tversky:0.3:0.7; each "
                           f"one of: {COUNTS_METRIC_GRAMMAR}")
    bo.add_argument("--dmax", type=int, default=None,
                    help="with --pair: verify empirical suprema for d = 1..dmax (<= 200, default 5)")
    what.add_argument("--fig1-grid", action="store_true",
                      help="emit closed-form error curves for equal Tversky "
                           "weights over [0.1, 3.0] step 0.05 (instead of --pair)")

    tr = sub.add_parser("train", help="loss-comparison experiment from a config")
    tr.add_argument("config", help=f"flat key = value config file; its losses key is a "
                                   f"comma list of: {LOSS_GRAMMAR}")

    sw = sub.add_parser("sweep", help="Tversky weight sweep: a train run with generated arms")
    sw.add_argument("config", help="flat key = value config file")

    rp = sub.add_parser("report", help="pretty-print a JSON report")
    rp.add_argument("path", help="a .json report produced by another command")
    return p


def cmd_evaluate(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise OutOfRange(f"--threshold must lie in [0, 1], got {args.threshold}")
    tokens = args.metrics.split(",")
    parse_metric_ids(tokens)  # a bad token stops the command before any file is read
    gt = fileio.read_mask(args.gt)
    if not isinstance(gt, BinaryMask):
        raise DataError(f"{args.gt}: ground truth must be a binary mask")
    pred = fileio.read_mask(args.pred)
    if isinstance(pred, ProbMap):
        pred = threshold(pred, args.threshold)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = [[mv.name, mv.value if mv.defined else None, mv.defined]
            for mv in evaluate(tokens, gt, pred)]
    table = fileio.ReportTable("evaluate", ["metric", "value", "defined"], rows)
    fileio.write_report(table, args.out_dir, "evaluate")
    return 0


def _bits_string(mask: BinaryMask) -> str:
    return "".join(str(int(v)) for v in mask.data)


def cmd_bounds(args) -> int:
    if args.fig1_grid:
        if args.dmax is not None:
            raise UsageError("--dmax applies to --pair only")
        os.makedirs(args.out_dir, exist_ok=True)
        rows = []
        for alpha in FIG1_GRID:
            a_err, r_err = bounds_mod.tversky_dice_bounds(alpha, alpha)
            rows.append([alpha, a_err, r_err])
        table = fileio.ReportTable("fig1_grid", ["alpha", "abs_error", "rel_error"], rows)
        fileio.write_report(table, args.out_dir, "fig1_grid")
        return 0
    # every metric head starts with a letter, so a '-' before a digit
    # belongs to a number such as 1e-3
    names = re.split(r"-(?=[A-Za-z])", args.pair, maxsplit=1)
    if len(names) != 2 or not all(names):
        raise UsageError(f"--pair must look like dice-jaccard, got {args.pair!r}")
    name_a, name_b = names
    dmax = 5 if args.dmax is None else args.dmax
    if dmax < 1:
        raise OutOfRange(f"--dmax {dmax} is below 1")
    if dmax > bounds_mod.MAX_BRUTE_FORCE_D:
        raise DTooLarge(f"--dmax {dmax} exceeds the limit {bounds_mod.MAX_BRUTE_FORCE_D}")
    mids = bounds_mod.parse_pair(name_a, name_b)
    os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    for d in range(1, dmax + 1):
        rep = bounds_mod.brute_force_sup(*mids, d)
        w = rep.witness
        rows.append([
            d, rep.metric_a, rep.metric_b,
            rep.closed_form_abs, rep.closed_form_rel,
            rep.empirical_abs, rep.empirical_rel,
            w.tp, w.fp, w.fn, w.n_true, w.n_pred, _bits_string(w.y), _bits_string(w.yhat),
        ])
    table = fileio.ReportTable(
        "bounds",
        ["d", "metric_a", "metric_b", "closed_abs", "closed_rel",
         "empirical_abs", "empirical_rel", "witness_tp", "witness_fp",
         "witness_fn", "witness_n_true", "witness_n_pred", "witness_y",
         "witness_yhat"],
        rows,
    )
    safe = args.pair.replace(":", "_")
    fileio.write_report(table, args.out_dir, f"bounds_{safe}")
    return 0


_COMMON_SCHEMA = {
    "n_images": int,
    "nx": int,
    "ny": int,
    "radius_min": float,
    "radius_max": float,
    "fg_prior": float,
    "noise_sigma": float,
    "gain_jitter": float,
    "data_seed": int,
    "learning_rate": float,
    "max_epochs": int,
    "batch_size": int,
    "pretrain_epochs_ce": int,
    "early_stop_patience": int,
    "folds": int,
    "seed": int,
    "n_resamples": int,
}

TRAIN_SCHEMA = dict(_COMMON_SCHEMA, losses=fileio.cfg_str_list, fgbg_ratios=fileio.cfg_float_list)
SWEEP_SCHEMA = dict(_COMMON_SCHEMA, alphas=fileio.cfg_float_list, equal_alphas=fileio.cfg_float_list)


# config key -> config field; a field whose keys the config leaves out
# keeps its dataclass default
_SYNTH_FIELDS = {"n_images": "n_images", "fg_prior": "fg_prior_target",
                 "noise_sigma": "noise_sigma", "gain_jitter": "gain_jitter", "data_seed": "seed"}
_SYNTH_PAIRS = {("nx", "ny"): "dims", ("radius_min", "radius_max"): "object_radius_range"}
_TRAIN_FIELDS = ("learning_rate", "max_epochs", "batch_size", "pretrain_epochs_ce",
                 "early_stop_patience")


def _experiment_setup(cfg: dict, seed_override: int | None):
    seed = cfg.get("seed", 0) if seed_override is None else seed_override
    if seed < 0:
        raise OutOfRange("seed must be >= 0")
    synth = {field: cfg[key] for key, field in _SYNTH_FIELDS.items() if key in cfg}
    synth.setdefault("seed", derive_seed(seed, 17))
    for keys, field in _SYNTH_PAIRS.items():
        if any(key in cfg for key in keys):
            synth[field] = tuple(cfg.get(key, default)
                                 for key, default in zip(keys, getattr(SyntheticConfig, field)))
    base = TrainConfig(loss=LossSpec("ce"), **{key: cfg[key] for key in _TRAIN_FIELDS if key in cfg})
    return (seed, SyntheticConfig(**synth), base, cfg.get("folds", 5),
            cfg.get("n_resamples", DEFAULT_RESAMPLES))


def _arm_filename(name: str) -> str:
    return name.replace(":", "_").replace(".", "p")


def _write_scores(result, out_dir: str, prefix: str = "scores") -> None:
    cols = ["image", "fold", "fg_size", *SCORE_COLUMNS]
    for arm in result.arms:
        rows = [
            [i, int(result.folds[i]), int(result.fg_sizes[i]),
             *(float(arm.scores[c][i]) for c in SCORE_COLUMNS)]
            for i in range(result.folds.size)
        ]
        table = fileio.ReportTable(f"{prefix}_{arm.name}", cols, rows)
        fileio.write_report(table, out_dir, f"{prefix}_{_arm_filename(arm.name)}")


def _rank_and_write(result, out_dir: str, n_resamples: int, seed: int,
                    basename: str = "significance"):
    vectors = [ScoreVector(a.name, a.scores["dice"]) for a in result.arms]
    matrix = rank_methods(vectors, n_resamples, derive_seed(seed, 1001))
    rows = [
        [a, b, matrix.p_values[(a, b)]]
        for a in matrix.methods for b in matrix.methods if a != b
    ]
    fileio.write_report(
        fileio.ReportTable(basename, ["method_a", "method_b", "p_superior"], rows),
        out_dir, basename,
    )
    return matrix


def _write_summary(result, matrix, out_dir: str, basename: str) -> None:
    rows = [
        [arm.name, *(float(arm.scores[c].mean()) for c in SCORE_COLUMNS),
         arm.name in matrix.top_ranked, arm.name in matrix.inferior_to_all]
        for arm in result.arms
    ]
    cols = ["method", *("mean_" + c for c in SCORE_COLUMNS), "top_ranked", "inferior_to_all"]
    fileio.write_report(fileio.ReportTable(basename, cols, rows), out_dir, basename)


def _write_strata(result, out_dir: str) -> None:
    strata = stratify_by_size(result, 10)
    rows = []
    for b, (count, msize) in enumerate(zip(strata.bin_counts, strata.mean_size)):
        for name, means in strata.mean_dice.items():
            rows.append([b, count, msize, name, means[b]])
    fileio.write_report(
        fileio.ReportTable("strata", ["bin", "n_images", "mean_fg_size", "method", "mean_dice"], rows),
        out_dir, "strata",
    )


def cmd_train(args) -> int:
    return _run_train(args, fileio.load_config(args.config, TRAIN_SCHEMA), "summary")


def cmd_sweep(args) -> int:
    """A train run with one tversky:a:(1-a) arm per alpha, then one
    tversky:v:v arm per equal alpha."""
    cfg = fileio.load_config(args.config, SWEEP_SCHEMA)
    cfg["losses"] = ([f"tversky:{a!r}:{round(1.0 - a, 10)!r}" for a in cfg.pop("alphas", SWEEP_ALPHAS)]
                     + [f"tversky:{v!r}:{v!r}" for v in cfg.pop("equal_alphas", SWEEP_EQUAL_ARMS)])
    return _run_train(args, cfg, "sweep_summary")


def _run_train(args, cfg: dict, summary: str) -> int:
    seed, synth, base, folds, n_resamples = _experiment_setup(cfg, args.seed)
    data = generate_dataset(synth)
    fg_prior = data.mean_fg_prior()
    losses = [parse_loss_spec(tok, fg_prior) for tok in cfg.get("losses", ["ce", "soft_dice"])]
    # every check that can fail runs before the first job trains
    check_ranking(len(losses), n_resamples)
    check_comparison(losses, folds, len(data))
    fgbg = {}
    for ratio in cfg.get("fgbg_ratios", []):
        tag = _arm_filename(token_label("fgbg", (ratio,)))
        if tag in fgbg:
            raise OutOfRange(f"fgbg_ratios must have distinct report names, got {tag} twice")
        fgbg[tag] = ratio
    rects = build_fgbg_masks(data, list(fgbg.values())) if fgbg else []
    os.makedirs(args.out_dir, exist_ok=True)
    result = run_loss_comparison(data, losses, folds, seed, base)
    _write_scores(result, args.out_dir)
    matrix = _rank_and_write(result, args.out_dir, n_resamples, seed)
    _write_summary(result, matrix, args.out_dir, summary)
    _write_strata(result, args.out_dir)
    # each fg/bg ratio reruns the same loss arms with pixels outside a
    # per-image rectangle left out of both the loss and the scores
    for (tag, ratio), (masks, rect_w, rect_h, achieved) in zip(fgbg.items(), rects):
        ratio_seed = derive_seed(seed, round(ratio * 1000))
        result = run_loss_comparison(data, losses, folds, ratio_seed, base, output_masks=masks)
        _write_scores(result, args.out_dir, prefix=f"{tag}_scores")
        m = _rank_and_write(result, args.out_dir, n_resamples, ratio_seed, f"{tag}_significance")
        rows = [
            [ratio, rect_w, rect_h, achieved, a.name,
             float(a.scores["dice"].mean()), float(a.scores["jaccard"].mean()),
             a.name in m.top_ranked]
            for a in result.arms
        ]
        fileio.write_report(
            fileio.ReportTable(
                f"{tag}_summary",
                ["ratio", "rect_w", "rect_h", "achieved_fraction", "method",
                 "mean_dice", "mean_jaccard", "top_ranked"],
                rows,
            ),
            args.out_dir, f"{tag}_summary",
        )
    return 0


def cmd_report(args) -> int:
    table = fileio.read_report_json(args.path)
    widths = [len(c) for c in table.columns]
    formatted = []
    for row in table.rows:
        cells = [fileio.format_cell(v) for v in row]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        formatted.append(cells)
    print(f"# {table.name}")
    print("  ".join(c.ljust(w) for c, w in zip(table.columns, widths)))
    for cells in formatted:
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError("--threads must be >= 1")
        handler = {
            "evaluate": cmd_evaluate,
            "bounds": cmd_bounds,
            "train": cmd_train,
            "sweep": cmd_sweep,
            "report": cmd_report,
        }[args.command]
        with warnings.catch_warnings():  # a shown warning is one line, as the errors are
            warnings.showwarning = lambda message, *_: print(f"segloss: warning: {message}", file=sys.stderr)
            return handler(args)
    except UsageError as exc:
        print(f"segloss: usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, DataError) as exc:
        print(f"segloss: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, MemoryError) as exc:
        print(f"segloss: numeric failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except SeglossError as exc:
        print(f"segloss: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
