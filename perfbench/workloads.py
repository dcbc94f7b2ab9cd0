"""The benchmark's two workloads.

Each workload turns the run seed into input files, names the segloss
command lines that make up one operation ("op"), and checks an op's report
files with the oracles.  The seed reaches the program only through those
inputs and the CLI's own --seed flag.  Why each workload exists, and which
layer it stresses, is in README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from oracles import (
    CheckFailed,
    check_bounds_report,
    check_evaluate_report,
    check_experiment_reports,
    evaluate_oracle,
    experiment_reports,
    tree_digest,
)

THREADS = "2"  # the host this benchmark was written for has two cores

BOUNDS_PAIRS = ("dice-jaccard", "dice-tversky:0.3:0.7", "dice-whamming:0.5")
EVAL_METRICS = "dice,jaccard,hamming,whamming:0.5,tversky:0.3:0.7,fbeta:2,accuracy,avd,hausdorff"
TRAIN_ARMS = ("ce", "soft_dice_l1")


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TINY is for smoke tests."""

    train_cfg: str
    train_images: int
    train_folds: int
    dmax: int
    volume: tuple[int, int, int]  # (nz, ny, nx)


FULL = Scale(
    train_cfg="n_images = 60\nmax_epochs = 40\nearly_stop_patience = 40\nlosses = ce, soft_dice\n",
    train_images=60, train_folds=5,
    dmax=12,
    volume=(8, 64, 64),
)

TINY = Scale(
    train_cfg="n_images = 10\nfolds = 2\nmax_epochs = 3\npretrain_epochs_ce = 1\n"
              "n_resamples = 1000\nlosses = ce, soft_dice\n",
    train_images=10, train_folds=2,
    dmax=5,
    volume=(4, 16, 16),
)


@dataclass
class Inputs:
    """Generated inputs of one run: the directory holding them and what
    the oracles need besides the reports."""

    directory: str
    expected: dict = field(default_factory=dict)


class Workload:
    name = ""
    probe = False  # whether the layer probe applies (toytrain workloads)

    def __init__(self, scale: Scale):
        self.scale = scale

    def make_inputs(self, directory: str, seed: int) -> Inputs:
        raise NotImplementedError

    def commands(self, inputs: Inputs, seed: int, out_dir: str) -> list[list[str]]:
        """segloss argument lists, run one after another, that form one op."""
        raise NotImplementedError

    def reports(self) -> list[str]:
        """Stems of the report files the oracles check and the digest covers."""
        raise NotImplementedError

    def check(self, inputs: Inputs, out_dir: str) -> str:
        """Check an op's reports; returns the report-tree digest."""
        raise NotImplementedError


class Train(Workload):
    name = "train"
    probe = True

    def make_inputs(self, directory, seed):
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "train.cfg"), "w", encoding="utf-8") as fh:
            fh.write(self.scale.train_cfg)
        return Inputs(directory)

    def commands(self, inputs, seed, out_dir):
        cfg = os.path.join(inputs.directory, "train.cfg")
        return [["--threads", THREADS, "--seed", str(seed), "--out-dir", out_dir, "train", cfg]]

    def reports(self):
        return experiment_reports(TRAIN_ARMS, "summary")

    def check(self, inputs, out_dir):
        s = self.scale
        check_experiment_reports(out_dir, TRAIN_ARMS, s.train_images, s.train_folds, "summary")
        return tree_digest(out_dir, self.reports())


def _smooth(field: np.ndarray) -> np.ndarray:
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(field, sigma=2.5, mode="wrap")


class BoundsEvaluate(Workload):
    """`bounds` for three metric pairs, then `evaluate` on a mask pair.

    The two commands share one op because, on its own, `evaluate` spread
    too widely from run to run on the host this was written on: its
    pairwise Hausdorff allocates and streams 48 MB blocks, and slowed by up
    to 2x as other tenants' load changed.  The exhaustive bound scan works
    in cache and is steady; it takes about 60% of the op and Hausdorff
    about 30%."""

    name = "bounds_evaluate"

    def make_inputs(self, directory, seed):
        """A u8 ground truth with 25% foreground (a thresholded smooth random
        field) and a u16 probability map of a noisy copy of that field whose
        0.5 level cuts 26% of the voxels.  Pairwise Hausdorff costs the
        product of the two foreground counts, so fixing both keeps the work
        of an op the same for every seed.  The bounds commands read no input
        and their output does not depend on the seed."""
        os.makedirs(directory, exist_ok=True)
        rng = np.random.default_rng(seed)
        shape = self.scale.volume
        base = _smooth(rng.standard_normal(shape))
        gt = base > np.quantile(base, 0.75)
        noise = _smooth(rng.standard_normal(shape))
        noisy = base + 0.5 * base.std() / noise.std() * noise
        level = np.quantile(noisy, 0.74)
        prob = 1.0 / (1.0 + np.exp(-(noisy - level) / base.std()))
        raw = np.round(prob * 65535).astype("<u2")
        nz, ny, nx = shape
        with open(os.path.join(directory, "gt.msk"), "wb") as fh:
            fh.write(f"MSK1 {nx} {ny} {nz} u8\n".encode() + (gt.astype(np.uint8) * 255).tobytes())
        with open(os.path.join(directory, "pred.msk"), "wb") as fh:
            fh.write(f"MSK1 {nx} {ny} {nz} u16\n".encode() + raw.tobytes())
        # v / 65535 > 0.5 exactly when v >= 32768: the oracle thresholds the
        # integers and never touches the program's float path
        return Inputs(directory, evaluate_oracle(gt, raw >= 32768))

    def commands(self, inputs, seed, out_dir):
        d = inputs.directory
        bounds = [["--threads", THREADS, "--out-dir", out_dir, "bounds", "--pair", pair,
                   "--dmax", str(self.scale.dmax)] for pair in BOUNDS_PAIRS]
        evaluate = ["--out-dir", out_dir, "evaluate", os.path.join(d, "gt.msk"), os.path.join(d, "pred.msk"),
                    "--metrics", EVAL_METRICS]
        return bounds + [evaluate]

    def _bounds_reports(self):
        return [f"bounds_{pair.replace(':', '_')}" for pair in BOUNDS_PAIRS]

    def reports(self):
        return self._bounds_reports() + ["evaluate"]

    def check(self, inputs, out_dir):
        for pair, base in zip(BOUNDS_PAIRS, self._bounds_reports()):
            metric_a, _, metric_b = pair.partition("-")
            check_bounds_report(out_dir, base, metric_a, metric_b, self.scale.dmax)
        check_evaluate_report(out_dir, inputs.expected)
        return tree_digest(out_dir, self.reports())


WORKLOADS = {w.name: w for w in (Train, BoundsEvaluate)}
