"""Output oracles for the benchmark's workloads.

Every check here reads the report files a segloss command wrote and
compares them with values the benchmark derives on its own: exact
rational arithmetic over confusion counts, numpy counts, and scipy's
Euclidean distance transform.  Nothing in this module imports segloss, so
a defect in the program's formulas cannot hide in its own oracle.

A failed check raises CheckFailed with a message naming the file and row.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

import numpy as np

# the program writes 17 significant digits, so a value that went through
# a different but equivalent float formula still agrees to this
TOL = 1e-12

SCORE_COLUMNS = ("dice", "jaccard", "f0.5", "f1", "f1.5", "f2")
SIGNIFICANCE_LEVEL = 0.05


class CheckFailed(Exception):
    """A command's report files disagree with the benchmark's oracle."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a, b, tol: float = TOL) -> bool:
    if a is None or b is None:
        return a is b
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- report files -----------------------------------------------------------

def _csv_cell_matches(text: str, value) -> bool:
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, str):
        return text == value
    try:
        parsed = float(text)
    except ValueError:
        return False
    if isinstance(value, int):
        return parsed == value and "." not in text
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


def read_report(out_dir: str, basename: str) -> tuple[list[str], list[list]]:
    """Load <basename>.json and check that <basename>.csv mirrors it cell
    for cell; returns (columns, rows) from the JSON."""
    json_path = os.path.join(out_dir, basename + ".json")
    csv_path = os.path.join(out_dir, basename + ".csv")
    for path in (json_path, csv_path):
        _require(os.path.isfile(path), f"missing report file {os.path.basename(path)}")
    try:
        with open(json_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        columns, rows = list(doc["columns"]), [list(r) for r in doc["rows"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{basename}.json: not a report document ({exc})") from exc
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) == len(rows) + 1, f"{basename}: CSV has {len(lines) - 1} rows, JSON {len(rows)}")
    _require(lines[0].split(",") == columns, f"{basename}: CSV header differs from JSON columns")
    for i, (line, row) in enumerate(zip(lines[1:], rows)):
        cells = line.split(",")
        _require(len(cells) == len(row) == len(columns), f"{basename} row {i}: wrong width")
        for col, text, value in zip(columns, cells, row):
            _require(_csv_cell_matches(text, value),
                     f"{basename} row {i} column {col}: CSV {text!r} != JSON {value!r}")
    return columns, rows


def _as_dicts(columns, rows) -> list[dict]:
    return [dict(zip(columns, row)) for row in rows]


def tree_digest(out_dir: str, basenames) -> str:
    """sha256 over the named reports' CSV and JSON bytes, in name order."""
    h = hashlib.sha256()
    for base in sorted(basenames):
        for ext in (".csv", ".json"):
            h.update((base + ext).encode())
            with open(os.path.join(out_dir, base + ext), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# --- bounds -----------------------------------------------------------------

def _similarity(metric: str, tp: int, fp: int, fn: int, d: int) -> Fraction:
    """Exact similarity from confusion counts; both-empty reads as 1 and a
    weighted-Hamming 0/0 term as 0, as the paper's conventions say."""
    kind, *params = metric.split(":")
    if kind == "dice":
        den = 2 * tp + fp + fn
        return Fraction(1) if den == 0 else Fraction(2 * tp, den)
    if kind == "jaccard":
        den = tp + fp + fn
        return Fraction(1) if den == 0 else Fraction(tp, den)
    if kind == "tversky":
        a, b = (Fraction(p) for p in params)
        if tp + fp + fn == 0:
            return Fraction(1)
        return Fraction(tp) / (tp + a * fp + b * fn)
    if kind == "whamming":
        g = Fraction(params[0])
        n_true = tp + fn
        fn_term = g * Fraction(fn, n_true) if n_true else Fraction(0)
        fp_term = (1 - g) * Fraction(fp, d - n_true) if d - n_true else Fraction(0)
        return 1 - fn_term - fp_term
    raise ValueError(f"no oracle for metric {metric!r}")


def closed_form(metric_a: str, metric_b: str) -> tuple[float, float]:
    """The paper's tight (abs, rel) bounds for the pairs the benchmark runs."""
    kind_b, *params = metric_b.split(":")
    if metric_a == "dice" and kind_b == "jaccard":
        return 3.0 - 2.0 * math.sqrt(2.0), 1.0
    if metric_a == "dice" and kind_b == "tversky":
        a, b = (float(p) for p in params)

        def one_sided(w):
            r = math.sqrt(2.0 * w)
            return abs((r - 1.0) / (r + 1.0))

        return max(one_sided(a), one_sided(b)), max(2 * a, 2 * b, 0.5 / a, 0.5 / b) - 1.0
    if metric_a == "dice" and kind_b == "whamming":
        return 1.0, math.inf
    raise ValueError(f"no closed form for {metric_a} vs {metric_b}")


def count_space_sup(metric_a: str, metric_b: str, d: int) -> tuple[Fraction, Fraction]:
    """Exact suprema of |A - B| and max(A/B, B/A) - 1 over every
    (tp, fp, fn) with tp + fp + fn <= d, skipping the both-empty triple and,
    for the ratio, triples where either similarity is 0."""
    best_abs = best_rel = Fraction(0)
    for tp in range(d + 1):
        for fp in range(d + 1 - tp):
            for fn in range(d + 1 - tp - fp):
                if tp + fp + fn == 0:
                    continue
                va = _similarity(metric_a, tp, fp, fn, d)
                vb = _similarity(metric_b, tp, fp, fn, d)
                best_abs = max(best_abs, abs(va - vb))
                if va > 0 and vb > 0:
                    best_rel = max(best_rel, max(va / vb, vb / va) - 1)
    return best_abs, best_rel


def check_bounds_report(out_dir: str, basename: str, metric_a: str, metric_b: str, dmax: int) -> None:
    columns, rows = read_report(out_dir, basename)
    rows = _as_dicts(columns, rows)
    _require([r["d"] for r in rows] == list(range(1, dmax + 1)), f"{basename}: rows are not d = 1..{dmax}")
    cf_abs, cf_rel = closed_form(metric_a, metric_b)
    for r in rows:
        d = r["d"]
        where = f"{basename} d={d}"
        _require((r["metric_a"], r["metric_b"]) == (metric_a, metric_b), f"{where}: wrong metric labels")
        _require(_close(r["closed_abs"], cf_abs) and _close(r["closed_rel"], cf_rel),
                 f"{where}: closed form {r['closed_abs']}, {r['closed_rel']} != {cf_abs}, {cf_rel}")
        sup_abs, sup_rel = count_space_sup(metric_a, metric_b, d)
        _require(_close(r["empirical_abs"], sup_abs),
                 f"{where}: empirical_abs {r['empirical_abs']!r} != oracle {float(sup_abs)!r}")
        _require(_close(r["empirical_rel"], sup_rel),
                 f"{where}: empirical_rel {r['empirical_rel']!r} != oracle {float(sup_rel)!r}")
        _require(r["empirical_abs"] <= cf_abs + TOL and r["empirical_rel"] <= cf_rel + TOL,
                 f"{where}: empirical value exceeds its closed form")
        y, yhat = r["witness_y"], r["witness_yhat"]
        _require(isinstance(y, str) and isinstance(yhat, str) and len(y) == len(yhat) == d,
                 f"{where}: witness bit strings missing or of wrong length")
        yb = [c == "1" for c in y]
        hb = [c == "1" for c in yhat]
        tp = sum(a and b for a, b in zip(yb, hb))
        fp = sum(b and not a for a, b in zip(yb, hb))
        fn = sum(a and not b for a, b in zip(yb, hb))
        _require((tp, fp, fn, tp + fn, tp + fp) == (r["witness_tp"], r["witness_fp"], r["witness_fn"],
                                                    r["witness_n_true"], r["witness_n_pred"]),
                 f"{where}: witness bits do not reproduce the witness counts")
        attained = abs(_similarity(metric_a, tp, fp, fn, d) - _similarity(metric_b, tp, fp, fn, d))
        _require(_close(attained, sup_abs), f"{where}: witness does not attain the supremum")


# --- evaluate ---------------------------------------------------------------

def _directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.ndimage import distance_transform_edt

    return float(distance_transform_edt(~b)[a].max())


def evaluate_oracle(gt: np.ndarray, pred: np.ndarray) -> dict[str, float]:
    """Expected `segloss evaluate` values for boolean volumes gt and pred,
    keyed by the report's metric labels."""
    tp = int(np.count_nonzero(gt & pred))
    fp = int(np.count_nonzero(~gt & pred))
    fn = int(np.count_nonzero(gt & ~pred))
    d = gt.size
    tn = d - tp - fp - fn
    n_true, n_pred = tp + fn, tp + fp
    f2 = 5 * tp / (5 * tp + 4 * fn + fp)
    return {
        "dice": 2 * tp / (2 * tp + fp + fn),
        "jaccard": tp / (tp + fp + fn),
        "hamming": 1 - (fp + fn) / d,
        "whamming:0.5": 1 - 0.5 * fn / n_true - 0.5 * fp / (d - n_true),
        "tversky:0.3:0.7": tp / (tp + 0.3 * fp + 0.7 * fn),
        "fbeta:2": f2,
        "accuracy": (tp + tn) / d,
        "avd": 100 * abs(n_pred - n_true) / n_true,
        "hausdorff": max(_directed_hausdorff(gt, pred), _directed_hausdorff(pred, gt)),
    }


def check_evaluate_report(out_dir: str, expected: dict[str, float]) -> None:
    columns, rows = read_report(out_dir, "evaluate")
    rows = _as_dicts(columns, rows)
    _require([r["metric"] for r in rows] == list(expected), "evaluate: metric rows differ from the request")
    for r in rows:
        want = expected[r["metric"]]
        _require(r["defined"] is True and _close(r["value"], want),
                 f"evaluate {r['metric']}: {r['value']!r} != oracle {want!r}")


# --- train and sweep --------------------------------------------------------

def arm_file(arm: str) -> str:
    """Report file stem the CLI uses for an arm label."""
    return arm.replace(":", "_").replace(".", "p")


def experiment_reports(arms, summary: str) -> list[str]:
    return [f"scores_{arm_file(a)}" for a in arms] + ["significance", summary, "strata"]


def check_experiment_reports(out_dir: str, arms, n_images: int, folds: int, summary: str) -> None:
    """Scores, significance, summary and strata of one train or sweep run."""
    means = {}
    for arm in arms:
        base = f"scores_{arm_file(arm)}"
        columns, rows = read_report(out_dir, base)
        _require(all(c in columns for c in ("image", "fold") + SCORE_COLUMNS), f"{base}: missing columns")
        rows = _as_dicts(columns, rows)
        _require([r["image"] for r in rows] == list(range(n_images)), f"{base}: not one row per image")
        for r in rows:
            where = f"{base} image {r['image']}"
            _require(r["fold"] == r["image"] % folds, f"{where}: wrong fold")
            for c in SCORE_COLUMNS:
                v = r[c]
                _require(isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0,
                         f"{where}: {c} = {v!r} is not a finite score in [0, 1]")
            _require(_close(r["jaccard"], r["dice"] / (2.0 - r["dice"])), f"{where}: J != D/(2-D)")
            _require(_close(r["f1"], r["dice"]), f"{where}: F1 != Dice")
        means[arm] = {c: float(np.mean([r[c] for r in rows])) for c in SCORE_COLUMNS}

    columns, rows = read_report(out_dir, "significance")
    p = {(r["method_a"], r["method_b"]): r["p_superior"] for r in _as_dicts(columns, rows)}
    pairs = {(a, b) for a in arms for b in arms if a != b}
    _require(set(p) == pairs and len(rows) == len(pairs), "significance: not one row per ordered arm pair")
    for (a, b), v in p.items():
        _require(0.0 <= v <= 1.0, f"significance {a} vs {b}: p = {v!r} outside [0, 1]")
        _require(v + p[(b, a)] >= 1.0 - TOL, f"significance {a} vs {b}: p(a,b) + p(b,a) < 1")

    columns, rows = read_report(out_dir, summary)
    rows = _as_dicts(columns, rows)
    _require([r["method"] for r in rows] == list(arms), f"{summary}: methods differ from the arms")
    best = max(arms, key=lambda a: means[a]["dice"])
    for r in rows:
        arm = r["method"]
        for c in ("dice", "jaccard"):
            _require(_close(r[f"mean_{c}"], means[arm][c]),
                     f"{summary} {arm}: mean_{c} {r[f'mean_{c}']!r} != score-file mean {means[arm][c]!r}")
        for c in SCORE_COLUMNS[2:]:
            _require(_close(r[f"mean_{c}"], means[arm][c]), f"{summary} {arm}: mean_{c} != score-file mean")
        top = arm == best or p[(best, arm)] >= SIGNIFICANCE_LEVEL
        inferior = all(p[(o, arm)] < SIGNIFICANCE_LEVEL for o in arms if o != arm)
        _require(r["top_ranked"] is top and r["inferior_to_all"] is inferior,
                 f"{summary} {arm}: ranking labels disagree with the p-values")

    columns, rows = read_report(out_dir, "strata")
    rows = _as_dicts(columns, rows)
    for arm in arms:
        mine = [r for r in rows if r["method"] == arm]
        _require(sum(r["n_images"] for r in mine) == n_images, f"strata {arm}: bins do not cover every image")
        _require(all(0.0 <= r["mean_dice"] <= 1.0 for r in mine), f"strata {arm}: mean Dice outside [0, 1]")
