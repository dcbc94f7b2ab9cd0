"""Smoke test of the benchmark itself (about a minute on two cores).

    python3 perfbench/smoke.py

1. Every workload runs at the tiny input scale, untraced and traced; the
   result line must name every metric BENCHMARK.json lists, with its unit,
   and report no failed op.
2. Every checker must reject a deliberately corrupted copy of a real
   report tree, and the digest check must flag an op whose tree differs.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import TINY, WORKLOADS, CheckFailed  # noqa: E402

SMOKE = os.path.join(run.WORK, "smoke")


def run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_lines() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in WORKLOADS:
            proc = run_benchmark(ROOT, "--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{name} trace {trace}: metrics differ from BENCHMARK.json"
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok  {name} --trace {trace}: {len(got)} metrics")


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def rewrite(out_dir: str, base: str, edit, csv_too: bool = True) -> None:
    """Apply edit(columns, rows) to a report's JSON and, by default, write
    the CSV to match, so only the value check can catch the change."""
    path = os.path.join(out_dir, base + ".json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc["columns"], doc["rows"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    if csv_too:
        lines = [",".join(doc["columns"])] + [",".join(_cell(v) for v in r) for r in doc["rows"]]
        with open(os.path.join(out_dir, base + ".csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def set_cell(row: int, column: str, value):
    def edit(columns, rows):
        i = columns.index(column)
        rows[row][i] = value(rows[row][i]) if callable(value) else value
    return edit


def remove(out_dir: str, base: str) -> None:
    os.remove(os.path.join(out_dir, base + ".csv"))


CORRUPTIONS = {
    "train": [
        ("CSV differs from JSON", lambda d: rewrite(d, "summary", set_cell(0, "mean_dice", 0.5), csv_too=False)),
        ("missing report", lambda d: remove(d, "strata")),
        ("p-value above 1", lambda d: rewrite(d, "significance", set_cell(0, "p_superior", 1.5))),
        ("summary mean off", lambda d: rewrite(d, "summary", set_cell(0, "mean_dice", lambda v: v + 1e-6))),
        ("score outside [0, 1]", lambda d: rewrite(d, "scores_ce", set_cell(0, "dice", 1.25))),
    ],
    "bounds_evaluate": [
        ("bounds CSV differs from JSON", lambda d: rewrite(d, "bounds_dice-jaccard", set_cell(0, "d", 7), csv_too=False)),
        ("empirical sup off", lambda d: rewrite(d, "bounds_dice-tversky_0.3_0.7",
                                                set_cell(-1, "empirical_abs", lambda v: v - 1e-9))),
        ("witness bits wrong", lambda d: rewrite(d, "bounds_dice-whamming_0.5",
                                                 set_cell(-1, "witness_y", lambda v: "1" * len(v)))),
        ("evaluate CSV differs from JSON", lambda d: rewrite(d, "evaluate", set_cell(0, "value", 0.5), csv_too=False)),
        ("Hausdorff off", lambda d: rewrite(d, "evaluate", set_cell(-1, "value", lambda v: v + 0.5))),
        ("Dice off", lambda d: rewrite(d, "evaluate", set_cell(0, "value", lambda v: v * (1 - 1e-9)))),
    ],
}


def check_checkers_reject_corruption() -> None:
    for name, cases in CORRUPTIONS.items():
        workload = WORKLOADS[name](TINY)
        base = os.path.join(SMOKE, name)
        inputs = workload.make_inputs(os.path.join(base, "inputs"), 5)
        op = run.run_op(workload, inputs, 5, os.path.join(base, "op"))
        assert op["error"] is None, op["error"]
        good = os.path.join(base, "op", "out")
        for label, corrupt in cases:
            bad = os.path.join(base, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(good, bad)
            corrupt(bad)
            try:
                workload.check(inputs, bad)
            except CheckFailed as exc:
                print(f"ok  {name} rejects {label}: {exc}")
            else:
                raise AssertionError(f"{name} checker accepted a report with {label}")
        ops = [dict(op), dict(op, digest="0" * 64)]
        run.check_digests(ops)
        assert ops[0]["error"] is None and "differs" in ops[1]["error"]
    print("ok  digest check flags an op whose report tree differs")


def check_bare_directory_fails() -> None:
    bare = os.path.join(SMOKE, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    print(f"ok  bare directory: exit code {proc.returncode}, no result")


def main() -> int:
    shutil.rmtree(SMOKE, ignore_errors=True)
    os.makedirs(SMOKE)
    check_result_lines()
    check_checkers_reject_corruption()
    check_bare_directory_fails()
    shutil.rmtree(SMOKE, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
