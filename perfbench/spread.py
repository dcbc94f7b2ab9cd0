"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD [WORKLOAD...] --seeds 1-10

Runs perfbench/run.py once per seed, untraced and for BENCHMARK.json's
run_seconds, and prints, per metric, the median and the interquartile range
as a share of the median, the figure BENCHMARK.json's bounds are checked
against.  Raw results are appended to
.bench_work/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="+")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    worst_ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            ).stdout
            result = json.loads(out.strip().splitlines()[-1])
            with open(os.path.join(ROOT, ".bench_work", "spread.jsonl"), "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                worst_ok = False
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} ops failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            flag = "" if share < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:9s} {name:12s} median {med:10.4f}  iqr/median {share:.4f}  "
                  f"bound {bounds[name]}{flag}", flush=True)
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
