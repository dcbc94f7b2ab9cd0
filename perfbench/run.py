"""Benchmark for the segloss CLI.

    python3 perfbench/run.py --workload {train,bounds_evaluate}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs a closed loop: each
operation ("op") is one or more real `python -m segloss.cli` commands in
fresh child processes, started only after the previous op ended, until the
next op would end past --seconds (at least two ops, so the report trees of
one seed can be compared).  Every op's reports are checked against the
benchmark's own oracles; an op that exits non-zero or fails a check counts
as failed.

--trace 0 reports the end-to-end metrics of the untraced ops.  --trace 1
runs the same untraced ops, then one traced op and, for train, the
in-process layer probe (perfbench/layers.py), and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it print
every metric by name and unit, the error rate and the host record.  The
full record (host, per-op samples, spans) is written under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from workloads import FULL, TINY, WORKLOADS, CheckFailed  # noqa: E402

MIN_OPS = 2
SETUP_SAMPLES = 15  # at least
SETUP_FIRST = 5
SETUP_PER_OP = 3
RSS_POLL_S = 0.2
LAYERS = ("fileio", "masks", "metrics", "losses", "bounds", "stats", "toytrain")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
KERNEL_METRICS = {
    f"losses.{k}.d{d}_us": "us"
    for k in ("ce", "wce_0.9", "soft_dice_l1", "soft_dice_l2", "soft_jaccard", "tversky_0.3_0.7", "lovasz")
    for d in (4096, 262144)
}
PER_LAYER = {
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "toytrain.generate_dataset_s": "s",
    "toytrain.run_s": "s",
    "toytrain.parallel_speedup": "ratio",
    "toytrain.train_job_s": "s",
    "toytrain.epochs": "count",
    "toytrain.epoch_ms": "ms",
    "toytrain.score_images_s": "s",
    "toytrain.loss_evals_per_epoch": "count",
    "toytrain.grad_eval_share": "ratio",
    **KERNEL_METRICS,
    "stats.rank_methods_s": "s",
    "stats.resamples_per_s": "1/s",
    "bounds.brute_force_sup_s": "s",
    "bounds.d12_s": "s",
    "metrics.hausdorff_s": "s",
    "metrics.overlap_s": "s",
    "fileio.read_mask_s": "s",
    "fileio.read_mb_per_s": "MB/s",
    "masks.threshold_s": "s",
    "fileio.write_report_s": "s",
    "fileio.reports_written": "count",
    "fileio.report_bytes": "bytes",
    "trace.overhead_s": "s",
}


# --- child processes --------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _tree_rss_bytes(root_pid: int) -> int:
    """Resident bytes of root_pid and all its descendants, from /proc."""
    parent_of = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent_of[int(name)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [c for c, p in parent_of.items() if p == pid and c not in tree]
        tree.update(kids)
        frontier.extend(kids)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except OSError:
            pass
    return total


class _RssSampler(threading.Thread):
    """Polls the process tree's summed RSS, so concurrent worker processes
    add up; wait4's ru_maxrss only gives the largest single process."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid, self.peak, self.done = pid, 0, threading.Event()

    def run(self):
        if not os.path.isdir("/proc"):
            return
        while not self.done.wait(RSS_POLL_S):
            self.peak = max(self.peak, _tree_rss_bytes(self.pid))


def run_child(argv: list[str], log_path: str, sample_rss: bool = True) -> dict:
    """Run argv to completion; wall is spawn to exit, cpu is user + sys of
    the child and every descendant it waited for."""
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        sampler = _RssSampler(proc.pid)
        if sample_rss:
            sampler.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            end = time.monotonic()
            sampler.done.set()
            if sample_rss:
                sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "start": start, "end": end, "wall": end - start,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_mb": max(ru.ru_maxrss * 1024, sampler.peak) / 1e6,
        "code": proc.returncode, "log": log_path,
    }


def _log_tail(path: str) -> str:
    with open(path, "rb") as fh:
        return fh.read()[-400:].decode("utf-8", "replace").strip()


def setup_sample(work: str) -> float:
    """Seconds to start the interpreter, `import segloss.cli` and exit."""
    log = os.path.join(work, "setup.log")
    child = run_child([sys.executable, "-c", "import segloss.cli"], log, sample_rss=False)
    if child["code"] != 0:
        raise RuntimeError(f"import segloss.cli failed: {_log_tail(log)}")
    return child["wall"]


# --- ops --------------------------------------------------------------------

def run_op(workload, inputs, seed: int, op_dir: str, traced: bool = False) -> dict:
    """One op: its commands in sequence, then the oracle check."""
    shutil.rmtree(op_dir, ignore_errors=True)
    out_dir = os.path.join(op_dir, "out")
    os.makedirs(out_dir)
    children = []
    for i, args in enumerate(workload.commands(inputs, seed, out_dir)):
        log = os.path.join(op_dir, f"cmd{i}.log")
        if traced:
            spans = os.path.join(op_dir, f"spans{i}.json")
            argv = [sys.executable, os.path.join(HERE, "layers.py"), "trace", spans, "--", *args]
        else:
            argv = [sys.executable, "-m", "segloss.cli", *args]
        child = run_child(argv, log)
        if traced and child["code"] == 0:
            with open(spans, encoding="utf-8") as fh:
                child["spans"] = json.load(fh)["spans"]
        children.append(child)
        if child["code"] != 0:
            break
    op = {
        "start": children[0]["start"], "end": children[-1]["end"],
        "wall": children[-1]["end"] - children[0]["start"],
        "cpu": sum(c["cpu"] for c in children),
        "rss_mb": max(c["rss_mb"] for c in children),
        "error": None, "digest": None, "children": children,
    }
    if children[-1]["code"] != 0:
        op["error"] = f"exit code {children[-1]['code']}: {_log_tail(children[-1]['log'])}"
    else:
        try:
            op["digest"] = workload.check(inputs, out_dir)
        except CheckFailed as exc:
            op["error"] = f"output check failed: {exc}"
    return op


def check_digests(ops: list[dict]) -> None:
    """Every op of one seed must write the same report tree."""
    ref = next((op["digest"] for op in ops if op["digest"]), None)
    for i, op in enumerate(ops):
        if op["error"] is None and op["digest"] != ref:
            op["error"] = f"report tree of op {i} differs from the first passing op"


# --- per-layer metrics ------------------------------------------------------

def op_spans(op: dict, op_id: int) -> list[dict]:
    """The traced op as one span tree: cli.op > cli.invoke (one per
    command, spawn to exit) > the layer spans that command recorded."""
    spans = [{"id": 0, "name": "cli.op", "parent": None, "start": op["start"], "end": op["end"]}]
    for child in op["children"]:
        inv = len(spans)
        spans.append({"id": inv, "name": "cli.invoke", "parent": 0, "start": child["start"], "end": child["end"]})
        for s in child.get("spans", []):
            spans.append({**s, "id": inv + 1 + s["id"],
                          "parent": inv if s["parent"] is None else inv + 1 + s["parent"]})
    for s in spans:
        s["op"] = op_id
    return spans


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it its child spans cover."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for k in sorted(kids.get(s["id"], []), key=lambda k: k["start"]):
            lo, hi = max(k["start"], cursor), min(k["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float, probe: dict | None) -> dict:
    def layer(s):
        return s["name"].split(".", 1)[0]

    def dur(pred):
        return sum(s["end"] - s["start"] for s in spans if pred(s))

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in spans if s["name"] == name)

    by_id = {s["id"]: s for s in spans}
    selfs = self_seconds(spans)
    m = {"cli.self_s": sum(v for i, v in selfs.items() if layer(by_id[i]) == "cli")}
    for name in LAYERS:
        m[f"{name}.self_s"] = sum(v for i, v in selfs.items() if layer(by_id[i]) == name)
    m["toytrain.generate_dataset_s"] = dur(lambda s: s["name"] == "toytrain.generate_dataset")
    m["toytrain.run_s"] = dur(lambda s: s["name"].startswith("toytrain.run_"))

    rank_s = dur(lambda s: s["name"] == "stats.rank_methods")
    resamples = sum(s["attrs"]["bootstrap_tests"] * s["attrs"]["n_resamples"]
                    for s in spans if s["name"] == "stats.rank_methods")
    m["stats.rank_methods_s"] = rank_s
    m["stats.resamples_per_s"] = resamples / rank_s if rank_s else 0.0
    m["bounds.brute_force_sup_s"] = dur(lambda s: s["name"] == "bounds.brute_force_sup")
    m["bounds.d12_s"] = dur(lambda s: s["name"] == "bounds.brute_force_sup" and s["attrs"]["d"] == 12)

    hausdorff = dur(lambda s: s["name"] == "metrics.hausdorff_distance")
    metrics_total = dur(lambda s: layer(s) == "metrics" and layer(by_id[s["parent"]]) != "metrics")
    m["metrics.hausdorff_s"] = hausdorff
    m["metrics.overlap_s"] = metrics_total - hausdorff

    read_s = dur(lambda s: s["name"] == "fileio.read_mask")
    m["fileio.read_mask_s"] = read_s
    m["fileio.read_mb_per_s"] = attr_sum("fileio.read_mask", "bytes") / 1e6 / read_s if read_s else 0.0
    m["masks.threshold_s"] = dur(lambda s: s["name"] == "masks.threshold")
    m["fileio.write_report_s"] = dur(lambda s: s["name"] == "fileio.write_report")
    m["fileio.reports_written"] = sum(1 for s in spans if s["name"] == "fileio.write_report")
    m["fileio.report_bytes"] = attr_sum("fileio.write_report", "bytes")
    m["trace.overhead_s"] = traced_wall - untraced_wall

    # probe metrics read 0 on workloads whose op never runs toytrain
    p = probe or {}
    epochs = p.get("epochs", 0)
    calls = p.get("loss_evals", 0)
    run_s = m["toytrain.run_s"]
    m["toytrain.parallel_speedup"] = p["run_threads1_s"] / run_s if p and run_s else 0.0
    m["toytrain.train_job_s"] = p.get("train_job_s", 0.0)
    m["toytrain.epochs"] = epochs
    m["toytrain.epoch_ms"] = 1000 * p["train_job_s"] / epochs if epochs else 0.0
    m["toytrain.score_images_s"] = p.get("score_images_s", 0.0)
    m["toytrain.loss_evals_per_epoch"] = calls / epochs if epochs else 0.0
    m["toytrain.grad_eval_share"] = p["grad_loss_evals"] / calls if calls else 0.0
    for name in KERNEL_METRICS:
        m[name] = p.get(name, 0.0)
    return m


def run_probe(workload, inputs, seed: int, probe_dir: str) -> dict:
    shutil.rmtree(probe_dir, ignore_errors=True)
    os.makedirs(probe_dir)
    result = os.path.join(probe_dir, "probe.json")
    args = workload.commands(inputs, seed, os.path.join(probe_dir, "out"))[0]
    argv = [sys.executable, os.path.join(HERE, "layers.py"), "probe", result, "--", *args]
    child = run_child(argv, os.path.join(probe_dir, "probe.log"), sample_rss=False)
    if child["code"] != 0:
        raise RuntimeError(f"layer probe failed: {_log_tail(child['log'])}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


# --- host record ------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(), "seed": seed,
    }


# --- main -------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test input sizes (perfbench/smoke.py)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "segloss", "cli.py")):
        print(f"perfbench: no segloss sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](TINY if args.tiny else FULL)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    work = os.path.join(WORK, tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    inputs = workload.make_inputs(os.path.join(work, "inputs"), args.seed)
    # set-up samples follow every op as well as opening the run, so a
    # change of host load during the run reaches their median; the first,
    # untimed start fills the bytecode cache.  The run's clock starts with
    # the process, so --seconds bounds the whole run.
    setup_sample(work)
    setup = [setup_sample(work) for _ in range(SETUP_FIRST)]
    ops = []
    while (len(ops) < MIN_OPS
           or time.monotonic() - t0 + ops[-1]["wall"] + SETUP_PER_OP * setup[-1] <= args.seconds):
        ops.append(run_op(workload, inputs, args.seed, os.path.join(work, f"op{len(ops)}")))
        setup += [setup_sample(work) for _ in range(SETUP_PER_OP)]
    setup += [setup_sample(work) for _ in range(SETUP_SAMPLES - len(setup))]
    untraced = list(ops)

    wall = statistics.median(op["wall"] for op in untraced)
    if args.trace:
        traced = run_op(workload, inputs, args.seed, os.path.join(work, "traced"), traced=True)
        ops.append(traced)
        probe = run_probe(workload, inputs, args.seed, os.path.join(work, "probe")) if workload.probe else None
    check_digests(ops)
    failed = sum(op["error"] is not None for op in ops)

    if args.trace:
        spans = op_spans(traced, len(ops) - 1)
        metrics = layer_metrics(spans, traced["wall"], wall, probe)
        units = PER_LAYER
    else:
        spans = []
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(op["cpu"] for op in untraced),
            "peak_rss_mb": statistics.median(op["rss_mb"] for op in untraced),
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    host = host_record(args.seed)
    record = {
        "workload": args.workload, "host": host, "setup_samples": setup, "metrics": metrics,
        "ops": [{k: v for k, v in op.items() if k != "children"} for op in ops], "spans": spans,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for op in ops:
        shutil.rmtree(os.path.join(os.path.dirname(op["children"][0]["log"]), "out"), ignore_errors=True)

    print(f"host {json.dumps(host)}")
    print(f"{args.workload}: {len(untraced)} untraced ops{' + 1 traced op' if args.trace else ''}, "
          f"error_rate {failed / len(ops):g} ({failed}/{len(ops)} failed)")
    for op in ops:
        if op["error"]:
            print(f"  failed op: {op['error']}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
