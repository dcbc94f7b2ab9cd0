"""Child-process side of the benchmark's traced run.

    python perfbench/layers.py trace SPANS_JSON -- CLI_ARGS...
    python perfbench/layers.py probe PROBE_JSON -- CLI_ARGS...

``trace`` runs one segloss command through ``segloss.cli.main`` with every
call the CLI makes into another segloss module wrapped in a span, plus one
span around ``metrics.hausdorff_distance`` so Hausdorff separates from the
overlap metrics.  Spans are kept in memory and written as JSON when the
command returns; the process then exits with the command's exit code.

``probe`` (the train workload only) lets the CLI build its experiment,
stops it at the call into the experiment runner, and times layer internals on
those inputs in this one process: the same experiment at threads=1, one
train() on fold 0's training set, scoring, the loss-evaluation counts, and
each loss kernel at d = 4096 and d = 262144.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time
import types
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import segloss.cli as cli  # noqa: E402
import segloss.metrics  # noqa: E402
import segloss.toytrain as toytrain  # noqa: E402
from segloss.losses import eval_loss_arrays, parse_loss_spec  # noqa: E402

PROBE_LOSS = "soft_dice"
KERNELS = {
    "ce": "ce",
    "wce_0.9": "wce:0.9",
    "soft_dice_l1": "soft_dice",
    "soft_dice_l2": "soft_dice_l2",
    "soft_jaccard": "soft_jaccard",
    "tversky_0.3_0.7": "tversky:0.3:0.7",
    "lovasz": "lovasz",
}
KERNEL_SIZES = (4096, 262144)


def _layer(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    if head != "segloss" or tail in ("", "cli", "errors"):
        return None
    return tail


class Tracer:
    """Spans with id, name, parent, start and end on the monotonic clock,
    which the benchmark process shares."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._open.pop()
            attrs = _span_attrs(name, sig, args, kwargs, result)
            if attrs:
                span["attrs"] = attrs
            return result

        return traced


def _span_attrs(name, sig, args, kwargs, result) -> dict:
    """Work counts some per-layer metrics divide by, read after the span."""
    if name not in ("stats.rank_methods", "bounds.brute_force_sup", "fileio.read_mask",
                    "fileio.write_report"):
        return {}
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    if name == "stats.rank_methods":
        k = len(a["scores"])
        return {"bootstrap_tests": k * (k - 1), "n_resamples": a["n_resamples"]}
    if name == "bounds.brute_force_sup":
        return {"d": a["d"]}
    if name == "fileio.read_mask":
        return {"bytes": os.path.getsize(a["path"])}
    return {"bytes": sum(os.path.getsize(p) for p in result)}


def instrument_cli(tracer: Tracer) -> None:
    """Wrap every segloss function the cli module holds, directly or through
    a module it imported, as ``<layer>.<function>``."""
    for key, value in list(vars(cli).items()):
        if inspect.isfunction(value) and _layer(value.__module__):
            setattr(cli, key, tracer.wrap(value, f"{_layer(value.__module__)}.{value.__name__}"))
        elif isinstance(value, types.ModuleType) and _layer(value.__name__):
            layer = _layer(value.__name__)
            proxy = types.SimpleNamespace(**vars(value))
            for name, fn in vars(value).items():
                if inspect.isfunction(fn) and fn.__module__ == value.__name__ and not name.startswith("_"):
                    setattr(proxy, name, tracer.wrap(fn, f"{layer}.{name}"))
            setattr(cli, key, proxy)
    segloss.metrics.hausdorff_distance = tracer.wrap(
        segloss.metrics.hausdorff_distance, "metrics.hausdorff_distance")


def trace_main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    instrument_cli(tracer)
    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "spans": tracer.spans}, fh)
    return code


# --- probe ------------------------------------------------------------------

class _Captured(Exception):
    """Raised in place of the experiment runner once its arguments are held."""


def capture_experiment(argv: list[str]):
    """Run the CLI up to its experiment-runner call; returns (runner,
    bound arguments) without running the experiment."""
    held = {}

    def stop_at(fn):
        sig = inspect.signature(fn)

        def capture(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            held["call"] = (fn, dict(bound.arguments))
            raise _Captured

        return capture

    cli.run_loss_comparison = stop_at(cli.run_loss_comparison)
    try:
        cli.main(argv)
    except _Captured:
        return held["call"]
    raise RuntimeError("the command never reached an experiment runner")


class _WatchedGradient(np.ndarray):
    """A gradient that marks its loss evaluation as used once numpy reads it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._mark()
        inputs = tuple(np.asarray(x) if isinstance(x, _WatchedGradient) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types_, args, kwargs):
        self._mark()
        return super().__array_function__(func, (np.ndarray,), _plain(args), _plain(kwargs))

    def _mark(self):
        used = getattr(self, "used", None)
        if used is not None:
            used[0] = True


def _plain(x):
    if isinstance(x, _WatchedGradient):
        return np.asarray(x)
    if isinstance(x, (list, tuple)):
        return type(x)(_plain(v) for v in x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


def count_loss_evals(run):
    """Run run() with toytrain's eval_loss_arrays counted; returns (result,
    calls, calls whose gradient numpy later read)."""
    flags = []
    real = toytrain.eval_loss_arrays

    def counted(spec, y, p):
        value, grad, degenerate = real(spec, y, p)
        watched = grad.view(_WatchedGradient)
        watched.used = [False]
        flags.append(watched.used)
        return value, watched, degenerate

    toytrain.eval_loss_arrays = counted
    try:
        result = run()
    finally:
        toytrain.eval_loss_arrays = real
    return result, len(flags), sum(f[0] for f in flags)


def _per_call_s(fn, budget_s: float = 0.03, blocks: int = 5) -> float:
    """Median over blocks of the mean time of one fn() call."""
    t = time.perf_counter()
    fn()
    reps = max(1, int(budget_s / max(time.perf_counter() - t, 1e-9)))
    times = []
    for _ in range(blocks):
        t = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t) / reps)
    return statistics.median(times)


def probe_main(probe_path: str, argv: list[str]) -> int:
    runner, args = capture_experiment(argv)
    data, folds, seed, base = args["data"], args["folds"], args["seed"], args["base_cfg"]
    out = {}

    t = time.perf_counter()
    runner(**{**args, "threads": 1})
    out["run_threads1_s"] = time.perf_counter() - t

    n = len(data)
    train_idx = [i for i in range(n) if i % folds != 0]
    test_idx = [i for i in range(n) if i % folds == 0]
    cfg = replace(base, loss=parse_loss_spec(PROBE_LOSS), seed=toytrain.derive_seed(seed, 0))
    sub = data.subset(train_idx)
    t = time.perf_counter()
    res = toytrain.train(sub, cfg)
    out["train_job_s"] = time.perf_counter() - t
    out["epochs"] = cfg.pretrain_epochs_ce + res.epochs_run
    out["score_images_s"] = _per_call_s(lambda: toytrain.score_images(data, test_idx, res.weights))

    counted, calls, grad_calls = count_loss_evals(lambda: toytrain.train(sub, cfg))
    if counted.epochs_run != res.epochs_run or not np.array_equal(counted.weights, res.weights):
        raise RuntimeError("counted train() run diverged from the timed one")
    out["loss_evals"] = calls
    out["grad_loss_evals"] = grad_calls

    # kernel inputs: the workload's own labels, and the probabilities the
    # probe's trained weights give on them, tiled to reach each size
    labels = np.concatenate([s.label.data.astype(np.float64) for s in data])
    probs = np.concatenate([1.0 / (1.0 + np.exp(-np.clip(s.features @ res.weights, -50.0, 50.0)))
                            for s in data])
    for d in KERNEL_SIZES:
        y, p = np.resize(labels, d), np.resize(probs, d)
        for name, token in KERNELS.items():
            spec = parse_loss_spec(token)
            out[f"losses.{name}.d{d}_us"] = 1e6 * _per_call_s(lambda: eval_loss_arrays(spec, y, p))

    with open(probe_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    head, cli_args = argv[:sep], argv[sep + 1:]
    if head[0] == "trace":
        return trace_main(head[1], cli_args)
    if head[0] == "probe":
        return probe_main(head[1], cli_args)
    raise SystemExit(f"unknown mode {head[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
