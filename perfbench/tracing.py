"""Spans around calls into the mpbnn modules, recorded from outside the package.

`install()` rebinds each target function, in every mpbnn module that holds
it, to a wrapper that appends one span per call: name, tag, rows, start,
end, parent and process id.  Rebinding every holder means calls through
`module.attr` and through names bound by `from .x import y` are both seen.
A target that a later version of the package no longer has is skipped.

`data.run_tasks` gets a wrapper of its own: each task runs inside
`_traced_task`, which records the task's spans in whichever process runs
it and returns them with the result, so spans from pool workers reach the
parent and hang under the `run_tasks` span that caused them.

A generator function (`cli._check_gradients`) gets a span from its first
`next` to its exhaustion; its consumer must not call traced functions
between items (`run_self_checks` only collects them into a list).

Each span costs the tracer some work outside the span's own interval, which
would land in its parent's self time.  `span_cost` measures that cost once
per run, and `self_times` takes it off the parent for each child.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

import numpy as np

MODES = ("full", "diag")

FWD_KERNELS = ("_dense_fwd", "_dropout_fwd", "_mp_gelu_fwd", "_relu_fwd")
BWD_KERNELS = ("_dense_bwd", "_dropout_bwd", "_mp_gelu_bwd", "_relu_bwd")
ELL_KERNELS = ("_ell2_fwd", "_ell2_bwd")

TARGETS = {
    "moments": FWD_KERNELS,
    "training": ("loss_and_gradients", "_forward_tape") + BWD_KERNELS
    + ("sgd_step", "train", "evaluate_model"),
    "objective": ELL_KERNELS + ("predictive_moments",),
    "network": ("forward", "forward_batch"),
    "data": ("make_splits", "grid_search_dropout", "run_tasks"),
    "mc_oracle": ("mc_layer_moments", "mc_expected_ll"),
    "cli": ("run_uci_protocol", "_time_test_pass", "_check_gradients"),
}

# Span record fields.
NAME, TAG, ROWS, START, END, PARENT, PID, EXTRA = range(8)


def _describe(name, args):
    """(tag, rows, extra) of one call: covariance mode (with the
    architecture for `network.forward`), leading batch size, and the weight
    shape of a dense kernel.  For an MC oracle call: the input's mode, the
    sample count and the input dimension."""
    if name.startswith("mc_oracle."):
        mv = args[1] if name == "mc_oracle.mc_layer_moments" else args[0]
        return mv.mode, int(args[2]), mv.dim
    tag = next((a for a in args if isinstance(a, str) and a in MODES), None)
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    rows = 0
    if arrays:
        rows = arrays[0].shape[0] if arrays[0].ndim >= 2 or name.endswith(ELL_KERNELS) else 1
    extra = None
    if name == "moments._dense_fwd" and len(arrays) >= 3:
        extra = arrays[2].shape
    elif args and hasattr(args[0], "covariance_mode"):
        tag = args[0].covariance_mode
        if name == "network.forward":
            relu = any(layer.kind == "relu" for layer in args[0].layers)
            tag = f"{'relu' if relu else 'mp_gelu'}.{tag}"
    return tag, rows, extra


class Tracer:
    """In-memory span buffer plus the stack of spans open in this process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.originals = []

    def _wrap(self, name, fn):
        tracer = self

        def open_span(args):
            try:
                tag, rows, extra = _describe(name, args)
            except (AttributeError, TypeError, IndexError):
                tag, rows, extra = None, 0, None
            spans, stack = tracer.spans, tracer.stack
            rec = [name, tag, rows, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, 0, extra]
            stack.append(len(spans))
            spans.append(rec)
            return rec

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                rec = open_span(args)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    rec[END] = time.perf_counter()
                    tracer.stack.pop()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = open_span(args)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def _wrap_run_tasks(self, fn):
        traced_call = self._wrap("data.run_tasks", fn)
        tracer = self

        @functools.wraps(fn)
        def run_tasks(worker, tasks, *args, **kwargs):
            shim = functools.partial(_traced_task, worker)
            jobs = args[0] if args else kwargs.get("jobs", 1)
            span_idx = len(tracer.spans)  # where traced_call appends its span
            outs = traced_call(shim, tasks, *args, **kwargs)
            busy = 0.0
            for _, (pid, t0, t1, child_spans) in outs:
                busy += t1 - t0
                base = len(tracer.spans)
                for rec in child_spans:
                    rec[PARENT] = span_idx if rec[PARENT] < 0 else rec[PARENT] + base
                    rec[PID] = 0 if pid == os.getpid() else pid
                    tracer.spans.append(rec)
            workers = jobs if jobs > 1 and len(tasks) > 1 else 1
            tracer.spans[span_idx][EXTRA] = (busy, min(workers, len(tasks)))
            return [result for result, _ in outs]

        return run_tasks

    def install(self):
        """Wrap every target present in the package; returns self."""
        pkg = {n: m for n, m in sys.modules.items() if n == "mpbnn" or n.startswith("mpbnn.")}
        for short, names in TARGETS.items():
            module = importlib.import_module(f"mpbnn.{short}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                name = f"{short}.{fname}"
                wrapper = self._wrap_run_tasks(fn) if name == "data.run_tasks" else self._wrap(name, fn)
                for mod in list(pkg.values()):
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, attr, wrapper)
                            self.originals.append((mod, attr, fn))
        global ACTIVE
        ACTIVE = self
        return self

    def uninstall(self):
        global ACTIVE
        for mod, attr, fn in reversed(self.originals):
            setattr(mod, attr, fn)
        self.originals = []
        ACTIVE = None


# The tracer installed in this process.  Pool workers started by fork
# inherit it along with the wrapped functions.
ACTIVE = None


def _traced_task(worker, task):
    """Run one pool task with spans recorded into a fresh buffer."""
    tracer = ACTIVE if ACTIVE is not None else Tracer().install()
    saved = tracer.spans, tracer.stack
    tracer.spans, tracer.stack = [], []
    t0 = time.perf_counter()
    try:
        result = worker(task)
    finally:
        spans = tracer.spans
        tracer.spans, tracer.stack = saved
    return result, (os.getpid(), t0, time.perf_counter(), spans)


# ---------------------------------------------------------------------------
# From spans to per-layer numbers.
# ---------------------------------------------------------------------------


def span_cost(reps=2000, rounds=5):
    """Seconds of tracer work per span that fall outside the span's own
    interval, and so inside its parent's: a wrapped no-op called with the
    arguments of a dense kernel, less the span intervals and less the bare
    calls.  Median of `rounds` rounds of `reps` calls."""
    def noop(*args):
        return None

    args = (np.zeros((1, 20)), np.zeros((1, 20, 20)), np.zeros((20, 20)), np.zeros(20), "full")
    tracer = Tracer()
    wrapped = tracer._wrap("moments._dense_fwd", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            noop(*args)
        bare = time.perf_counter() - t0
        tracer.spans = []
        t0 = time.perf_counter()
        for _ in range(reps):
            wrapped(*args)
        total = time.perf_counter() - t0
        inside = sum(rec[END] - rec[START] for rec in tracer.spans)
        costs.append((total - inside - bare) / reps)
    return max(float(np.median(costs)), 0.0)


def self_times(spans, cost=0.0):
    """Each span's duration minus the union of its children's intervals,
    and minus `cost` (see `span_cost`) for each child in its own process."""
    children = [[] for _ in spans]
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append(i)
    out = np.empty(len(spans))
    for i, rec in enumerate(spans):
        covered = 0.0
        cur_end = -np.inf
        for s, e in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            if e <= cur_end:
                continue
            covered += e - max(s, cur_end)
            cur_end = e
        own = sum(1 for c in children[i] if spans[c][PID] == rec[PID])
        out[i] = max((rec[END] - rec[START]) - covered - own * cost, 0.0)
    return out


def durations_less_cost(spans, cost=0.0):
    """Each span's duration minus `cost` for every span under it in its own
    process: the time the call would take untraced."""
    nested = np.zeros(len(spans))
    for i in range(len(spans) - 1, -1, -1):  # children come after parents
        p = spans[i][PARENT]
        if p >= 0 and spans[p][PID] == spans[i][PID]:
            nested[p] += 1 + nested[i]
    return np.array([rec[END] - rec[START] for rec in spans]) - nested * cost


def _within(spans, name):
    """For each span, whether it is a `name` span or lies under one."""
    inside = [False] * len(spans)
    for i, rec in enumerate(spans):  # parents come before children
        inside[i] = rec[NAME] == name or (rec[PARENT] >= 0 and inside[rec[PARENT]])
    return inside


def dense_full_cost(shape, rows):
    """(flops, bytes) of one full-mode `_dense_fwd` call, from shapes.

    Flops: W μ plus the two GEMMs of W Σ Wᵀ.  Bytes: each row reads μ and Σ,
    writes and reads back Σ Wᵀ, and writes the output mean and Σ; W and b
    are read once per call."""
    m, n = shape
    flops = rows * (2 * n * m + 2 * n * n * m + 2 * n * m * m)
    nbytes = 8 * (rows * (n + m + n * n + 2 * n * m + m * m) + m * n + m)
    return flops, nbytes


def layer_metrics(spans, counters, main_pid, cost=0.0):
    """Per-layer numbers from the spans of one traced phase, with the
    tracer's own cost per span (`span_cost`) taken off.

    Returns (metrics, bases): metrics maps each per-layer name to a float
    (0.0 when the workload never called that layer); bases records the
    totals and call counts each ratio and median was taken over."""
    selfs = self_times(spans, cost)
    spans_s = durations_less_cost(spans, cost)
    by_name, self_by_tag = {}, {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)
        key = rec[NAME] if rec[TAG] is None else f"{rec[NAME]}[{rec[TAG]}]"
        self_by_tag[key] = self_by_tag.get(key, 0.0) + float(selfs[i])
    total_self = float(selfs.sum())
    metrics, bases = {}, {"trace.span_cost_s": cost}
    bases["self_time_share"] = {k: v / total_self for k, v in
                                sorted(self_by_tag.items(), key=lambda kv: -kv[1])}

    def durations(name, tag=None):
        return [float(spans_s[i]) for i in by_name.get(name, ())
                if tag is None or spans[i][TAG] == tag]

    def median(name, scale, key, tag=None):
        d = durations(name, tag)
        metrics[key] = float(np.median(d)) * scale if d else 0.0
        bases[key] = {"calls": len(d)}

    for module, kernels in (("moments", FWD_KERNELS), ("training", BWD_KERNELS)):
        for kernel in kernels:
            for mode in MODES:
                idx = [i for i in by_name.get(f"{module}.{kernel}", ()) if spans[i][TAG] == mode]
                rows = sum(spans[i][ROWS] for i in idx)
                busy = float(sum(selfs[i] for i in idx))
                key = f"{module}.{kernel.lstrip('_')}.{mode}.ns_per_row"
                metrics[key] = busy * 1e9 / rows if rows else 0.0
                bases[key] = {"calls": len(idx), "rows": rows, "self_s": busy}

    passes = [i for n in ("network.forward_batch", "training._forward_tape")
              for i in by_name.get(n, ())]
    net_rows = sum(spans[i][ROWS] for i in passes if spans[i][PID] == 0)
    for fn in ("erf", "exp", "sqrt"):
        key = f"moments.{fn}_per_row"
        metrics[key] = counters[fn] / net_rows if net_rows else 0.0
        bases[key] = {"count": counters[fn], "network_rows": net_rows, "process": main_pid}

    flops = nbytes = 0
    for i in by_name.get("moments._dense_fwd", ()):
        if spans[i][TAG] == "full" and spans[i][EXTRA] is not None:
            f, b = dense_full_cost(spans[i][EXTRA], spans[i][ROWS])
            flops, nbytes = flops + f, nbytes + b
    # Per row of a full-mode network pass, over all its dense layers.
    rows = sum(spans[i][ROWS] for i in passes if spans[i][TAG] == "full")
    metrics["moments.dense_full.flops_computed"] = flops / rows if rows else 0.0
    metrics["moments.dense_full.bytes_computed"] = nbytes / rows if rows else 0.0
    metrics["moments.dense_full.flops_per_byte"] = flops / nbytes if nbytes else 0.0
    bases["moments.dense_full"] = {"network_rows": rows, "flops": flops, "bytes": nbytes,
                                   "note": "computed from shapes, not measured"}

    for arch in ("mp_gelu", "relu"):
        for mode in MODES:
            median("network.forward", 1e6, f"network.forward.us_p50.{arch}.{mode}",
                   tag=f"{arch}.{mode}")

    fwd_names = {f"moments.{k}" for k in FWD_KERNELS}
    kernel_names = fwd_names | {f"training.{k}" for k in BWD_KERNELS} | {
        f"objective.{k}" for k in ELL_KERNELS}
    for key, outer, inner in (
        ("network.forward.self_share", "network.forward", fwd_names),
        ("training.loss_and_gradients.self_share", "training.loss_and_gradients", kernel_names),
    ):
        within = _within(spans, outer)
        total = float(sum(selfs[i] for i in range(len(spans)) if within[i]))
        in_kernels = float(sum(selfs[i] for n in inner for i in by_name.get(n, ()) if within[i]))
        metrics[key] = (total - in_kernels) / total if total else 0.0
        bases[key] = {"span_s": total, "kernel_s": in_kernels, "calls": len(durations(outer))}

    median("training.loss_and_gradients", 1e3, "training.loss_and_gradients.ms_p50")
    median("training.sgd_step", 1e6, "training.sgd_step.us")

    ell_s = sum(durations("objective._ell2_fwd")) + sum(durations("objective._ell2_bwd"))
    ell_rows = sum(spans[i][ROWS] for i in by_name.get("objective._ell2_fwd", ()))
    metrics["objective.ell.ns_per_row"] = ell_s * 1e9 / ell_rows if ell_rows else 0.0
    bases["objective.ell.ns_per_row"] = {"rows": ell_rows, "s": ell_s}
    median("objective.predictive_moments", 1e6, "objective.predictive_moments.us")

    median("data.make_splits", 1e3, "data.make_splits.ms")
    median("data.grid_search_dropout", 1.0, "data.grid_search_dropout.s")
    median("data.run_tasks", 1.0, "data.run_tasks.s")
    busy = capacity = 0.0
    for i in by_name.get("data.run_tasks", ()):
        if spans[i][EXTRA] is not None:
            task_s, workers = spans[i][EXTRA]
            busy += task_s
            capacity += (spans[i][END] - spans[i][START]) * workers
    metrics["data.run_tasks.busy_share"] = busy / capacity if capacity else 0.0
    bases["data.run_tasks.busy_share"] = {"task_s": busy, "wall_x_workers_s": capacity}

    median("cli.run_uci_protocol", 1.0, "cli.run_uci_protocol.s")
    median("cli._time_test_pass", 1e3, "cli._time_test_pass.ms")

    median("mc_oracle.mc_layer_moments", 1.0, "mc_oracle.mc_layer_moments.s")
    median("mc_oracle.mc_expected_ll", 1.0, "mc_oracle.mc_expected_ll.s")
    oracle = [i for n in ("mc_oracle.mc_layer_moments", "mc_oracle.mc_expected_ll")
              for i in by_name.get(n, ()) if spans[i][EXTRA] is not None]
    draws = sum(8 * spans[i][ROWS] * spans[i][EXTRA] for i in oracle)
    metrics["mc_oracle.bytes_computed"] = draws / len(oracle) if oracle else 0.0
    bases["mc_oracle.bytes_computed"] = {"calls": len(oracle), "bytes": draws,
                                         "note": "draw matrix per call, computed from shapes"}
    median("cli._check_gradients", 1.0, "cli._check_gradients.s")
    return metrics, bases
