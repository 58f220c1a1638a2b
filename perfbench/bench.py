"""Closed-loop timing, output checks, tracing and the environment record.

`run_workload` is the whole benchmark for one workload; `run.py` is its
command line.  The end-to-end metrics come from a run with tracing off.  A
traced run (`trace=True`) spends the first half of its time untraced and
the second half traced, and reports the per-layer numbers of the traced
half plus the tracing overhead between the two halves.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import resource
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from mpbnn import moments

from . import BLAS_THREAD_VARS, tracing
from .workloads import POOL_JOBS, WORKLOADS

SETUP_REPEATS = 7

# Field order of the span lists in a traced record (see tracing.py); pid 0
# is the benchmark's own process.
SPAN_FIELDS = ["name", "tag", "rows", "start_s", "end_s", "parent", "pid", "extra"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_p50_rel": "ref",
    "step_p90_rel": "ref",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"moments.{k}_fwd.{m}.ns_per_row": "ns/row"
       for k in ("dense", "dropout", "mp_gelu", "relu") for m in ("full", "diag")},
    **{f"training.{k}_bwd.{m}.ns_per_row": "ns/row"
       for k in ("dense", "dropout", "mp_gelu", "relu") for m in ("full", "diag")},
    **{f"moments.{fn}_per_row": "count/row" for fn in ("erf", "exp", "sqrt")},
    "moments.dense_full.flops_computed": "flop/row",
    "moments.dense_full.bytes_computed": "B/row",
    "moments.dense_full.flops_per_byte": "flop/B",
    **{f"network.forward.us_p50.{a}.{m}": "us"
       for a in ("mp_gelu", "relu") for m in ("full", "diag")},
    "network.forward.self_share": "share",
    "training.loss_and_gradients.ms_p50": "ms",
    "training.loss_and_gradients.self_share": "share",
    "training.sgd_step.us": "us",
    "objective.ell.ns_per_row": "ns/row",
    "objective.predictive_moments.us": "us",
    "data.make_splits.ms": "ms",
    "data.grid_search_dropout.s": "s",
    "data.run_tasks.s": "s",
    "data.run_tasks.busy_share": "share",
    "cli.run_uci_protocol.s": "s",
    "cli._time_test_pass.ms": "ms",
    "mc_oracle.mc_layer_moments.s": "s",
    "mc_oracle.mc_expected_ll.s": "s",
    "mc_oracle.bytes_computed": "B/call",
    "cli._check_gradients.s": "s",
    **{f"gated_speedup.{b}.{m}": "x" for b in ("b1", "b256") for m in ("full", "diag")},
    "trace.overhead_share": "share",
}


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    """Versions and thread setup that produced the timings."""
    import scipy

    def blas_of(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_of(np),
        "scipy_blas": blas_of(scipy),
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "blas_threads_in_effect": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)),
    }


_REF_RNG = np.random.default_rng(0)
_REF_V = _REF_RNG.random(20)
_REF_X = _REF_RNG.random((256, 20, 20))
_REF_W = _REF_RNG.random((20, 20))


def small_reference():
    """About 0.04 ms of numpy calls on 20-vectors: per-call overhead, like
    a single-example pass."""
    v = _REF_V
    for _ in range(25):
        v = np.tanh(v * 0.5 + 0.1)
    return v


def batched_reference():
    """About 1 ms of elementwise work and one GEMM on (256, 20, 20) stacks,
    the shapes of a full-mode step at B=256 and width 20."""
    x = _REF_X * 0.5 + 0.1
    y = (x.reshape(-1, 20) @ _REF_W).reshape(x.shape)
    return float((y * x).sum())


def _small_block(n):
    for _ in range(n):
        small_reference()


def pool_reference(jobs=POOL_JOBS):
    """Start a pool of `jobs` workers and run two 400-unit small blocks per
    worker: process start-up plus parallel per-call overhead, the shape of
    one `data.run_tasks` call.  It uses the default start method, as
    `run_tasks` does, so that it pays the same start-up cost."""
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(_small_block, [400] * (2 * jobs)))


REFERENCES = {"small": small_reference, "batched": batched_reference, "pool": pool_reference}
# Median duration of one unit of each reference on the machine the
# benchmark was defined on (2 vCPUs, Python 3.11, numpy 2.4); converts
# relative set-up times back to seconds.
REF_NOMINAL_S = {"small": 4e-5, "batched": 1e-3, "pool": 8e-2}
# Reference time spent after a timed step, as a share of its duration; a
# set-up, timed only a few times per run, is followed by as much again.
STEP_REF_SHARE = 0.2
SETUP_REF_SHARE = 1.0
REF_MIN_UNITS = 3


def reference_time(workload, seconds):
    """Median duration of units of the workload's reference computation,
    timed back to back for about `seconds` (at least REF_MIN_UNITS)."""
    reference = REFERENCES[workload.reference]
    units = []
    while len(units) < REF_MIN_UNITS or sum(units) < seconds:
        r0 = time.perf_counter()
        reference()
        units.append(time.perf_counter() - r0)
    return float(np.median(units))


def closed_loop(workload, seconds, first_step=0):
    """Run steps back to back for `seconds` (at least one step).

    Right after each step (and its check) the loop times the workload's
    reference computation; the step's relative time is its duration over
    that reference time, which cancels most of the machine's own speed
    swings.  Returns (step durations, relative step times, steps
    attempted, failure messages).  A step that raises or fails its check
    counts as failed."""
    durations, relative, failures = array("d"), array("d"), []
    deadline = time.perf_counter() + seconds
    i = first_step
    while i == first_step or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        try:
            out = workload.step(i)
        except Exception as exc:  # a failing step is counted, not fatal
            durations.append(time.perf_counter() - t0)
            failures.append(f"step {i}: {type(exc).__name__}: {exc}")
        else:
            durations.append(time.perf_counter() - t0)
            problem = workload.check(i, out)
            if problem is not None:
                failures.append(problem)
        ref = reference_time(workload, STEP_REF_SHARE * durations[-1])
        relative.append(durations[-1] / ref)
        i += 1
    return durations, relative, i - first_step, failures


def _step_stats(durations, relative):
    d = np.asarray(durations)
    return {
        "step_p50_rel": float(np.percentile(relative, 50)),
        "step_p90_rel": float(np.percentile(relative, 90)),
        "step_ms_p50": float(np.percentile(d, 50)) * 1e3,
        "step_ms_p90": float(np.percentile(d, 90)) * 1e3,
        "step_ms_quartiles": [float(q) * 1e3 for q in np.percentile(d, [25, 50, 75])],
        "steps": int(d.size),
    }


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_workload(name, seed, seconds, trace=False, tiny=False):
    """Run one workload; returns the full record (see README.md)."""
    workload = WORKLOADS[name](seed, tiny=tiny)
    setup_times, setup_rel = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        ref = reference_time(workload, SETUP_REF_SHARE * setup_times[-1])
        setup_rel.append(setup_times[-1] / ref)

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "config": workload.describe()}
    timing = {
        "setup_s": float(np.median(setup_rel)) * REF_NOMINAL_S[workload.reference],
        "setup_s_raw": setup_times,
    }
    if not trace:
        durations, relative, attempted, failures = closed_loop(workload, seconds)
        timing.update(_step_stats(durations, relative))
        timing["peak_rss_mb"] = _peak_rss_mb()
        metrics = {k: timing[k] for k in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    else:
        untraced, rel_a, attempted, failures = closed_loop(workload, seconds / 2.0)
        report = workload.probe()
        moments.counters.reset()
        tracer = tracing.Tracer().install()
        try:
            traced, rel_b, n_b, fail_b = closed_loop(workload, seconds / 2.0,
                                                      first_step=attempted)
        finally:
            tracer.uninstall()
        counts = moments.counters.snapshot()
        attempted += n_b
        failures += fail_b
        layer, bases = tracing.layer_metrics(tracer.spans, counts, os.getpid(),
                                             tracing.span_cost())
        layer.update(report)
        timing.update({"untraced": _step_stats(untraced, rel_a),
                       "traced": _step_stats(traced, rel_b)})
        layer["trace.overhead_share"] = (timing["traced"]["step_p50_rel"]
                                         / timing["untraced"]["step_p50_rel"] - 1.0)
        metrics = {k: layer.get(k, 0.0) for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        record.update({"bases": bases, "spans": tracer.spans})

    final_attempted, final_failures = workload.final_checks()
    attempted += final_attempted
    failures += final_failures
    record.update({
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "timing": timing,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })
    return record


def result_line(record):
    """The JSON object the benchmark prints last."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
