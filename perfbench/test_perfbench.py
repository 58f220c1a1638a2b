"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mpbnn import cli, moments, network, training  # noqa: E402

from perfbench import bench, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared(kind):
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == bench.END_TO_END_UNITS
    assert _declared("per_layer") == bench.PER_LAYER_UNITS
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric_with_its_unit(name, trace):
    record = bench.run_workload(name, seed=3, seconds=0.2, trace=trace, tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    assert got == declared
    for key, metric in record["metrics"].items():
        assert math.isfinite(metric["value"]), key
    if not trace:
        assert all(record["metrics"][k]["value"] > 0 for k in declared)


def test_traced_run_attributes_time_to_layers():
    record = bench.run_workload("train-full", seed=3, seconds=0.3, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["moments.dense_fwd.full.ns_per_row"] > 0
    assert metrics["training.dense_bwd.full.ns_per_row"] > 0
    # Dense layers 13->20, 20->20 and 20->2: W mu plus the two GEMMs of W Sigma W^T.
    flops = sum(2 * n * m + 2 * n * n * m + 2 * n * m * m for n, m in ((13, 20), (20, 20), (20, 2)))
    assert metrics["moments.dense_full.flops_computed"] == flops
    assert 0 < metrics["training.loss_and_gradients.self_share"] < 1
    assert metrics["moments.relu_fwd.diag.ns_per_row"] == 0.0


def test_pool_worker_spans_reach_the_parent():
    record = bench.run_workload("protocol-diag", seed=3, seconds=0.2, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["training.dense_bwd.diag.ns_per_row"] > 0
    assert 0 < metrics["data.run_tasks.busy_share"] <= 1.0 + 1e-9
    pids = {span[6] for span in record["spans"]}
    assert 0 in pids and len(pids) > 1


def test_selfcheck_traces_the_oracle_and_the_fd_sweep():
    record = bench.run_workload("selfcheck", seed=3, seconds=0.2, trace=True, tiny=True)
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert metrics["mc_oracle.mc_layer_moments.s"] > 0
    assert metrics["mc_oracle.mc_expected_ll.s"] > 0
    assert metrics["cli._check_gradients.s"] > 0
    # Per step: 8 layer calls on 4-dim inputs and one objective call on 2.
    assert metrics["mc_oracle.bytes_computed"] == pytest.approx(8 * 10**5 * (8 * 4 + 2) / 9)
    assert record["bases"]["trace.span_cost_s"] > 0


def test_self_times_take_the_tracer_cost_off_the_parent():
    # A parent over [0, 10] s with children over [1, 2] and [3, 5], one process.
    spans = [["p", None, 0, 0.0, 10.0, -1, 0, None],
             ["c", None, 0, 1.0, 2.0, 0, 0, None],
             ["c", None, 0, 3.0, 5.0, 0, 0, None]]
    assert list(tracing.self_times(spans, cost=0.5)) == [6.0, 1.0, 2.0]
    assert list(tracing.durations_less_cost(spans, cost=0.5)) == [9.0, 1.0, 2.0]
    assert tracing.span_cost() > 0


def test_forced_output_mismatch_raises_error_rate(monkeypatch):
    original = network.forward

    def skewed(config, params, x):
        mv = original(config, params, x)
        return moments.MomentVector(mv.mean + 1e-6, mv.cov, mv.mode)

    monkeypatch.setattr(network, "forward", skewed)
    record = bench.run_workload("predict-single", seed=3, seconds=0.1, trace=False, tiny=True)
    assert record["failed"] == record["attempted"] > 0
    assert record["error_rate"] == 1.0
    assert bench.result_line(record)["correct"] is False


def test_failed_gradient_check_counts_as_failure(monkeypatch):
    def failing(seed):
        yield "gradient_fd forced", False, "worst rel 1.0"

    monkeypatch.setattr(cli, "_check_gradients", failing)
    record = bench.run_workload("selfcheck", seed=3, seconds=0.1, trace=False, tiny=True)
    assert record["failed"] == record["attempted"] > 0
    assert "gradient_fd forced" in record["failures"][0]


def test_non_finite_loss_counts_as_failure(monkeypatch):
    original = training.train

    def diverging(*args, **kwargs):
        params, trace = original(*args, **kwargs)
        return params, [float("nan")] * len(trace)

    monkeypatch.setattr(training, "train", diverging)
    record = bench.run_workload("train-full", seed=3, seconds=0.1, trace=False, tiny=True)
    assert record["failed"] >= 1
    assert record["error_rate"] > 0


def _run_cli(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_cli_prints_the_result_object_last():
    out = _run_cli(ROOT, "--workload", "predict-single", "--seed", "5", "--seconds", "0.3",
                   "--trace", "0")
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(bench.END_TO_END_UNITS)


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "--workload", "train-full", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
