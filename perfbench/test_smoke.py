"""Smoke tests for the benchmark at tiny shapes: every workload, the traced
run and every check, in a few seconds, so the harness cannot rot."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from perfbench import bench, run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES) == list(workloads.TINY)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    out = bench.run_workload(workloads.TINY[name], seed=0, seconds=0, trace=False,
                             workdir=str(tmp_path))
    assert out.failures == []
    assert out.attempted > 0
    assert list(out.metrics) == list(bench.END_TO_END)
    assert all(v > 0 for v in out.metrics.values())
    assert os.listdir(tmp_path) == []          # the snapshot is cleaned up


def test_boundary_self_check_fails_on_a_silent_boundary(tmp_path):
    # the vector workload never calls conv2d, so demanding it must fail
    w = dataclasses.replace(workloads.TINY["class_vector_d500"],
                            boundaries=("autodiff.conv2d.calls",))
    out = bench.run_workload(w, seed=0, seconds=0, trace=True, workdir=str(tmp_path))
    assert any("boundary self-check" in f and "autodiff.conv2d.calls" in f
               for f in out.failures)


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    from protoreplay import autodiff, trainer
    before = (autodiff.conv2d, autodiff.Tensor.backward, trainer.encode_batch,
              trainer.train_task)
    bench.run_workload(workloads.TINY["class_vector_d500"], seed=0, seconds=0, trace=True,
                       workdir=str(tmp_path))
    assert (autodiff.conv2d, autodiff.Tensor.backward, trainer.encode_batch,
            trainer.train_task) == before


def test_command_runs_every_workload_traced_in_fresh_processes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--tiny",
         "--seconds", "0", "--trace", "1", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == len(run.WORKLOAD_NAMES)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(tracing.PER_LAYER)
