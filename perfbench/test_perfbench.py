"""Tests of the benchmark itself.

  python3 -m pytest perfbench -q

Count metrics must repeat exactly between two traced runs of one seed, and a
single flipped byte in an output must be counted as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402

import synattn.cli  # noqa: E402
import synattn.pipeline  # noqa: E402

COUNT_SUFFIXES = ("calls", "gflop", "mb_scanned", "mb_drawn", "repeat_frac", "out_mb")


def _workload(name: str, seed: int, workdir: Path):
    if name == "cli-batch":
        # Two prompt pairs instead of twenty keep the test short; the cycle is otherwise the same.
        return workloads.CliWorkload(name, seed, None, workdir, n_pairs=2)
    return workloads.make(name, seed, None, workdir)


def _traced_counts(name: str, workdir: Path) -> dict:
    wl = _workload(name, 1, workdir)
    try:
        res, report = worker.traced_run(name, wl, 1)
    finally:
        wl.close()
    assert res.failed == 0, res.failures
    for metric, unit in bench.spec_metrics(1).items():
        assert report["metrics"][metric][1] == unit
    return {k: v for k, v in report["metrics"].items() if k.rsplit(".", 1)[-1] in COUNT_SUFFIXES}


@pytest.mark.parametrize("name", ["toy-edit", "cli-batch"])
def test_count_metrics_repeat_exactly(name, tmp_path):
    first = _traced_counts(name, tmp_path / "a")
    second = _traced_counts(name, tmp_path / "b")
    assert first == second
    assert first["numerics.matmul.calls"][0] > 0
    assert first["numerics.as_matrix.mb_scanned"][0] > 0
    assert first["backbone.init_backbone.mb_drawn"][0] > 0
    if name == "cli-batch":
        assert first["backbone.init_backbone.repeat_frac"][0] > 0
        assert first["cli.out_mb"][0] > 0
    else:
        assert first["backbone.init_backbone.repeat_frac"][0] == 0


def test_toy_edit_matches_recorded_digest_and_flipped_byte_fails(tmp_path, monkeypatch):
    wl = workloads.make("toy-edit", workloads.REFERENCE_SEED, None, tmp_path)
    clean = workloads.Result()
    wl.run_op(0, clean)
    assert (clean.attempted, clean.failed, clean.digests_checked) == (1, 0, 1)

    original = synattn.pipeline.run_edit

    def flipped(config):
        src, tgt, trace = original(config)
        src = src.copy()
        src.view(np.uint8)[5] ^= 1
        return src, tgt, trace

    monkeypatch.setattr(synattn.pipeline, "run_edit", flipped)
    res = workloads.Result()
    wl.run_op(0, res)
    assert (res.attempted, res.failed) == (1, 1)
    assert "digest" in res.failures[0]


def test_cli_flipped_trace_byte_fails(tmp_path, monkeypatch):
    wl = _workload("cli-batch", 1, tmp_path / "w")
    original = synattn.cli.write_trace
    calls = []

    def flip_first(trace):
        text = original(trace)
        calls.append(1)
        if len(calls) == 1:
            text = text[:-2] + chr(ord(text[-2]) ^ 1) + text[-1]
        return text

    monkeypatch.setattr(synattn.cli, "write_trace", flip_first)
    res = workloads.Result()
    try:
        wl.run_op(0, res)
    finally:
        wl.close()
    assert res.failed >= 1
    assert any("differs between --jobs 1 and --jobs 2" in f for f in res.failures)


def test_gate_check_catches_a_wrong_weight():
    steps = [(2, 1.2, 1.0, [(0.5, 0.6, 0.6 / 0.5)]), (1, 1.1, 0.5, [(0.5, 0.55, 0.55 / 0.5)])]
    errors = workloads.trace_errors(steps, 0.9, 1.0, None)
    assert any("weight_applied" in e for e in errors)
    steps[1] = (1, 0.55 / 0.5, 0.0, [(0.5, 0.55, 0.55 / 0.5)])
    assert workloads.trace_errors(steps, 0.9, 1.0, None) == []


@pytest.mark.parametrize("name", ["toy-edit", "cli-batch"])
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = _workload(name, 1, tmp_path)
    try:
        res, report = worker.timed_run(name, wl, 0.1)
    finally:
        wl.close()
    assert res.attempted >= 1 and res.failed == 0, res.failures
    produced = {**report["metrics"], "setup_s": (0.0, "s")}  # set-up is timed by run.py
    for metric, unit in bench.spec_metrics(0).items():
        assert produced[metric][1] == unit
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
