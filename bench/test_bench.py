"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_source_tree()

import bellsim.engine  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from bellsim.core import SettingPair  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["pulses", "tables", "sweep"])
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    workload = workloads.build(name, 3, tmp_path, tiny=True)
    workload.prepare()
    m = harness.measure(workload, 0.0, trace, setup_repeats=1)
    assert sum(p.failed for p in m.passes) == 0, [msg for p in m.passes for msg in p.problems]
    metrics = harness.per_layer(m) if trace else harness.end_to_end(m)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(spec["name"] for spec in expected)
    for spec in expected:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"]
        assert math.isfinite(got["value"]), spec["name"]
    if trace:
        assert m.tracer.absent == []


def _pulses_with_fake_run(tmp_path, monkeypatch, alter):
    """One tiny pulses pass in which ``alter(summary, workers, oracle)`` edits every output."""
    workload = workloads.build("pulses", 4, tmp_path, tiny=True)
    workload.prepare()
    oracles = {id(config): job.oracle for job, config in zip(workload.jobs, workload.configs)}
    real_run = bellsim.engine.run

    def fake_run(config, workers=1):
        return alter(real_run(config, workers=workers), workers, oracles[id(config)])

    monkeypatch.setattr(bellsim.engine, "run", fake_run)
    return workload.run_pass()


def test_shifted_s_is_a_failure(tmp_path, monkeypatch):
    def shift(summary, workers, oracle):
        return dataclasses.replace(summary, s_value=summary.s_value + 10.0 * oracle.se_s(summary.n_trials))

    result = _pulses_with_fake_run(tmp_path, monkeypatch, shift)
    assert (result.attempted, result.failed) == (6, 6)
    assert all(": S = " in m for m in result.problems)


def test_worker_count_mismatch_is_a_failure(tmp_path, monkeypatch):
    def move_one_count(summary, workers, oracle):
        if workers == 1:
            return summary
        counts = {pair: table.copy() for pair, table in summary.joint_counts.items()}
        counts[SettingPair.A0B0][0, 0] -= 1
        counts[SettingPair.A0B0][1, 1] += 1
        return dataclasses.replace(summary, joint_counts=counts)

    result = _pulses_with_fake_run(tmp_path, monkeypatch, move_one_count)
    assert (result.attempted, result.failed) == (6, 3)
    assert all("joint counts differ" in m for m in result.problems)


def test_missing_trace_target_is_absent(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (
        ("optics.gone", "bellsim.optics", "no_such_function"),
        ("strategies.gone", "bellsim.strategies", "*.no_such_method"),
    ))
    trace = tracer.Tracer()
    trace.install()
    try:
        assert trace.absent == ["bellsim.optics.no_such_function", "bellsim.strategies.*.no_such_method"]
    finally:
        trace.uninstall()
    assert not hasattr(bellsim.engine.run, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pulses", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
