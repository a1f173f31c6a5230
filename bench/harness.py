"""Runs one workload for a fixed time, then reports its metrics and checks.

Every run starts with a warm-up pass over the workload's operations: it is
checked and counted like the others, and its times go to the record but
not into the metrics. With tracing off, whole passes then repeat until
the time is up, and the end-to-end metrics are medians over passes. With
tracing on, untraced and traced passes alternate: the traced ones give
the per-layer metrics, the untraced ones the tracing overhead and the
thread scaling; the warm-up pass is traced on its own.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bellsim
import workloads
from tracer import Tracer
from workloads import WORKERS, PassResult

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 11
#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10
#: (metric, layer, span time) reported per batch at each worker count.
BATCH_LAYERS = (
    ("optics.analyze_self_ms", "optics.analyze", "self_ns"),
    ("detector.click_ms", "detector.click", "incl_ns"),
    ("strategies.resolve_self_ms", "strategies.resolve", "self_ns"),
    ("strategies.emit_ms", "strategies.emit", "outer_ns"),
    ("engine.rng_setup_ms", "engine.rng_setup", "incl_ns"),
    ("engine.batch_self_ms", "engine.batch", "self_ns"),
)


def setup_sample(workload) -> float:
    """Seconds from starting a fresh interpreter to the workload's first trial being ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"),
         *map(str, workload.config_paths)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


@dataclass
class Measurement:
    warmup: PassResult
    plain: list[PassResult] = field(default_factory=list)
    traced: list[PassResult] = field(default_factory=list)
    tracer: Tracer | None = None
    warmup_tracer: Tracer | None = None
    setup: list[float] = field(default_factory=list)

    @property
    def passes(self) -> list[PassResult]:
        return [self.warmup, *self.plain, *self.traced]


def _run_pass(workload, tracer: Tracer | None) -> PassResult:
    if tracer is None:
        return workload.run_pass()
    tracer.install()
    try:
        return workload.run_pass(tracer)
    finally:
        tracer.uninstall()


def measure(workload, seconds: float, trace: bool, setup_repeats: int = 0) -> Measurement:
    """The warm-up pass, then whole passes until ``seconds`` are spent.

    The ``setup_repeats`` set-up samples are taken between passes, spread
    evenly over the measuring time, so that they meet the same host load.
    """
    warmup_tracer = Tracer() if trace else None
    m = Measurement(_run_pass(workload, warmup_tracer), tracer=Tracer() if trace else None,
                    warmup_tracer=warmup_tracer)
    start = time.monotonic()
    elapsed = 0.0
    while True:
        due = min(setup_repeats, 1 + int(setup_repeats * elapsed / seconds)) if seconds > 0 else 0
        while len(m.setup) < due:
            m.setup.append(setup_sample(workload))
        m.plain.append(_run_pass(workload, None))
        if m.tracer is not None:
            m.traced.append(_run_pass(workload, m.tracer))
        elapsed = time.monotonic() - start
        if elapsed >= seconds:
            break
    while len(m.setup) < setup_repeats:
        m.setup.append(setup_sample(workload))
    return m


def timing(samples: list[float], unit: str, better: str) -> dict:
    """Median, and the sample with ``TAIL_BEYOND`` worse samples beyond it."""
    ordered = sorted(samples, reverse=better == "higher")
    tail = None
    if len(ordered) > TAIL_BEYOND:
        k = len(ordered) - TAIL_BEYOND - 1
        tail = {"percentile": round(100.0 * (k + 1) / len(ordered), 1), "value": ordered[k]}
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples), "tail": tail}


def end_to_end(m: Measurement) -> dict[str, dict]:
    rate = {w: [p.trials[w] / p.wall[w] / 1e6 for p in m.plain] for w in WORKERS}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "mtrials_per_s_w1": timing(rate[1], "Mtrials/s", "higher"),
        "mtrials_per_s_w2": timing(rate[2], "Mtrials/s", "higher"),
        "pass_s": timing([p.wall[1] for p in m.plain], "s", "lower"),
        "setup_s": timing(m.setup, "s", "lower"),
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB", "samples": 1},
    }


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def batch_layers(totals: dict) -> dict[str, dict]:
    """Milliseconds per batch of each batch-level layer, at each worker count."""
    out = {}
    for w in WORKERS:
        batches = totals.get(("engine.batch", w), {}).get("calls", 0)
        for name, layer, key in BATCH_LAYERS:
            ns = totals.get((layer, w), {}).get(key, 0)
            out[f"{name}_w{w}"] = _metric(_share(ns / 1e6, batches), "ms", batches)
    return out


def per_layer(m: Measurement) -> dict[str, dict]:
    totals = m.tracer.totals()

    def both(layer: str, key: str) -> int:
        return sum(totals.get((layer, w), {}).get(key, 0) for w in WORKERS)

    out = batch_layers(totals)
    w2_batches = totals.get(("engine.batch", 2), {})
    out["engine.busy_frac_w2"] = _metric(
        _share(w2_batches.get("incl_ns", 0) / 1e9, len(WORKERS) * sum(p.wall[2] for p in m.traced)),
        "ratio", w2_batches.get("calls", 0))
    out["engine.scaling_w2"] = _metric(
        statistics.median(p.wall[1] / p.wall[2] for p in m.plain), "ratio", len(m.plain))

    ops = sum(p.attempted for p in m.traced)
    points = sum(p.points for p in m.traced)
    for name, layer, key, den in (
        ("strategies.build_ms", "strategies.build", "incl_ns", ops),
        ("engine.summarize_ms", "engine.summarize", "incl_ns", ops),
        ("analytic.predict_ms", "analytic.predict", "outer_ns", points),
        ("cli.sweep_self_ms", "cli.main", "self_ns", points),
    ):
        out[name] = _metric(_share(both(layer, key) / 1e6, den), "ms", den)

    first = m.plain[0]
    batches = both("engine.batch", "calls")
    traced_trials = sum(p.summary_trials for p in m.traced)
    out["engine.batches"] = _metric(_share(batches, len(m.traced)), "count", len(m.traced))
    out["engine.trials"] = _metric(first.summary_trials, "count", 1)
    out["optics.analyze_calls_per_batch"] = _metric(
        _share(both("optics.analyze", "calls"), batches), "ratio", batches)
    out["detector.click_elems_per_trial"] = _metric(
        _share(both("detector.click", "elems"), traced_trials), "ratio", traced_trials)
    out["engine.coinc_frac"] = _metric(
        _share(first.coincidences, first.summary_trials), "ratio", first.summary_trials)
    out["engine.double_click_frac"] = _metric(
        _share(first.doubles, first.summary_trials), "ratio", first.summary_trials)
    out["inequalities.zero_se_ops"] = _metric(first.zero_se_ops, "count", first.attempted)

    def pass_wall(p: PassResult) -> float:
        return sum(p.wall.values())

    out["trace.overhead_frac"] = _metric(
        statistics.median(map(pass_wall, m.traced)) / statistics.median(map(pass_wall, m.plain)) - 1.0,
        "ratio", len(m.traced))
    return out


def per_operation(passes: list[PassResult]) -> dict[str, dict]:
    """Throughput and minor page faults per trial of each (job or grid, worker count)."""
    rates: dict[str, list[float]] = {}
    faults: dict[str, list[float]] = {}
    for p in passes:
        for label, trials, watch in p.timings:
            rates.setdefault(label, []).append(trials / watch.seconds / 1e6)
            faults.setdefault(label, []).append(watch.faults / trials)
    return {
        label: {**timing(rates[label], "Mtrials/s", "higher"),
                "minor_faults_per_trial": statistics.median(faults[label])}
        for label in rates
    }


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(name: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, seed, workdir)
    workload.prepare()
    m = measure(workload, seconds, trace, setup_repeats=0 if trace else SETUP_REPEATS)

    attempted = sum(p.attempted for p in m.passes)
    failed = sum(p.failed for p in m.passes)
    metrics = per_layer(m) if trace else end_to_end(m)
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "workers": list(WORKERS),
        "bellsim": bellsim.__version__,
        "commit": git_commit(),
        "host": host_facts(),
        "passes": {"warmup": 1, "untraced": len(m.plain), "traced": len(m.traced)},
        "operations": {"attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
                       "problems": [msg for p in m.passes for msg in p.problems][:50]},
        "metrics": metrics,
        "per_operation": per_operation(m.plain),
        "warmup_per_operation": per_operation([m.warmup]),
    }
    if trace:
        record["warmup_layers"] = batch_layers(m.warmup_tracer.totals())
        record["absent_layers"] = m.tracer.absent
        m.tracer.write(workdir / "spans.json")
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0
