"""The three workloads, their inputs made from the seed, and the oracle checks.

Every workload uses the standard angles (0, 45, 22.5, 67.5), a step
detector at threshold 1 and the ``discard`` double-click policy, and runs
as a closed loop from one caller.

An operation is one ``bellsim.engine.run`` call, or one grid point of an
in-process ``bellsim.cli.main(["sweep", ...])``. It fails if it raises,
exits non-zero, or misses a check: S and ``eta_symmetric`` within ``Z``
oracle standard errors of the closed form, empirical no-signalling at
``z = Z``, bit-identical joint counts at 1 and 2 workers, and on the eta
grids ``s_analytic == gm_bound(eta)``. The oracles are bound here at
import, before any tracing wrapper exists, so checks never enter a trace.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bellsim.cli
import bellsim.engine
from bellsim.analytic import ab_from_eta, existing_predict, improved_predict, perfect_predict
from bellsim.core import MeasurementSettings, SettingPair
from bellsim.engine import empirical_no_signalling
from bellsim.inequalities import gm_bound
from bellsim.strategies import bell_phi_plus, quantum_correlation

from tracer import Tracer, rebind

ANGLES = (0.0, 45.0, 22.5, 67.5)
SETTINGS = MeasurementSettings.from_degrees(*ANGLES)
WORKERS = (1, 2)
#: Tolerance of every statistical check, in oracle standard errors.
Z = 5.0
#: Efficiency at which the perfect model sits at S = 2*sqrt(2).
ETA_TSIRELSON = 2.0 * (math.sqrt(2.0) - 1.0)
#: The README's improved-model point with S = 2*sqrt(2).
P2_TSIRELSON = 0.2612
ETA_TRUE = 0.9


def derive_seed(seed: int, index: int) -> int:
    """Seed of the workload's ``index``-th input, a pure function of ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


@dataclass(frozen=True)
class Oracle:
    """Exact per-setting correlations and coincidence probability of a run."""

    correlations: dict[SettingPair, float]
    coincidence_prob: float

    @classmethod
    def from_prediction(cls, prediction) -> "Oracle":
        e = prediction.e_per_setting
        return cls(
            {SettingPair.A0B0: e.e00, SettingPair.A0B1: e.e01,
             SettingPair.A1B0: e.e10, SettingPair.A1B1: e.e11},
            prediction.coincidence_prob,
        )

    @classmethod
    def quantum(cls, eta_true: float) -> "Oracle":
        state = bell_phi_plus()
        return cls(
            {pair: quantum_correlation(SETTINGS.alice_angle(pair.alice), SETTINGS.bob_angle(pair.bob), state)
             for pair in SettingPair},
            eta_true * eta_true,
        )

    @property
    def s(self) -> float:
        c = self.correlations
        return c[SettingPair.A0B0] + c[SettingPair.A1B0] + c[SettingPair.A1B1] - c[SettingPair.A0B1]

    def se_s(self, n_trials: int) -> float:
        """SE of S when each setting pair gets a quarter of the trials."""
        coincidences = n_trials / 4.0 * self.coincidence_prob
        return math.sqrt(sum(1.0 - e * e for e in self.correlations.values()) / coincidences)

    def se_eta(self, n_trials: int) -> float:
        p = self.coincidence_prob
        return math.sqrt(p * (1.0 - p) / n_trials) / (2.0 * math.sqrt(p))


def check_statistics(label: str, s: float, eta: float, oracle: Oracle, n_trials: int) -> list[str]:
    """S and eta against the oracle; a zero SE demands equality (to rounding)."""
    problems = []
    for name, value, expected, se in (
        ("S", s, oracle.s, oracle.se_s(n_trials)),
        ("eta", eta, math.sqrt(oracle.coincidence_prob), oracle.se_eta(n_trials)),
    ):
        if not abs(value - expected) <= max(Z * se, 1e-12):
            problems.append(
                f"{label}: {name} = {value:.9g}, oracle {expected:.9g}, "
                f"{(value - expected) / se if se else math.inf:+.2f} SE"
            )
    return problems


def check_summary(label: str, summary, oracle: Oracle, n_trials: int) -> list[str]:
    problems = []
    if summary.n_trials != n_trials:
        problems.append(f"{label}: ran {summary.n_trials} trials, asked for {n_trials}")
    problems += check_statistics(label, summary.s_value, summary.eta_symmetric, oracle, n_trials)
    report = empirical_no_signalling(summary, z=Z)
    if not report.passed:
        problems.append(f"{label}: no-signalling failed: {report.worst_case}")
    return problems


class Stopwatch:
    """Wall time and the process's minor page faults across a block."""

    def __enter__(self) -> "Stopwatch":
        self._faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self._faults


def same_counts(first, second) -> bool:
    return all(np.array_equal(first.joint_counts[p], second.joint_counts[p]) for p in SettingPair)


@dataclass
class PassResult:
    """One pass over a workload's operations: times, outputs and verdicts."""

    wall: dict[int, float] = field(default_factory=lambda: {w: 0.0 for w in WORKERS})
    trials: dict[int, int] = field(default_factory=lambda: {w: 0 for w in WORKERS})
    timings: list[tuple[str, int, Stopwatch]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    points: int = 0
    zero_se_ops: int = 0
    coincidences: int = 0
    doubles: int = 0
    summary_trials: int = 0

    def timed(self, label: str, workers: int, trials: int, watch: Stopwatch) -> None:
        self.wall[workers] += watch.seconds
        self.trials[workers] += trials
        self.timings.append((label, trials, watch))

    def verdict(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def observe(self, summary, oracle: Oracle, reported_se: float) -> None:
        """Counts behind the per-layer ratios, from one operation's output."""
        self.coincidences += summary.counts.total_coincidences
        self.doubles += summary.total_double_events
        self.summary_trials += summary.n_trials
        if reported_se == 0.0 and oracle.se_s(summary.n_trials) > 0.0:
            self.zero_se_ops += 1


def _ini(path: Path, strategy: dict[str, object], trials: int, seed: int) -> Path:
    alpha0, alpha1, beta0, beta1 = ANGLES
    lines = ["[strategy]", *(f"{k} = {v}" for k, v in strategy.items()), "",
             "[settings]", f"alpha0 = {alpha0}", f"alpha1 = {alpha1}",
             f"beta0 = {beta0}", f"beta1 = {beta1}", "",
             "[detector]", "model = step", "i_th = 1.0", "",
             "[engine]", f"trials = {trials}", f"seed = {seed}", "double_click_policy = discard", ""]
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# pulses and tables: engine.run jobs at 1 and 2 workers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    label: str
    strategy: dict[str, object]
    trials: int
    oracle: Oracle


def _perfect(mode: str) -> dict[str, object]:
    a, b, _ = ab_from_eta(ETA_TSIRELSON)
    return {"kind": "perfect", "a": repr(a), "b": repr(b), "mode": mode, "role_reversal": "true"}


def pulse_jobs(trials: int) -> list[Job]:
    e = 1.0 / math.sqrt(2.0)
    a, b, _ = ab_from_eta(ETA_TSIRELSON)
    return [
        Job("existing", {"kind": "existing", "e_target": repr(e)}, trials,
            Oracle.from_prediction(existing_predict(e))),
        Job("improved", {"kind": "improved", "p2": repr(P2_TSIRELSON)}, trials,
            Oracle.from_prediction(improved_predict(P2_TSIRELSON))),
        Job("perfect_physical", _perfect("physical"), trials,
            Oracle.from_prediction(perfect_predict(a, b))),
    ]


def table_jobs(trials: int) -> list[Job]:
    a, b, _ = ab_from_eta(ETA_TSIRELSON)
    return [
        Job("perfect_analytic", _perfect("analytic"), trials,
            Oracle.from_prediction(perfect_predict(a, b))),
        Job("quantum", {"kind": "quantum", "state": "phi_plus", "eta_true": repr(ETA_TRUE)}, trials,
            Oracle.quantum(ETA_TRUE)),
    ]


class JobsWorkload:
    """Each job run through ``bellsim.engine.run`` at every worker count."""

    def __init__(self, jobs: list[Job], seed: int, workdir: Path):
        self.jobs = jobs
        self.config_paths = [
            _ini(workdir / f"{job.label}.ini", job.strategy, job.trials, derive_seed(seed, i))
            for i, job in enumerate(jobs)
        ]
        self.configs: list = []

    def prepare(self) -> None:
        self.configs = [bellsim.cli.build_run_config(bellsim.cli.load_config(p)) for p in self.config_paths]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        result = PassResult()
        for job, config in zip(self.jobs, self.configs):
            first = None
            for workers in WORKERS:
                label = f"{job.label} w{workers}"
                if tracer is not None:
                    tracer.phase = workers
                summary, problems = None, []
                with Stopwatch() as watch:
                    try:
                        summary = bellsim.engine.run(config, workers=workers)
                    except Exception as exc:  # a failed operation is counted, never skipped
                        problems.append(f"{label}: raised {exc!r}")
                result.timed(label, workers, job.trials, watch)
                if summary is not None:
                    problems += check_summary(label, summary, job.oracle, job.trials)
                    result.observe(summary, job.oracle, summary.se_s)
                if workers == WORKERS[0]:
                    first = summary
                elif summary is not None and (first is None or not same_counts(first, summary)):
                    problems.append(f"{label}: joint counts differ from workers={WORKERS[0]}")
                result.verdict(problems)
        return result


# ---------------------------------------------------------------------------
# sweep: in-process CLI sweeps over three grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    label: str
    var: str
    start: float
    stop: float
    steps: int
    strategy: dict[str, object]

    def points(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def oracle(self, x: float) -> Oracle:
        if self.var == "eta":
            a, b, _ = ab_from_eta(x)
            return Oracle.from_prediction(perfect_predict(a, b))
        return Oracle.from_prediction(improved_predict(x))


def sweep_grids(eta_steps: int, p2_steps: int) -> list[Grid]:
    a, b, _ = ab_from_eta(0.667)
    perfect = {"kind": "perfect", "a": repr(a), "b": repr(b), "role_reversal": "true"}
    return [
        Grid("eta_physical", "eta", 0.667, 1.0, eta_steps, {**perfect, "mode": "physical"}),
        Grid("eta_analytic", "eta", 0.667, 1.0, eta_steps, {**perfect, "mode": "analytic"}),
        Grid("p2_improved", "p2", 0.0, 1.0, p2_steps, {"kind": "improved", "p2": "0.0"}),
    ]


class SweepWorkload:
    """Each grid swept by ``bellsim.cli.main`` in-process at every worker count."""

    def __init__(self, grids: list[Grid], trials: int, seed: int, workdir: Path):
        self.grids = grids
        self.trials = trials
        self.workdir = workdir
        self.seeds = [derive_seed(seed, i) for i in range(len(grids))]
        self.config_paths = [
            _ini(workdir / f"{g.label}.ini", g.strategy, trials, s) for g, s in zip(grids, self.seeds)
        ]

    def prepare(self) -> None:
        pass  # the CLI parses its own config on every sweep

    def _sweep(self, grid: Grid, config: Path, seed: int, workers: int):
        out = self.workdir / f"{grid.label}-w{workers}.csv"
        argv = ["sweep", str(config), "--var", grid.var, "--from", repr(grid.start),
                "--to", repr(grid.stop), "--steps", str(grid.steps), "--out", str(out),
                "--trials", str(self.trials), "--seed", str(seed), "--workers", str(workers)]
        captured: list = []
        original = bellsim.engine.run

        def capture(*args, **kwargs):
            summary = original(*args, **kwargs)
            captured.append(summary)
            return summary

        undo = rebind(original, capture)
        error = None
        with Stopwatch() as watch:
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = bellsim.cli.main(argv)
                if code != 0:
                    error = f"exit code {code}"
            except (Exception, SystemExit) as exc:  # a failed sweep fails all its points
                error = f"raised {exc!r}"
        undo()
        rows = []
        if error is None:
            with out.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != grid.steps or len(captured) != grid.steps:
                error = f"{len(rows)} rows and {len(captured)} runs for {grid.steps} points"
        return watch, rows, captured, error

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        result = PassResult()
        for grid, config, seed in zip(self.grids, self.config_paths, self.seeds):
            first = None
            for workers in WORKERS:
                if tracer is not None:
                    tracer.phase = workers
                watch, rows, runs, error = self._sweep(grid, config, seed, workers)
                result.timed(f"{grid.label} w{workers}", workers, grid.steps * self.trials, watch)
                result.points += grid.steps
                for i, x in enumerate(grid.points()):
                    label = f"{grid.label} w{workers} x={x:.6g}"
                    if error is not None:
                        result.verdict([f"{label}: sweep {error}"])
                        continue
                    oracle = grid.oracle(float(x))
                    problems = self._check_point(label, grid, float(x), oracle, rows[i], runs[i])
                    if workers != WORKERS[0] and (
                        first is None or rows[i] != first[0][i] or not same_counts(runs[i], first[1][i])
                    ):
                        problems.append(f"{label}: output differs from workers={WORKERS[0]}")
                    result.observe(runs[i], oracle, float(rows[i]["se_s"]))
                    result.verdict(problems)
                if workers == WORKERS[0] and error is None:
                    first = (rows, runs)
        return result

    def _check_point(self, label: str, grid: Grid, x: float, oracle: Oracle, row: dict, summary) -> list[str]:
        problems = check_statistics(label, float(row["s_mc"]), float(row["eta_mc"]), oracle, self.trials)
        if abs(float(row["s_mc"]) - summary.s_value) > 1e-9:
            problems.append(f"{label}: CSV S {row['s_mc']} is not the run's {summary.s_value!r}")
        if abs(float(row["x"]) - x) > 1e-9:
            problems.append(f"{label}: CSV x {row['x']} is not the grid's {x!r}")
        if grid.var == "eta" and abs(float(row["s_analytic"]) - gm_bound(x)) > 1e-9:
            problems.append(f"{label}: s_analytic {row['s_analytic']} != gm_bound {gm_bound(x)!r}")
        report = empirical_no_signalling(summary, z=Z)
        if not report.passed:
            problems.append(f"{label}: no-signalling failed: {report.worst_case}")
        return problems


def build(name: str, seed: int, workdir: Path, tiny: bool = False):
    """The named workload with inputs from ``seed``; ``tiny`` shrinks it for self-tests."""
    if name == "pulses":
        return JobsWorkload(pulse_jobs(1 << 14 if tiny else 1 << 21), seed, workdir)
    if name == "tables":
        return JobsWorkload(table_jobs(1 << 14 if tiny else 1 << 22), seed, workdir)
    if name == "sweep":
        grids = sweep_grids(4, 3) if tiny else sweep_grids(68, 101)
        return SweepWorkload(grids, 1024 if tiny else 4096, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
