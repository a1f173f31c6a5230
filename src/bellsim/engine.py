"""Monte Carlo trial loop with counter-based per-batch random streams.

A run compiles its strategy to the exact outcome table once, then cuts
the trial index space into fixed-size batches. Each batch draws its
counts from that table, one multinomial per trial-parity phase, from its
own Philox stream keyed by (seed, batch index), so a run's counts are a
pure function of the configuration and seed: thread count and scheduling
order cannot change a single bit of the result.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    CoincidenceCounts,
    DoubleClickPolicy,
    MeasurementSettings,
    RunSummary,
    SettingPair,
    SettingTally,
    ValidationError,
)
from .detector import DetectorModel, StepThreshold
from .inequalities import AllZeroCoincidences, correlation_from_counts
from .optics import OUTCOME_BY_CODE
from .strategies import StationConfig, StrategySpec, build_strategy

__all__ = [
    "BATCH_SIZE",
    "RunConfig",
    "run",
    "merge",
    "NoSignallingReport",
    "no_signalling_from_tables",
    "empirical_no_signalling",
]

#: Trials per batch; fixed so the batch partition depends only on n_trials.
BATCH_SIZE = 1 << 16

#: Seeds are the 64-bit entropy of each batch's stream: [0, 2**64).
_SEED_LIMIT = 1 << 64


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Everything that determines a run's statistics, seed included."""

    strategy: StrategySpec
    settings: MeasurementSettings
    n_trials: int
    seed: int
    double_click_policy: DoubleClickPolicy = DoubleClickPolicy.DISCARD
    detector_model: DetectorModel = StepThreshold()

    def __post_init__(self) -> None:
        if not isinstance(self.n_trials, int) or isinstance(self.n_trials, bool) or self.n_trials < 1:
            raise ValidationError(f"n_trials must be a positive integer, got {self.n_trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValidationError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValidationError(f"seed must lie in [0, 2**64), got {self.seed!r}")


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Generator(np.random.Philox(sequence))


def _cell_probabilities(table: np.ndarray) -> np.ndarray:
    """Per phase, the probabilities of the 256 (setting, Alice, Bob) cells.

    Each setting pair is drawn with probability 1/4. Renormalized because
    ``multinomial`` rejects probabilities that sum to just above 1.
    """
    cells = 0.25 * table.reshape(len(table), -1)
    return cells / cells.sum(axis=1, keepdims=True)


def _run_batch(
    cells: np.ndarray,
    seed: int,
    batch_index: int,
    start: int,
    size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of trials; returns (joint outcome counts, double-trial counts).

    Phase ``p`` of ``cells`` covers the trials whose index is ``p`` modulo
    the number of phases; each phase's counts are one multinomial draw
    from the batch's stream.
    """
    rng = _batch_rng(seed, batch_index)
    phases = len(cells)
    counts = sum(
        rng.multinomial(len(range(start + (p - start) % phases, start + size, phases)), cells[p])
        for p in range(phases)
    )
    # Axes: setting, Alice double, Alice code, Bob double, Bob code.
    counts = counts.reshape(4, 2, 4, 2, 4)
    joint = counts.sum(axis=(1, 3))
    doubles = joint.sum(axis=(1, 2)) - counts[:, 0, :, 0, :].sum(axis=(1, 2))
    return joint, doubles


def _tally_from_table(
    table: np.ndarray, n_double_events: int, policy: DoubleClickPolicy
) -> SettingTally:
    excluded = policy is DoubleClickPolicy.FLAG
    return SettingTally(
        n_pp=int(table[0, 0]),
        n_pm=int(table[0, 1]),
        n_mp=int(table[1, 0]),
        n_mm=int(table[1, 1]),
        n_alice_only=int(table[0, 2] + table[1, 2]),
        n_bob_only=int(table[2, 0] + table[2, 1]),
        n_neither=int(table[2, 2]),
        n_trials=int(table.sum()),
        n_double_events=int(n_double_events),
        doubles_excluded=excluded,
    )


def _summarize(
    joint: Mapping[SettingPair, np.ndarray],
    doubles: Mapping[SettingPair, int],
    settings: MeasurementSettings,
    policy: DoubleClickPolicy,
    detector: DetectorModel,
    seed: int | None,
    strategy_label: str,
) -> RunSummary:
    tallies: dict[SettingPair, SettingTally] = {}
    correlations: dict[SettingPair, float] = {}
    variance_s = 0.0
    for pair in SettingPair:
        tally = _tally_from_table(joint[pair], doubles[pair], policy)
        tallies[pair] = tally
        if tally.n_coincidences == 0:
            raise AllZeroCoincidences(
                f"setting {pair.label} recorded no coincidences; its correlation is undefined"
            )
        e = correlation_from_counts(tally.n_pp, tally.n_pm, tally.n_mp, tally.n_mm)
        correlations[pair] = e
        variance_s += (1.0 - e * e) / tally.n_coincidences

    n_trials = sum(t.n_trials for t in tallies.values())
    s_value = (
        correlations[SettingPair.A0B0]
        + correlations[SettingPair.A1B0]
        + correlations[SettingPair.A1B1]
        - correlations[SettingPair.A0B1]
    )
    n_coinc = sum(t.n_coincidences for t in tallies.values())
    p_coinc = n_coinc / n_trials
    eta_symmetric = math.sqrt(p_coinc)
    se_eta = (
        math.sqrt(p_coinc * (1.0 - p_coinc) / n_trials) / (2.0 * eta_symmetric)
        if 0.0 < p_coinc < 1.0
        else 0.0
    )
    return RunSummary(
        counts=CoincidenceCounts(tallies),
        correlations=correlations,
        s_value=s_value,
        eta_alice=sum(t.n_alice_conclusive for t in tallies.values()) / n_trials,
        eta_bob=sum(t.n_bob_conclusive for t in tallies.values()) / n_trials,
        eta_symmetric=eta_symmetric,
        se_s=math.sqrt(variance_s),
        se_eta_symmetric=se_eta,
        n_trials=n_trials,
        seed=seed,
        strategy_label=strategy_label,
        settings=settings,
        double_click_policy=policy,
        joint_counts={pair: joint[pair].copy() for pair in SettingPair},
        detector_model=detector,
    )


def run(config: RunConfig, workers: int = 1) -> RunSummary:
    """Simulate ``config.n_trials`` trials and summarize the counts.

    ``workers`` only parallelizes batch execution; it never changes the
    result. Identical (config, seed) gives a bit-identical summary.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    strategy = build_strategy(config.strategy, config.settings)
    stations = StationConfig.from_settings(
        config.settings, config.detector_model, config.double_click_policy
    )
    cells = _cell_probabilities(strategy.joint_table(stations))
    spans = []
    start = 0
    while start < config.n_trials:
        size = min(BATCH_SIZE, config.n_trials - start)
        spans.append((len(spans), start, size))
        start += size

    def job(span: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
        return _run_batch(cells, config.seed, *span)

    if workers == 1 or len(spans) == 1:
        parts = [job(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, spans))

    joint_total = np.zeros((4, 4, 4), dtype=np.int64)
    doubles_total = np.zeros(4, dtype=np.int64)
    for joint, doubles in parts:
        joint_total += joint
        doubles_total += doubles

    joint_by_pair = {
        SettingPair.from_indices(i >> 1, i & 1): joint_total[i] for i in range(4)
    }
    doubles_by_pair = {
        SettingPair.from_indices(i >> 1, i & 1): int(doubles_total[i]) for i in range(4)
    }
    return _summarize(
        joint_by_pair, doubles_by_pair, config.settings,
        config.double_click_policy, config.detector_model, config.seed, strategy.label,
    )


def merge(summaries: Sequence[RunSummary]) -> RunSummary:
    """Combine runs that differ only by seed, recomputing all statistics.

    Counts add component-wise, so the merge is associative and commutative.
    The merged seed is kept only if every input used the same one.
    """
    if not summaries:
        raise ValidationError("nothing to merge")
    first = summaries[0]
    for other in summaries[1:]:
        if other.strategy_label != first.strategy_label:
            raise ValidationError(
                f"cannot merge different strategies: {other.strategy_label!r} vs {first.strategy_label!r}"
            )
        if other.settings != first.settings:
            raise ValidationError("cannot merge runs with different measurement settings")
        if other.double_click_policy is not first.double_click_policy:
            raise ValidationError("cannot merge runs with different double-click policies")
        if other.detector_model != first.detector_model:
            raise ValidationError(
                f"cannot merge runs with different detectors: {other.detector_model!r} "
                f"vs {first.detector_model!r}"
            )
    joint = {
        pair: sum(s.joint_counts[pair] for s in summaries)
        for pair in SettingPair
    }
    doubles = {
        pair: sum(s.counts[pair].n_double_events for s in summaries)
        for pair in SettingPair
    }
    seeds = {s.seed for s in summaries}
    seed = seeds.pop() if len(seeds) == 1 else None
    return _summarize(
        joint, doubles, first.settings, first.double_click_policy,
        first.detector_model, seed, first.strategy_label,
    )


@dataclass(frozen=True)
class NoSignallingReport:
    """Outcome of the empirical cross-setting marginal comparison."""

    max_discrepancy: float
    passed: bool
    worst_case: str
    z: float


def no_signalling_from_tables(
    tables: Mapping[SettingPair, np.ndarray], z: float = 4.0
) -> NoSignallingReport:
    """Check that each party's outcome marginals ignore the remote setting.

    For every party, own setting and outcome, compares the conditional
    frequency under the two remote settings; passes when every difference
    stays within ``z`` standard errors (exact equality where the standard
    error vanishes).
    """
    worst = 0.0
    worst_case = "no comparisons made"
    passed = True
    comparisons: list[tuple[str, int, np.ndarray, np.ndarray]] = []
    for own in (0, 1):
        a0 = tables[SettingPair.from_indices(own, 0)]
        a1 = tables[SettingPair.from_indices(own, 1)]
        comparisons.append(("alice", own, a0.sum(axis=1), a1.sum(axis=1)))
        b0 = tables[SettingPair.from_indices(0, own)]
        b1 = tables[SettingPair.from_indices(1, own)]
        comparisons.append(("bob", own, b0.sum(axis=0), b1.sum(axis=0)))
    for party, own, c0, c1 in comparisons:
        n0, n1 = int(c0.sum()), int(c1.sum())
        if n0 == 0 or n1 == 0:
            continue
        p0 = c0 / n0
        p1 = c1 / n1
        for o in range(4):
            diff = abs(float(p0[o] - p1[o]))
            se = math.sqrt(p0[o] * (1 - p0[o]) / n0 + p1[o] * (1 - p1[o]) / n1)
            if diff > worst:
                worst = diff
                worst_case = (
                    f"{party} outcome {OUTCOME_BY_CODE[o].value!r} at own setting {own}: "
                    f"|{p0[o]:.6g} - {p1[o]:.6g}| = {diff:.3g} vs {z:g} SE = {z * se:.3g}"
                )
            if diff > z * se:
                passed = False
    return NoSignallingReport(max_discrepancy=worst, passed=passed, worst_case=worst_case, z=z)


def empirical_no_signalling(summary: RunSummary, z: float = 4.0) -> NoSignallingReport:
    """Run the no-signalling check on a simulated run's full outcome tables."""
    return no_signalling_from_tables(summary.joint_counts, z)
