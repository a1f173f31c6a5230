"""Monte Carlo trial loop with counter-based per-batch random streams.

A run compiles its strategy spec to the exact outcome table once, then cuts
the trial index space into fixed-size batches. Each batch draws its
counts from that table, one multinomial per trial-parity phase, from its
own Philox stream keyed by (seed, batch index), so a run's counts are a
pure function of the configuration and seed: thread count and scheduling
order cannot change a single bit of the result.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    Counts,
    DoubleClickPolicy,
    MeasurementSettings,
    RunSummary,
    SettingPair,
    ValidationError,
    fold_doubles,
)
from .detector import DetectorModel, StepThreshold
from .inequalities import AllZeroCoincidences, marginal_gaps
from .optics import N_STATES, OUTCOME_BY_CODE
from .strategies import StrategySpec, joint_table

__all__ = [
    "BATCH_SIZE",
    "RunConfig",
    "run",
    "merge",
    "ChshStatistics",
    "chsh_statistics",
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
    probabilities: np.ndarray,
    seed: int,
    batch_index: int,
    start: int,
    size: int,
) -> np.ndarray:
    """One batch of trials; returns its (4, 8, 8) counts, laid out as :attr:`Counts.cells`.

    Phase ``p`` of ``probabilities`` covers the trials whose index is ``p``
    modulo the number of phases; each phase's counts are one multinomial
    draw from the batch's stream.
    """
    rng = _batch_rng(seed, batch_index)
    phases = len(probabilities)
    counts = sum(
        rng.multinomial(len(range(start + (p - start) % phases, start + size, phases)), probabilities[p])
        for p in range(phases)
    )
    return counts.reshape(4, N_STATES, N_STATES)


class ChshStatistics(NamedTuple):
    """The post-selected statistics of one outcome array; see :func:`chsh_statistics`."""

    correlations: dict[SettingPair, float]
    s_value: float
    eta_alice: float
    eta_bob: float
    eta_symmetric: float
    se_s: float
    se_eta_symmetric: float


def chsh_statistics(cells) -> ChshStatistics:
    """E per setting pair, S, the conclusive rates and the SEs of S and eta.

    ``cells`` is laid out as :attr:`Counts.cells` and holds counts, or the
    probabilities of a compiled table. E of a setting pair counts its
    coincidences (both parties "+" or "-") only, and S = E00 + E10 + E11 -
    E01. ``eta_alice`` is the share of trials in which Alice is conclusive,
    whatever Bob reports, ``eta_bob`` likewise, and ``eta_symmetric`` the
    square root of the coincidence rate. Raises
    :class:`AllZeroCoincidences` naming the first setting pair with no
    coincidences.
    """
    joint = fold_doubles(cells)
    pp, pm, mp, mm = joint[:, 0, 0], joint[:, 0, 1], joint[:, 1, 0], joint[:, 1, 1]
    coincidences = pp + pm + mp + mm
    for pair, n_pair in zip(SettingPair, coincidences):
        if n_pair == 0:
            raise AllZeroCoincidences(
                f"setting {pair.label} recorded no coincidences; its correlation is undefined"
            )
    e = (pp + mm - pm - mp) / coincidences
    e00, e01, e10, e11 = e.tolist()
    n = joint.sum()
    p_coinc = float(coincidences.sum() / n)
    eta_symmetric = math.sqrt(p_coinc)
    se_eta = (
        math.sqrt(p_coinc * (1.0 - p_coinc) / n) / (2.0 * eta_symmetric)
        if 0.0 < p_coinc < 1.0
        else 0.0
    )
    return ChshStatistics(
        correlations=dict(zip(SettingPair, (e00, e01, e10, e11))),
        s_value=e00 + e10 + e11 - e01,
        eta_alice=float(joint[:, :2, :].sum() / n),
        eta_bob=float(joint[:, :, :2].sum() / n),
        eta_symmetric=eta_symmetric,
        # Left to right in SettingPair order: a pairwise sum could move the last bit.
        se_s=math.sqrt(sum(((1.0 - e * e) / coincidences).tolist())),
        se_eta_symmetric=se_eta,
    )


def _summarize(
    counts: Counts,
    settings: MeasurementSettings,
    policy: DoubleClickPolicy,
    detector: DetectorModel,
    seed: int | None,
    strategy_label: str,
) -> RunSummary:
    return RunSummary(
        counts=counts,
        **chsh_statistics(counts.cells)._asdict(),
        n_trials=counts.total_trials,
        seed=seed,
        strategy_label=strategy_label,
        settings=settings,
        double_click_policy=policy,
        joint_counts=dict(zip(SettingPair, counts.joint)),
        detector_model=detector,
    )


def run(config: RunConfig, workers: int = 1) -> RunSummary:
    """Simulate ``config.n_trials`` trials and summarize the counts.

    ``workers`` only parallelizes batch execution, on at most one thread
    per batch and per CPU; it never changes the result. Identical (config, seed) gives a bit-identical summary.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    probabilities = _cell_probabilities(joint_table(
        config.strategy, config.settings, config.detector_model, config.double_click_policy
    ))
    spans = []
    start = 0
    while start < config.n_trials:
        size = min(BATCH_SIZE, config.n_trials - start)
        spans.append((len(spans), start, size))
        start += size

    def job(span: tuple[int, int, int]) -> np.ndarray:
        return _run_batch(probabilities, config.seed, *span)

    threads = min(workers, len(spans), os.cpu_count() or 1)
    if threads == 1:
        parts = [job(span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(job, spans))
    return _summarize(
        Counts(sum(parts)), config.settings,
        config.double_click_policy, config.detector_model, config.seed, config.strategy.label,
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
    seeds = {s.seed for s in summaries}
    seed = seeds.pop() if len(seeds) == 1 else None
    return _summarize(
        Counts(sum(s.counts.cells for s in summaries)), first.settings, first.double_click_policy,
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
    error vanishes). The worst case is the first largest difference, in
    the order (own setting, party, outcome).
    """
    gap, se, p0, p1 = marginal_gaps(np.stack([tables[pair] for pair in SettingPair]))
    compared = np.nan_to_num(gap)
    worst = np.unravel_index(np.argmax(compared), gap.shape)
    worst_case = "no comparisons made"
    if compared[worst] > 0.0:
        own, party, o = worst
        worst_case = (
            f"{('alice', 'bob')[party]} outcome {OUTCOME_BY_CODE[o].value!r} at own setting {own}: "
            f"|{p0[worst]:.6g} - {p1[worst]:.6g}| = {gap[worst]:.3g} vs {z:g} SE = {z * se[worst]:.3g}"
        )
    return NoSignallingReport(
        max_discrepancy=float(compared[worst]),
        passed=not (gap > z * se).any(),
        worst_case=worst_case,
        z=z,
    )


def empirical_no_signalling(summary: RunSummary, z: float = 4.0) -> NoSignallingReport:
    """Run the no-signalling check on a simulated run's full outcome tables."""
    return no_signalling_from_tables(summary.joint_counts, z)
