"""Monte Carlo trial loop with counter-based per-batch random streams.

A run compiles its strategy spec to the exact outcome table once, then cuts
the trial index space into fixed-size batches. Each batch draws its counts
from that table, one multinomial per trial-parity phase over the cells the
table reaches and the last, from one Philox generator re-keyed to (seed,
batch index): the stream of a new generator per batch over all 256 cells,
as numpy's ``multinomial`` draws nothing for a zero-probability cell and
gives the remainder to the last (``tests/test_engine.py::TestStreamIdentities``).
The batches run in index order in the calling thread, so a run's counts are
a pure function of the configuration and seed. :func:`run` validates its
``workers`` argument but starts no thread, so the count has no effect.
"""
from __future__ import annotations

import math
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
from .optics import N_STATES
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
#: A multiple of the phase count (1 or 2), so every batch starts at phase 0.
BATCH_SIZE = 1 << 16

#: Seeds are the 64-bit entropy of each batch's stream: [0, 2**64).
_SEED_LIMIT = 1 << 64

_ZERO4 = np.zeros(4, np.uint64)

_PAIRS = tuple(SettingPair)


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


def _batch_rng(seed: int, batch_index: int, rng: np.random.Generator | None = None) -> np.random.Generator:
    """Batch ``batch_index``'s Philox stream: a new generator, or ``rng`` re-keyed with all else as new."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    if rng is None:
        return np.random.Generator(np.random.Philox(sequence))
    key = sequence.generate_state(2, np.uint64)
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
                               "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _cell_probabilities(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (setting, Alice, Bob) cells some phase reaches, and the last; per phase their probabilities.

    Renormalized because ``multinomial`` rejects probabilities that sum to just above 1;
    this also applies each setting pair's probability 1/4, a power of two, exactly.
    """
    cells = table.reshape(len(table), -1)
    probabilities = cells / cells.sum(axis=1, keepdims=True)
    reachable = probabilities.any(axis=0)
    reachable[-1] = True
    support = reachable.nonzero()[0]
    return support, probabilities.take(support, axis=1)


def _run_batch(probabilities, seed: int, batch_index: int, size: int, counts, rng=None) -> np.random.Generator:
    """Add one batch of trials to ``counts``; returns its generator, for the next batch to re-key.

    Phase ``p`` of ``probabilities`` draws the trials whose index is ``p`` modulo the phase count.
    """
    rng = _batch_rng(seed, batch_index, rng)
    for p, row in enumerate(probabilities):
        counts += rng.multinomial(len(range(p, size, len(probabilities))), row)
    return rng


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
    rows = fold_doubles(cells).reshape(4, 16).tolist()
    return _statistics(rows, sum(map(sum, rows)))


def _statistics(rows: list[list], n) -> ChshStatistics:
    """:func:`chsh_statistics` of folded ``rows[k][4 * a + b]`` summing to ``n``; codes +-?D are pmqd."""
    correlations, coincidences = [], []
    alice = bob = 0
    for pair, (pp, pm, pq, pd, mp, mm, mq, md, qp, qm, _, _, dp, dm, _, _) in zip(_PAIRS, rows):
        c = pp + pm + mp + mm
        if c == 0:
            raise AllZeroCoincidences(
                f"setting {pair.label} recorded no coincidences; its correlation is undefined"
            )
        correlations.append((pp + mm - pm - mp) / c)
        coincidences.append(c)
        alice += c + pq + pd + mq + md
        bob += c + qp + qm + dp + dm
    e00, e01, e10, e11 = correlations
    p_coinc = sum(coincidences) / n
    eta_symmetric = math.sqrt(p_coinc)
    se_eta = (
        math.sqrt(p_coinc * (1.0 - p_coinc) / n) / (2.0 * eta_symmetric)
        if 0.0 < p_coinc < 1.0
        else 0.0
    )
    return ChshStatistics(
        correlations=dict(zip(_PAIRS, correlations)),
        s_value=e00 + e10 + e11 - e01,
        eta_alice=alice / n,
        eta_bob=bob / n,
        eta_symmetric=eta_symmetric,
        # Left to right in SettingPair order: a pairwise sum could move the last bit.
        se_s=math.sqrt(sum((1.0 - e * e) / c for e, c in zip(correlations, coincidences))),
        se_eta_symmetric=se_eta,
    )


def _summarize(
    counts: Counts,
    settings: MeasurementSettings,
    policy: DoubleClickPolicy,
    detector: DetectorModel,
    seed: int | None,
    spec: StrategySpec,
) -> RunSummary:
    joint = fold_doubles(counts.cells)
    rows = joint.reshape(4, 16).tolist()
    n_trials = sum(map(sum, rows))
    return RunSummary._fresh(
        counts=counts,
        **_statistics(rows, n_trials)._asdict(),
        n_trials=n_trials,
        seed=seed,
        spec=spec,
        settings=settings,
        double_click_policy=policy,
        joint_counts=dict(zip(_PAIRS, joint)),
        detector_model=detector,
    )


def _check_workers(workers) -> None:
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")


def run(config: RunConfig, workers: int = 1) -> RunSummary:
    """Simulate ``config.n_trials`` trials and summarize the counts.

    The batches run in index order in the calling thread, each over the reachable
    cells from one re-keyed generator, which keeps the stream of a new generator
    over all 256. ``workers`` is validated, a positive int, but has no effect.
    Identical (config, seed) gives a bit-identical summary.
    """
    _check_workers(workers)
    support, probabilities = _cell_probabilities(joint_table(
        config.strategy, config.settings, config.detector_model, config.double_click_policy
    ))
    counts, rng, n = np.zeros(len(support), np.int64), None, config.n_trials
    for i, start in enumerate(range(0, n, BATCH_SIZE)):
        rng = _run_batch(probabilities, config.seed, i, min(BATCH_SIZE, n - start), counts, rng)
    cells = np.zeros(4 * N_STATES * N_STATES, np.int64)
    cells[support] = counts
    return _summarize(
        Counts._fresh(cells.reshape(4, N_STATES, N_STATES)), config.settings,
        config.double_click_policy, config.detector_model, config.seed, config.strategy,
    )


def merge(summaries: Sequence[RunSummary]) -> RunSummary:
    """Combine runs that differ only by seed, recomputing all statistics.

    Runs merge only if their specs, settings, policies and detectors are
    equal. Counts add component-wise, so the merge is associative and
    commutative. The merged seed is kept only if every input used the same one.
    """
    if not summaries:
        raise ValidationError("nothing to merge")
    first = summaries[0]
    for other in summaries[1:]:
        for field, noun in (
            ("spec", "strategies"),
            ("settings", "measurement settings"),
            ("double_click_policy", "double-click policies"),
            ("detector_model", "detectors"),
        ):
            mine, theirs = getattr(other, field), getattr(first, field)
            if mine != theirs:
                raise ValidationError(f"cannot merge runs with different {noun}: {mine!r} vs {theirs!r}")
    seeds = {s.seed for s in summaries}
    seed = seeds.pop() if len(seeds) == 1 else None
    return _summarize(
        Counts(sum(s.counts.cells for s in summaries)), first.settings, first.double_click_policy,
        first.detector_model, seed, first.spec,
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
            f"{('alice', 'bob')[party]} outcome {'+-?D'[o]!r} at own setting {own}: "
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
