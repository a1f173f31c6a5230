import dataclasses
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, example, given, settings as hyp_settings, strategies as st
from hypothesis.extra.numpy import arrays

from bellsim import (
    ExistingModelSpec,
    ImprovedModelSpec,
    MeasurementSettings,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    RunConfig,
    SettingPair,
    bell_phi_plus,
    empirical_no_signalling,
    merge,
    run,
)
from bellsim.core import Counts, DoubleClickPolicy, ValidationError, fold_doubles
from bellsim.detector import StepThreshold
import bellsim.engine
from bellsim.engine import BATCH_SIZE, _batch_rng, chsh_statistics, no_signalling_from_tables
from bellsim.inequalities import AllZeroCoincidences, correlation_from_counts

from oracles import synthetic_blinded_response

SQRT2 = math.sqrt(2.0)
A_THRESHOLD = 12.0 * SQRT2 - 16.0
B_THRESHOLD = 40.0 - 28.0 * SQRT2
SETTINGS = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)


def perfect_config(settings, n_trials=200_000, seed=1, **spec_kwargs):
    spec = PerfectModelSpec(A_THRESHOLD, B_THRESHOLD, **spec_kwargs)
    return RunConfig(strategy=spec, settings=settings, n_trials=n_trials, seed=seed)


def summaries_identical(a, b):
    if a.s_value != b.s_value or a.correlations != b.correlations:
        return False
    if (a.eta_alice, a.eta_bob, a.eta_symmetric) != (b.eta_alice, b.eta_bob, b.eta_symmetric):
        return False
    return all(np.array_equal(a.joint_counts[p], b.joint_counts[p]) for p in SettingPair)


class TestRunConfig:
    def test_requires_positive_trials(self, standard_settings):
        with pytest.raises(ValidationError):
            RunConfig(strategy=ExistingModelSpec(0.5), settings=standard_settings,
                      n_trials=0, seed=1)

    def test_requires_integer_seed(self, standard_settings):
        with pytest.raises(ValidationError):
            RunConfig(strategy=ExistingModelSpec(0.5), settings=standard_settings,
                      n_trials=10, seed=1.5)

    @pytest.mark.parametrize("workers", [0, -1, 1.0, True, False, None])
    def test_run_requires_positive_int_workers(self, standard_settings, workers):
        config = RunConfig(strategy=ExistingModelSpec(0.5), settings=standard_settings,
                           n_trials=10, seed=1)
        with pytest.raises(ValidationError, match="workers"):
            run(config, workers=workers)


SEED_LIMIT = 2**64


def seeded(seed):
    return RunConfig(strategy=ExistingModelSpec(0.5), settings=SETTINGS, n_trials=10, seed=seed)


class TestSeedDomain:
    @hyp_settings(deadline=None)
    @given(st.integers(0, SEED_LIMIT - 1))
    def test_every_64_bit_seed_is_accepted(self, seed):
        assert seeded(seed).seed == seed

    @hyp_settings(deadline=None)
    @given(st.one_of(st.integers(max_value=-1), st.integers(min_value=SEED_LIMIT)))
    def test_seeds_outside_64_bits_are_rejected(self, seed):
        with pytest.raises(ValidationError, match="2\\*\\*64"):
            seeded(seed)

    def test_domain_edges(self):
        for seed in (0, SEED_LIMIT - 1):
            seeded(seed)
        for seed in (-1, SEED_LIMIT, SEED_LIMIT + 1):
            with pytest.raises(ValidationError):
                seeded(seed)

    @hyp_settings(deadline=None)
    @given(st.integers(0, SEED_LIMIT - 1), st.integers(0, SEED_LIMIT - 1), st.integers(0, 1000))
    def test_distinct_seeds_give_distinct_streams(self, first, second, batch):
        if first == second:
            return
        draw = [_batch_rng(seed, batch).integers(0, 2**63, size=2) for seed in (first, second)]
        assert not np.array_equal(*draw)


class TestReproducibility:
    def test_same_seed_same_summary(self, standard_settings):
        config = perfect_config(standard_settings, n_trials=150_000, seed=5)
        assert summaries_identical(run(config), run(config))

    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_worker_count_does_not_change_results(self, standard_settings, workers):
        config = perfect_config(standard_settings, n_trials=3 * BATCH_SIZE + 123, seed=6)
        assert summaries_identical(run(config, workers=1), run(config, workers=workers))

    def test_different_seeds_differ(self, standard_settings):
        a = run(perfect_config(standard_settings, n_trials=50_000, seed=7))
        b = run(perfect_config(standard_settings, n_trials=50_000, seed=8))
        assert not summaries_identical(a, b)

    def test_seed_recorded(self, standard_settings):
        assert run(perfect_config(standard_settings, n_trials=1000, seed=99)).seed == 99


SUBNORMALS = (5e-324, 1e-310, 2.2250738585072014e-308 / 2)


@st.composite
def sparse_tables(draw):
    """Cell weights of shape (phases, 256), each phase reaching a few cells, some with subnormal weight."""
    weights = st.one_of(st.floats(1e-9, 1.0), st.sampled_from(SUBNORMALS))
    table = np.zeros((draw(st.integers(1, 2)), 256))
    for row in table:
        cells = draw(st.lists(st.integers(0, 255), min_size=1, max_size=40, unique=True))
        row[cells] = draw(st.lists(weights, min_size=len(cells), max_size=len(cells)))
    return table


def table_reaching(*cells_per_phase, weights=None):
    """Cell weights with one phase per argument, each reaching the cells it lists (weight 1 by default)."""
    table = np.zeros((len(cells_per_phase), 256))
    for row, cells in zip(table, cells_per_phase):
        row[list(cells)] = 1.0 if weights is None else weights
    return table


class TestStreamIdentities:
    """The two numpy behaviours ``engine.run`` relies on to keep each batch's stream.

    A multinomial draw over the cells a table reaches, and its last cell, counts and
    leaves the stream as one over all 256; a re-keyed Philox generator draws as a new one.
    """

    @hyp_settings(deadline=None, max_examples=200)
    @given(sparse_tables(), st.integers(1, 2**40), st.integers(0, SEED_LIMIT - 1), st.integers(0, 2**20))
    @example(table_reaching([17]), 2**40, 0, 0)  # a single reachable cell
    @example(table_reaching([3, 200, 255]), 1000, 1, 2)  # a positive last cell
    @example(table_reaching([255]), 5, 2, 0)  # the last cell alone
    @example(table_reaching([4, 9, 250], weights=[0.5, 5e-324, 1e-310]), 2**40, 3, 1)  # subnormal cells
    @example(table_reaching(range(0, 6), range(100, 111)), 2**40 + 1, SEED_LIMIT - 1, 2**20)  # disjoint phases
    def test_support_draw_counts_and_consumes_as_the_full_draw(self, table, size, seed, batch):
        support, probabilities = bellsim.engine._cell_probabilities(table)
        full = table / table.sum(axis=1, keepdims=True)
        assert np.array_equal(probabilities, full[:, support])
        assert not np.delete(full, support, axis=1).any()
        counts, full_counts = np.zeros(len(support), np.int64), np.zeros(256, np.int64)
        rng = bellsim.engine._run_batch(probabilities, seed, batch, size, counts)
        full_rng = bellsim.engine._run_batch(full, seed, batch, size, full_counts)
        cells = np.zeros(256, np.int64)
        cells[support] = counts
        assert np.array_equal(cells, full_counts)
        assert cells.sum() == size
        assert rng.integers(2**63) == full_rng.integers(2**63)

    @pytest.mark.parametrize("seed", [0, SEED_LIMIT - 1])
    @pytest.mark.parametrize("batch", [0, 1, 2**20])
    def test_rekeyed_generator_draws_as_a_new_one(self, seed, batch):
        used = _batch_rng(12345, 7)
        used.integers(0, 2**32, size=3, dtype=np.uint32)
        state = used.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4  # a spare uint32 and a part-used buffer
        rekeyed, new = _batch_rng(seed, batch, used), _batch_rng(seed, batch)
        assert rekeyed is used
        for draw in (
            lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
            lambda g: g.random(5),
            lambda g: g.multinomial(10**6, [0.25, 0.0, 0.5, 0.25]),
        ):
            assert np.array_equal(draw(rekeyed), draw(new))


@pytest.fixture(scope="module")
def summary():
    return run(RunConfig(
        strategy=ImprovedModelSpec.for_settings(0.4, SETTINGS),
        settings=SETTINGS, n_trials=400_000, seed=9,
    ))


@pytest.fixture(scope="module")
def noisy_config():
    # Full-intensity mismatches on the bundled curve fire each arm with
    # probability 0.40, so double clicks actually occur.
    return RunConfig(
        strategy=ExistingModelSpec(1.0 / SQRT2), settings=SETTINGS,
        n_trials=120_000, seed=10, detector_model=synthetic_blinded_response(),
    )


class TestConservationAndBalance:
    def test_trials_partitioned(self, summary):
        counts = summary.counts
        assert counts.total_trials == summary.n_trials
        for pair, cells, joint in zip(SettingPair, counts.cells, counts.joint):
            assert cells.sum() == joint.sum() == summary.joint_counts[pair].sum()

    def test_setting_balance(self, summary):
        n = summary.n_trials
        bound = 4.0 * math.sqrt(n * 3.0 / 16.0)
        for per_setting in summary.counts.cells.sum(axis=(1, 2)):
            assert abs(per_setting - n / 4.0) <= bound

    def test_analytic_agreement_at_moderate_size(self, summary):
        from bellsim import improved_predict

        prediction = improved_predict(0.4)
        assert abs(summary.s_value - prediction.s) <= 5.0 * summary.se_s
        assert abs(summary.eta_symmetric - prediction.eta) <= 5.0 * summary.se_eta_symmetric


def scalar_statistics(cells):
    """The statistics of a (4, 8, 8) count array, one setting pair at a time."""
    correlations, variance_s = [], 0.0
    n_trials = n_coincidences = n_alice = n_bob = 0
    for t in cells.reshape(4, 2, 4, 2, 4).sum(axis=(1, 3)).tolist():
        n_pp, n_pm, n_mp, n_mm = t[0][0], t[0][1], t[1][0], t[1][1]
        coincidences = n_pp + n_pm + n_mp + n_mm
        e = correlation_from_counts(n_pp, n_pm, n_mp, n_mm)
        correlations.append(e)
        variance_s += (1.0 - e * e) / coincidences
        n_trials += sum(map(sum, t))
        n_coincidences += coincidences
        n_alice += sum(t[0]) + sum(t[1])
        n_bob += sum(row[0] + row[1] for row in t)
    e00, e01, e10, e11 = correlations
    p = n_coincidences / n_trials
    se_eta = math.sqrt(p * (1.0 - p) / n_trials) / (2.0 * math.sqrt(p)) if 0.0 < p < 1.0 else 0.0
    return (tuple(correlations), e00 + e10 + e11 - e01, n_alice / n_trials, n_bob / n_trials,
            math.sqrt(p), math.sqrt(variance_s), se_eta)


class TestChshStatistics:
    @hyp_settings(deadline=None)
    @given(arrays(np.int64, (4, 8, 8), elements=st.integers(0, 10**9)))
    def test_matches_scalar_reference_bit_for_bit(self, cells):
        folded = cells.reshape(4, 2, 4, 2, 4).sum(axis=(1, 3))
        assume(folded[:, :2, :2].sum(axis=(1, 2)).all())
        stats = chsh_statistics(cells)
        assert (tuple(stats.correlations.values()), *stats[1:]) == scalar_statistics(cells)

    def test_all_zero_coincidences_names_the_first_empty_setting(self):
        cells = np.ones((4, 8, 8), dtype=np.int64)
        cells[2:, :, [0, 1, 4, 5]] = 0  # Bob never conclusive at a1b0 and a1b1
        with pytest.raises(AllZeroCoincidences, match="setting a1b0 recorded no coincidences"):
            chsh_statistics(cells)


class TestFold:
    @hyp_settings(deadline=None)
    @given(arrays(np.int64, (4, 8, 8), elements=st.integers(0, 10**9)))
    def test_summary_matches_the_array_fold_bit_for_bit(self, cells):
        folded = fold_doubles(cells).reshape(4, 16)
        assert folded.dtype == np.int64
        assert np.array_equal(folded.reshape(4, 4, 4), cells.reshape(4, 2, 4, 2, 4).sum(axis=(1, 3)))
        assume(folded[:, [0, 1, 4, 5]].sum(axis=1).all())  # every pair has coincidences
        counts = Counts(cells)
        summary = bellsim.engine._summarize(
            counts, SETTINGS, DoubleClickPolicy.DISCARD, StepThreshold(), 3, ExistingModelSpec(0.5)
        )
        stats = chsh_statistics(cells)
        assert summary.correlations == stats.correlations
        assert (summary.s_value, summary.se_s) == (stats.s_value, stats.se_s)
        assert (summary.eta_alice, summary.eta_bob) == (stats.eta_alice, stats.eta_bob)
        assert (summary.eta_symmetric, summary.se_eta_symmetric) == (
            stats.eta_symmetric, stats.se_eta_symmetric)
        assert summary.n_trials == int(cells.sum())
        for pair, joint in zip(SettingPair, counts.joint):
            assert summary.joint_counts[pair].dtype == joint.dtype
            assert np.array_equal(summary.joint_counts[pair], joint)

    @pytest.mark.parametrize("n_trials,workers", [(4096, 1), (BATCH_SIZE + 5, 1), (BATCH_SIZE + 5, 2)])
    def test_run_counts_are_read_only_int64(self, n_trials, workers):
        cells = run(perfect_config(SETTINGS, n_trials=n_trials, seed=28), workers=workers).counts.cells
        assert (cells.dtype, cells.shape) == (np.int64, (4, 8, 8))
        assert not cells.flags.writeable
        assert cells.sum() == n_trials


class TestSingleThread:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_run_starts_no_thread(self, monkeypatch, workers):
        def forbidden(self):
            raise AssertionError("engine.run started a thread")

        monkeypatch.setattr(threading.Thread, "start", forbidden)
        summary = run(perfect_config(SETTINGS, n_trials=2 * BATCH_SIZE + 1, seed=27), workers=workers)
        assert summary.n_trials == 2 * BATCH_SIZE + 1


class TestErrors:
    def test_all_zero_coincidences_identifies_setting(self, standard_settings):
        config = RunConfig(strategy=QuantumSpec(bell_phi_plus(), eta_true=0.0),
                           settings=standard_settings, n_trials=1000, seed=2)
        with pytest.raises(AllZeroCoincidences, match="a0b0"):
            run(config)


class TestDoubleClickAccounting:
    def test_discard_counts_doubles_outside_partition(self, noisy_config):
        summary = run(noisy_config)
        counts = summary.counts
        assert summary.total_double_events == counts.doubles.sum() > 0
        assert not counts.joint[:, 3, :].any() and not counts.joint[:, :, 3].any()
        assert counts.total_double_events == counts.cells[:, 4:, :].sum() + counts.cells[:, :4, 4:].sum()

    def test_flag_surfaces_double_outcomes(self, noisy_config):
        config = dataclasses.replace(noisy_config, double_click_policy=DoubleClickPolicy.FLAG)
        counts = run(config).counts
        flagged = counts.joint[:, 3, :].sum() + counts.joint[:, :3, 3].sum()
        assert flagged == counts.total_double_events > 0

    def test_randomize_keeps_partition_and_counter(self, noisy_config):
        config = dataclasses.replace(noisy_config, double_click_policy=DoubleClickPolicy.RANDOMIZE)
        summary = run(config)
        assert summary.total_double_events > 0
        assert summary.counts.total_trials == summary.n_trials
        assert not summary.counts.joint[:, 3, :].any() and not summary.counts.joint[:, :, 3].any()

    def test_policies_agree_on_double_rate(self, noisy_config):
        discard = run(noisy_config)
        flag = run(dataclasses.replace(noisy_config, double_click_policy=DoubleClickPolicy.FLAG))
        np.testing.assert_array_equal(discard.counts.doubles, flag.counts.doubles)

    def test_flag_and_discard_agree_on_the_etas(self, noisy_config):
        # A party's conclusive trials count whatever the other party reports,
        # so flagging the other party's double clicks cannot lower its eta.
        discard = run(noisy_config)
        flag = run(dataclasses.replace(noisy_config, double_click_policy=DoubleClickPolicy.FLAG))
        assert flag.counts.joint[:, :2, 3].sum() > 0 and flag.counts.joint[:, 3, :2].sum() > 0
        assert (flag.eta_alice, flag.eta_bob) == (discard.eta_alice, discard.eta_bob)


class TestMerge:
    def test_merge_with_itself_doubles_counts(self, standard_settings):
        summary = run(perfect_config(standard_settings, n_trials=60_000, seed=11))
        merged = merge([summary, summary])
        assert merged.n_trials == 2 * summary.n_trials
        assert merged.seed == summary.seed
        for pair in SettingPair:
            assert merged.correlations[pair] == pytest.approx(summary.correlations[pair], abs=1e-15)
        assert merged.s_value == pytest.approx(summary.s_value, abs=1e-15)

    def test_commutative_and_associative(self, standard_settings):
        a = run(perfect_config(standard_settings, n_trials=60_000, seed=12))
        b = run(perfect_config(standard_settings, n_trials=80_000, seed=13))
        c = run(perfect_config(standard_settings, n_trials=40_000, seed=14))
        ab = merge([a, b])
        ba = merge([b, a])
        assert summaries_identical(ab, ba)
        assert summaries_identical(merge([ab, c]), merge([a, merge([b, c])]))

    def test_mixed_seeds_drop_seed(self, standard_settings):
        a = run(perfect_config(standard_settings, n_trials=30_000, seed=15))
        b = run(perfect_config(standard_settings, n_trials=30_000, seed=16))
        assert merge([a, b]).seed is None

    def test_matches_single_run_statistics(self, standard_settings):
        a = run(perfect_config(standard_settings, n_trials=50_000, seed=17))
        b = run(perfect_config(standard_settings, n_trials=50_000, seed=18))
        merged = merge([a, b])
        total = {
            pair: a.joint_counts[pair] + b.joint_counts[pair] for pair in SettingPair
        }
        for pair in SettingPair:
            assert np.array_equal(merged.joint_counts[pair], total[pair])
            t = total[pair]
            e = (t[0, 0] + t[1, 1] - t[0, 1] - t[1, 0]) / (t[:2, :2].sum())
            assert merged.correlations[pair] == pytest.approx(e, abs=1e-15)

    def test_equals_statistics_of_summed_cells(self, standard_settings):
        runs = [
            run(perfect_config(standard_settings, n_trials=n, seed=seed))
            for n, seed in ((30_000, 23), (7_000, 24), (BATCH_SIZE + 5, 25))
        ]
        for k in (1, 2, 3):
            merged = merge(runs[:k])
            cells = sum(r.counts.cells for r in runs[:k])
            assert np.array_equal(merged.counts.cells, cells)
            stats = chsh_statistics(cells)
            assert merged.correlations == stats.correlations
            assert (merged.s_value, merged.se_s) == (stats.s_value, stats.se_s)
            assert (merged.eta_alice, merged.eta_bob) == (stats.eta_alice, stats.eta_bob)
            assert (merged.eta_symmetric, merged.se_eta_symmetric) == (
                stats.eta_symmetric, stats.se_eta_symmetric)

    def test_incompatible_runs_rejected(self, standard_settings):
        base = run(perfect_config(standard_settings, n_trials=20_000, seed=19))
        other_strategy = run(RunConfig(strategy=ExistingModelSpec(0.7),
                                       settings=standard_settings, n_trials=20_000, seed=19))
        with pytest.raises(ValidationError):
            merge([base, other_strategy])

        other_settings = MeasurementSettings.from_degrees(0, 30, 10, 40)
        shifted = run(RunConfig(strategy=PerfectModelSpec(A_THRESHOLD, B_THRESHOLD),
                                settings=other_settings, n_trials=20_000, seed=19))
        with pytest.raises(ValidationError):
            merge([base, shifted])

        flagged = run(dataclasses.replace(
            perfect_config(standard_settings, n_trials=20_000, seed=19),
            double_click_policy=DoubleClickPolicy.FLAG,
        ))
        with pytest.raises(ValidationError):
            merge([base, flagged])

    def test_specs_with_one_label_rejected(self, standard_settings):
        # Both specs print as existing(e_target=0.707106781187).
        close = [ExistingModelSpec(0.7071067811865476), ExistingModelSpec(0.7071067811869)]
        assert close[0].label == close[1].label
        runs = [run(RunConfig(strategy=spec, settings=standard_settings, n_trials=4096, seed=28))
                for spec in close]
        with pytest.raises(ValidationError, match="different strategies"):
            merge(runs)

    def test_separately_built_quantum_specs_merge(self, standard_settings):
        runs = [
            run(RunConfig(strategy=QuantumSpec(bell_phi_plus().rotated(10.0, -5.0), eta_true=0.9),
                          settings=standard_settings, n_trials=4096, seed=seed))
            for seed in (29, 30)
        ]
        assert runs[0].spec is not runs[1].spec
        assert merge(runs).n_trials == 8192

    def test_mixed_detectors_rejected(self, standard_settings):
        config = perfect_config(standard_settings, n_trials=20_000, seed=19)
        step1 = run(dataclasses.replace(config, detector_model=StepThreshold(1.0)))
        step2 = run(dataclasses.replace(config, detector_model=StepThreshold(2.0)))
        assert step1.detector_model == StepThreshold(1.0)
        with pytest.raises(ValidationError, match="different detectors"):
            merge([step1, step2])
        assert merge([step1, step1]).detector_model == StepThreshold(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            merge([])


class TestNoSignalling:
    def test_perfect_model_passes(self, standard_settings):
        summary = run(perfect_config(standard_settings, n_trials=400_000, seed=20))
        report = empirical_no_signalling(summary)
        assert report.passed
        assert report.max_discrepancy < 0.01

    def test_improved_model_passes(self, standard_settings):
        summary = run(RunConfig(
            strategy=ImprovedModelSpec.for_settings(0.35, standard_settings),
            settings=standard_settings, n_trials=400_000, seed=21,
        ))
        assert empirical_no_signalling(summary).passed

    def test_constructed_signalling_table_fails(self):
        # Alice's "+" marginal moves by 0.1 when Bob changes his setting.
        def table(p_plus):
            t = np.zeros((4, 4), dtype=np.int64)
            n = 100_000
            t[0, 0] = int(n * p_plus)
            t[1, 0] = n - t[0, 0]
            return t

        tables = {
            SettingPair.A0B0: table(0.6),
            SettingPair.A0B1: table(0.5),
            SettingPair.A1B0: table(0.55),
            SettingPair.A1B1: table(0.55),
        }
        report = no_signalling_from_tables(tables)
        assert not report.passed
        assert report.max_discrepancy == pytest.approx(0.1, abs=1e-9)
        assert "alice" in report.worst_case

    @pytest.mark.parametrize("symbol, code", [("?", 2), ("D", 3)])
    def test_worst_case_names_the_outcome_symbol(self, symbol, code):
        # Alice's counts of "+", "-" and `code`, with Bob always "+": at her setting 0
        # the gap on `code` is the largest.
        def table(plus, minus, other):
            t = np.zeros((4, 4), dtype=np.int64)
            t[[0, 1, code], 0] = plus, minus, other
            return t

        tables = {
            SettingPair.A0B0: table(500, 300, 200),
            SettingPair.A0B1: table(450, 250, 300),
            SettingPair.A1B0: table(500, 500, 0),
            SettingPair.A1B1: table(500, 500, 0),
        }
        report = no_signalling_from_tables(tables)
        assert not report.passed
        assert report.worst_case == (
            f"alice outcome {symbol!r} at own setting 0: |0.2 - 0.3| = 0.1 vs 4 SE = 0.0769"
        )


class TestPhysicalModeThroughEngine:
    def test_threshold_point_with_step_detectors(self, standard_settings):
        summary = run(perfect_config(
            standard_settings, n_trials=300_000, seed=22, mode=PerfectMode.PHYSICAL_PULSES,
        ))
        assert abs(summary.s_value - 2.0 * SQRT2) <= 5.0 * summary.se_s
        assert abs(summary.eta_symmetric - 2.0 * (SQRT2 - 1.0)) <= 5.0 * summary.se_eta_symmetric
        assert summary.total_double_events == 0
