import dataclasses
import math

import numpy as np
import pytest

from bellsim import MeasurementSettings, SettingPair
from bellsim.core import (
    Angle,
    Counts,
    RunSummary,
    ValidationError,
    normalize_degrees,
)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0.0, 0.0), (45.0, 45.0), (-90.0, -90.0), (90.0, -90.0),
         (180.0, 0.0), (135.0, -45.0), (-101.25, 78.75), (270.0, -90.0)],
    )
    def test_known_values(self, raw, expected):
        assert normalize_degrees(raw) == pytest.approx(expected, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1e6, 1e6, size=500):
            once = normalize_degrees(x)
            assert -90.0 <= once < 90.0
            assert normalize_degrees(once) == once

    def test_half_turn_periodic(self):
        rng = np.random.default_rng(2)
        for x in rng.uniform(-720, 720, size=200):
            assert Angle(x) == Angle(x + 180.0)


class TestAngle:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            Angle(math.nan)
        with pytest.raises(ValidationError):
            Angle(math.inf)

    def test_perpendicular(self):
        assert Angle(0).perpendicular() == Angle(-90)
        assert Angle(45).perpendicular() == Angle(-45)
        assert Angle(22.5).perpendicular().separation_to(Angle(22.5)) == pytest.approx(90.0)

    @pytest.mark.parametrize(
        "a,b,sep",
        [(0, 45, 45.0), (-78.75, 56.25, 45.0), (0, 90, 90.0), (10, 10, 0.0), (80, -80, 20.0)],
    )
    def test_separation(self, a, b, sep):
        assert Angle(a).separation_to(Angle(b)) == pytest.approx(sep, abs=1e-12)
        assert Angle(b).separation_to(Angle(a)) == pytest.approx(sep, abs=1e-12)

    def test_midpoint_short_arc(self):
        assert Angle(0).midpoint_toward(Angle(45)).degrees == pytest.approx(22.5)
        # Wraps across the branch cut: the bisector of -78.75 and 56.25 is 78.75.
        assert Angle(-78.75).midpoint_toward(Angle(56.25)).degrees == pytest.approx(78.75)

    def test_midpoint_is_equidistant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = Angle(rng.uniform(-90, 90)), Angle(rng.uniform(-90, 90))
            mid = a.midpoint_toward(b)
            assert mid.separation_to(a) == pytest.approx(mid.separation_to(b), abs=1e-9)
            assert mid.separation_to(a) <= 45.0 + 1e-9


class TestMeasurementSettings:
    def test_equal_angles_rejected(self):
        with pytest.raises(ValidationError):
            MeasurementSettings.from_degrees(0, 180, 22.5, 67.5)  # 180 == 0 normalized
        with pytest.raises(ValidationError):
            MeasurementSettings.from_degrees(0, 45, 67.5, 67.5)

    def test_angle_lookup(self, standard_settings):
        assert standard_settings.alice_angle(0) == Angle(0)
        assert standard_settings.alice_angle(1) == Angle(45)
        assert standard_settings.bob_angle(0) == Angle(22.5)
        assert standard_settings.bob_angle(1) == Angle(67.5)


class TestSettingPair:
    def test_round_trip(self):
        for pair in SettingPair:
            assert SettingPair((pair.alice, pair.bob)) is pair

    def test_labels(self):
        assert SettingPair.A0B1.label == "a0b1"
        assert len({p.label for p in SettingPair}) == 4


def _cells():
    """Counts of one setting pair repeated four times, with one flagged double."""
    cells = np.zeros((4, 8, 8), dtype=np.int64)
    cells[:, 0, 0], cells[:, 0, 1], cells[:, 1, 0], cells[:, 1, 1] = 10, 2, 3, 5
    cells[:, 0, 2], cells[:, 1, 2] = 3, 1  # Alice conclusive, Bob inconclusive
    cells[:, 2, 0], cells[:, 2, 1] = 4, 2
    cells[:, 2, 2] = 7
    cells[:, 3 + 4, 2] = 1  # Alice flagged both detectors firing
    return cells


class TestCounts:
    def test_totals(self):
        counts = Counts(_cells())
        assert counts.total_trials == 4 * 38
        assert counts.total_coincidences == 4 * 20
        assert counts.total_double_events == 4
        np.testing.assert_array_equal(counts.joint[0, :3, :3], [[10, 2, 3], [3, 5, 1], [4, 2, 7]])
        assert counts.joint[0, 3, 2] == 1

    def test_doubles_counted_from_the_double_bit(self):
        cells = _cells()
        cells[1, 0 + 4, 0 + 4] = 6  # both parties double, folded into "+" by the policy
        counts = Counts(cells)
        np.testing.assert_array_equal(counts.doubles, [1, 7, 1, 1])
        assert counts.joint[1, 0, 0] == 16

    def test_negative_counts_rejected(self):
        cells = _cells()
        cells[2, 5, 5] = -1
        with pytest.raises(ValidationError):
            Counts(cells)

    def test_requires_all_settings(self):
        with pytest.raises(ValidationError):
            Counts(_cells()[:3])
        with pytest.raises(ValidationError):
            Counts(_cells().astype(float))

    def test_read_only_copy(self):
        cells = _cells()
        counts = Counts(cells)
        cells[0, 0, 0] = 99
        assert counts.cells[0, 0, 0] == 10
        assert not counts.cells.flags.writeable


class TestRunSummary:
    @pytest.fixture
    def summary(self, standard_settings):
        from bellsim import ExistingModelSpec, RunConfig, run

        config = RunConfig(
            strategy=ExistingModelSpec(0.5), settings=standard_settings,
            n_trials=4000, seed=1,
        )
        return run(config)

    def test_ranges_enforced(self, summary):
        with pytest.raises(ValidationError):
            dataclasses.replace(summary, s_value=4.5)
        with pytest.raises(ValidationError):
            dataclasses.replace(summary, eta_alice=1.5)
        with pytest.raises(ValidationError):
            dataclasses.replace(summary, correlations={p: 2.0 for p in SettingPair})

    def test_engine_summary_equals_the_validated_one(self, summary):
        from bellsim.engine import chsh_statistics

        cells = summary.counts.cells
        validated = RunSummary(
            counts=Counts(cells), **chsh_statistics(cells)._asdict(), n_trials=int(cells.sum()),
            seed=summary.seed, spec=summary.spec, settings=summary.settings,
            double_click_policy=summary.double_click_policy,
            joint_counts=dict(zip(SettingPair, Counts(cells).joint)), detector_model=summary.detector_model,
        )
        assert vars(summary).keys() == vars(validated).keys()
        for field in dataclasses.fields(RunSummary):
            ours, theirs = getattr(summary, field.name), getattr(validated, field.name)
            if field.name == "counts":
                assert np.array_equal(ours.cells, theirs.cells)
            elif field.name == "joint_counts":
                assert type(ours) is dict and ours.keys() == theirs.keys()
                assert all(ours[p].dtype == theirs[p].dtype and np.array_equal(ours[p], theirs[p]) for p in ours)
            else:
                assert type(ours) is type(theirs) and ours == theirs, field.name

    def test_replace_revalidates_an_engine_summary(self, summary):
        assert dataclasses.replace(summary, s_value=summary.s_value).s_value == summary.s_value
        with pytest.raises(ValidationError):
            dataclasses.replace(summary, s_value=5.0)

    def test_carries_diagnostics(self, summary):
        from bellsim.detector import StepThreshold

        assert summary.n_trials == 4000
        assert set(summary.joint_counts) == set(SettingPair)
        assert all(t.shape == (4, 4) for t in summary.joint_counts.values())
        assert summary.detector_model == StepThreshold()
