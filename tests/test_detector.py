import math

import numpy as np
import pytest

from bellsim import ExistingModelSpec, MeasurementSettings, RunConfig, run
from bellsim.core import DoubleClickPolicy, ValidationError
from bellsim.detector import (
    Empirical,
    MalformedCurve,
    StepThreshold,
    TwoThreshold,
    bundled_response_curve,
    click_probability,
    read_response_csv,
)
from bellsim.optics import N_STATES, OUT_DOUBLE, OUT_INCONCLUSIVE, OUT_MINUS, OUT_PLUS, pulse_response

HALF_INTENSITY_CLICK_PROB = 0.40  # synthetic curve pinned to this value


class TestStepThreshold:
    def test_below_threshold_never_clicks(self):
        assert click_probability(StepThreshold(1.0), 0.99) == 0.0

    def test_at_threshold_always_clicks(self):
        assert click_probability(StepThreshold(1.0), 1.0) == 1.0
        assert click_probability(StepThreshold(1.0), 2.0) == 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            StepThreshold(0.0)
        with pytest.raises(ValidationError):
            StepThreshold(-1.0)


class TestTwoThreshold:
    def test_linear_ramp_midpoint(self):
        model = TwoThreshold(0.8, 1.2)
        assert click_probability(model, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert click_probability(model, 0.8) == 0.0
        assert click_probability(model, 0.5) == 0.0
        assert click_probability(model, 1.2) == 1.0
        assert click_probability(model, 3.0) == 1.0

    @pytest.mark.parametrize("width", [2.2250738585e-313, 5e-324])
    def test_subnormal_ramp_saturates_without_a_warning(self, width, recwarn):
        model = TwoThreshold(0.0, width)
        assert click_probability(model, np.array([0.0, width, 1.0, 1e308])).tolist() == [0.0, 1.0, 1.0, 1.0]
        assert not recwarn.list

    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValidationError):
            TwoThreshold(1.2, 0.8)
        with pytest.raises(ValidationError):
            TwoThreshold(1.0, 1.0)

    @pytest.mark.parametrize("i_never", [-0.1, math.nan, math.inf])
    def test_i_never_must_be_finite_and_non_negative(self, i_never):
        with pytest.raises(ValidationError, match="i_never must be finite"):
            TwoThreshold(i_never, 2.0)

    def test_step_is_the_zero_width_limit(self):
        step = StepThreshold(1.0)
        for intensity in (0.5, 0.9, 0.999, 1.001, 1.5):
            gaps = []
            for width in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8):
                noisy = TwoThreshold(1.0 - width, 1.0 + width)
                gaps.append(abs(click_probability(noisy, intensity)
                                - click_probability(step, intensity)))
            assert gaps[-1] <= 1e-12
            assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))


class TestEmpirical:
    def test_clamping_and_interpolation(self):
        model = Empirical(((0.1, 0.0), (0.2, 1.0)))
        assert click_probability(model, 0.05) == 0.0
        assert click_probability(model, 0.15) == pytest.approx(0.5)
        assert click_probability(model, 0.2) == 1.0
        assert click_probability(model, 5.0) == 1.0

    def test_zero_below_first_point(self):
        model = Empirical(((1.0, 0.3), (2.0, 0.8)))
        assert click_probability(model, 0.999) == 0.0
        assert click_probability(model, 1.0) == pytest.approx(0.3)
        assert click_probability(model, 3.0) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "rows",
        [
            [(0.1, 0.5)],                       # too short
            [(0.1, 0.5), (0.2, 0.4)],           # decreasing probability
            [(0.2, 0.1), (0.1, 0.5)],           # decreasing energy
            [(0.1, 0.1), (0.1, 0.5)],           # duplicate energy
            [(0.1, -0.1), (0.2, 0.5)],          # probability out of range
            [(0.1, 0.5), (0.2, 1.5)],
            [(0.1, 0.5), (math.inf, 1.0)],      # energy not finite
            [(math.nan, 0.5), (0.2, 1.0)],
        ],
    )
    def test_malformed_curves_rejected(self, rows):
        with pytest.raises(MalformedCurve):
            Empirical(tuple(rows))


class TestMonotonicityAndBounds:
    @pytest.mark.parametrize(
        "model",
        [
            StepThreshold(0.7),
            TwoThreshold(0.4, 1.3),
            # a tabulated ramp across [0.5, 1.5] is an empirical curve
            Empirical(((0.5, 0.0), (0.7, 0.0), (0.9, 0.3), (1.4, 0.95), (1.5, 1.0))),
            Empirical(((0.3, 0.1), (0.5, 0.40), (1.0, 1.0))),
        ],
    )
    def test_monotone_in_intensity(self, model):
        intensities = np.sort(np.random.default_rng(7).uniform(0, 3, size=400))
        probs = click_probability(model, intensities)
        assert np.all(np.diff(probs) >= -1e-15)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError):
            click_probability(StepThreshold(1.0), -0.1)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError, match="unknown detector model"):
            click_probability("step", 1.0)


class TestSampleClick:
    """The click probabilities the engine's counts are drawn from."""

    def test_certain_click(self):
        assert click_probability(StepThreshold(1.0), 2.0) == 1.0
        assert np.array_equal(click_probability(StepThreshold(1.0), np.full(50, 1.0)), np.ones(50))

    def test_certain_silence(self):
        assert click_probability(StepThreshold(1.0), 0.0) == 0.0
        assert not click_probability(StepThreshold(1.0), np.full(50, 1.0 - 1e-12)).any()

    def test_law_of_large_numbers_on_ramp_midpoint(self):
        # Forced pulses carry one threshold unit, the middle of this ramp, so
        # a basis match (half the trials) clicks with probability 0.5 and a
        # mismatch never does: 10^6 trials put Alice's rate at 0.25 +- 0.002.
        summary = run(RunConfig(
            strategy=ExistingModelSpec(1.0),
            settings=MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5),
            n_trials=1_000_000, seed=123, detector_model=TwoThreshold(0.8, 1.2),
        ))
        assert abs(summary.eta_alice - 0.25) < 0.002


class TestResponseCsv:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path / "curve.csv",
                           "energy,click_probability\n0.1,0.0\n0.2,1.0\n")
        model = read_response_csv(path)
        assert model.curve == ((0.1, 0.0), (0.2, 1.0))

    def test_blank_lines_ignored(self, tmp_path):
        path = self._write(tmp_path / "curve.csv",
                           "energy,click_probability\n0.1,0.0\n\n0.2,1.0\n\n")
        assert len(read_response_csv(path).curve) == 2

    def test_header_required(self, tmp_path):
        path = self._write(tmp_path / "curve.csv", "0.1,0.0\n0.2,1.0\n")
        with pytest.raises(MalformedCurve):
            read_response_csv(path)

    def test_bad_number_reports_line(self, tmp_path):
        path = self._write(tmp_path / "curve.csv",
                           "energy,click_probability\n0.1,zero\n0.2,1.0\n")
        with pytest.raises(MalformedCurve, match=":2"):
            read_response_csv(path)

    @pytest.mark.parametrize("text,match", [
        ("", "empty file"),
        ("energy,click_probability\n0.1,0.0\n0.2\n", ":3: expected 2 columns, got 1"),
        ("energy,click_probability\n0.1,0.0,0.5\n", ":2: expected 2 columns, got 3"),
    ])
    def test_malformed_file_reports_where(self, tmp_path, text, match):
        path = self._write(tmp_path / "curve.csv", text)
        with pytest.raises(MalformedCurve, match=match):
            read_response_csv(path)

    def test_non_monotone_rejected(self, tmp_path):
        path = self._write(tmp_path / "curve.csv",
                           "energy,click_probability\n0.1,0.5\n0.2,0.4\n")
        with pytest.raises(MalformedCurve):
            read_response_csv(path)


class TestBundledCurve:
    def test_full_and_half_intensity_behavior(self):
        model = bundled_response_curve()
        assert click_probability(model, 1.0) == 1.0
        assert click_probability(model, 0.5) == pytest.approx(HALF_INTENSITY_CLICK_PROB)

    def test_mismatch_gives_random_clicks_at_the_pinned_rate(self):
        # A basis-mismatched full-intensity pulse puts half the light on each
        # arm, so each detector fires independently with probability 0.40.
        got = pulse_response(45.0, 1.0, 0.0, bundled_response_curve(), DoubleClickPolicy.FLAG)
        p = HALF_INTENSITY_CLICK_PROB
        want = np.zeros(N_STATES)
        want[[OUT_PLUS, OUT_MINUS, OUT_INCONCLUSIVE, 4 + OUT_DOUBLE]] = (
            p * (1 - p), p * (1 - p), (1 - p) ** 2, p * p,
        )
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
