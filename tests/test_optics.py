import math

import numpy as np
import pytest

from bellsim.core import Angle, DoubleClickPolicy, ValidationError
from bellsim.detector import StepThreshold, TwoThreshold, click_probability
from bellsim.optics import (
    N_STATES,
    OUT_DOUBLE,
    OUT_INCONCLUSIVE,
    OUT_MINUS,
    OUT_PLUS,
    pulse_response,
)
from oracles import malus_split, synthetic_blinded_response

# cos^2(22.5 deg) = (2 + sqrt(2)) / 4, frozen from the half-angle identity.
COS2_22P5 = (2.0 + math.sqrt(2.0)) / 4.0
STEP = StepThreshold(1.0)


class TestMalusSplit:
    def test_equal_split_at_45(self):
        t, r = malus_split(Angle(45), Angle(0), 1.0)
        assert t == pytest.approx(0.5, abs=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_matched_basis_all_transmitted(self):
        t, r = malus_split(Angle(0), Angle(0), 1.0)
        assert t == 1.0
        assert r == 0.0

    def test_22p5_degree_split(self):
        t, r = malus_split(Angle(22.5), Angle(0), 1.0)
        assert t == pytest.approx(COS2_22P5, abs=1e-12)
        assert r == pytest.approx(1.0 - COS2_22P5, abs=1e-12)

    def test_energy_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            pol = Angle(rng.uniform(-90, 90))
            basis = Angle(rng.uniform(-90, 90))
            intensity = rng.uniform(0, 10)
            t, r = malus_split(pol, basis, intensity)
            assert t >= 0.0 and r >= 0.0
            assert abs(t + r - intensity) <= 1e-12 * max(1.0, intensity)

    def test_half_turn_symmetry(self):
        t1, r1 = malus_split(Angle(78.75), Angle(-78.75), 2.0)
        t2, r2 = malus_split(Angle(78.75), Angle(101.25), 2.0)
        assert t1 == pytest.approx(t2, abs=1e-12)
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError):
            malus_split(Angle(0), Angle(0), -1.0)


def state(code, double=False):
    """Index of a party's state in the response's trailing axis."""
    return code + 4 * double


def point_mass(index):
    out = np.zeros(N_STATES)
    out[index] = 1.0
    return out


RANDOM = np.random.default_rng(4)
RANDOM_POL = RANDOM.uniform(-90, 90, size=1000)
RANDOM_BASIS = RANDOM.uniform(-90, 90, size=1000)


class TestAnalyze:
    """The analyzer's exact state distribution for one pulse, via pulse_response."""

    def test_vacuum_is_inconclusive(self):
        for policy in DoubleClickPolicy:
            for basis in (0.0, 30.0, -45.0):
                got = pulse_response(17.0, 0.0, basis, STEP, policy)
                assert np.array_equal(got, point_mass(state(OUT_INCONCLUSIVE)))

    def test_matched_basis_clicks_plus(self):
        got = pulse_response(30.0, 1.0, 30.0, STEP, DoubleClickPolicy.DISCARD)
        assert np.array_equal(got, point_mass(state(OUT_PLUS)))

    def test_perpendicular_clicks_minus(self):
        got = pulse_response(-60.0, 1.0, 30.0, STEP, DoubleClickPolicy.DISCARD)
        assert np.array_equal(got, point_mass(state(OUT_MINUS)))

    def test_conjugate_mismatch_never_clicks(self):
        # 1.5 units split 50/50 leaves both arms below threshold.
        got = pulse_response(45.0, 1.5, 0.0, STEP, DoubleClickPolicy.DISCARD)
        assert np.array_equal(got, point_mass(state(OUT_INCONCLUSIVE)))

    def test_double_click_policies(self):
        # 4 units at 45 degrees puts 2 on each arm: both detectors fire.
        discard = pulse_response(45.0, 4.0, 0.0, STEP, DoubleClickPolicy.DISCARD)
        assert np.array_equal(discard, point_mass(state(OUT_INCONCLUSIVE, double=True)))
        flagged = pulse_response(45.0, 4.0, 0.0, STEP, DoubleClickPolicy.FLAG)
        assert np.array_equal(flagged, point_mass(state(OUT_DOUBLE, double=True)))
        randomized = pulse_response(45.0, 4.0, 0.0, STEP, DoubleClickPolicy.RANDOMIZE)
        assert np.array_equal(
            randomized,
            0.5 * point_mass(state(OUT_PLUS, double=True)) + 0.5 * point_mass(state(OUT_MINUS, double=True)),
        )
        # A noisy detector at its ramp midpoint fires each arm independently
        # with probability 1/2: singles, silence and doubles a quarter each.
        noisy = pulse_response(45.0, 2.0, 0.0, TwoThreshold(0.8, 1.2), DoubleClickPolicy.FLAG)
        want = 0.25 * (point_mass(state(OUT_PLUS)) + point_mass(state(OUT_MINUS))
                       + point_mass(state(OUT_INCONCLUSIVE))
                       + point_mass(state(OUT_DOUBLE, double=True)))
        np.testing.assert_allclose(noisy, want, rtol=0, atol=1e-15)

    def test_double_never_escapes_without_flag(self):
        intensity = np.random.default_rng(1).uniform(0, 5, size=1000)
        for policy in (DoubleClickPolicy.DISCARD, DoubleClickPolicy.RANDOMIZE):
            got = pulse_response(RANDOM_POL, intensity, RANDOM_BASIS, STEP, policy)
            assert not got[:, state(OUT_DOUBLE)].any()
            assert not got[:, state(OUT_DOUBLE, double=True)].any()

    def test_step_detectors_below_twice_threshold_cannot_double(self):
        # Both arms sum to I < 2, so they cannot both reach the threshold.
        intensity = np.random.default_rng(2).uniform(1.0, 2.0 - 1e-9, size=1000)
        got = pulse_response(RANDOM_POL, intensity, RANDOM_BASIS, STEP, DoubleClickPolicy.FLAG)
        assert not got[:, 4:].any()
        assert not got[:, state(OUT_DOUBLE)].any()

    def test_always_returns_single_outcome(self):
        intensity = np.random.default_rng(3).uniform(0, 4, size=1000)
        for detector in (STEP, TwoThreshold(0.8, 1.2), synthetic_blinded_response()):
            for policy in DoubleClickPolicy:
                got = pulse_response(RANDOM_POL, intensity, RANDOM_BASIS, detector, policy)
                assert got.shape == (1000, N_STATES)
                assert (got >= 0.0).all()
                np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        seen = pulse_response(RANDOM_POL, intensity, RANDOM_BASIS, STEP, DoubleClickPolicy.FLAG)
        assert seen[:, state(OUT_PLUS)].any() and seen[:, state(OUT_INCONCLUSIVE)].any()

    def test_ports_follow_malus_split(self):
        detector = TwoThreshold(0.5, 2.5)
        got = pulse_response(RANDOM_POL[:50, None], 3.0, (0.0, 40.0), detector, DoubleClickPolicy.FLAG)
        assert got.shape == (50, 2, N_STATES)
        for i in range(50):
            for j, basis in enumerate((0.0, 40.0)):
                t, r = malus_split(Angle(RANDOM_POL[i]), Angle(basis), 3.0)
                p_plus, p_minus = click_probability(detector, t), click_probability(detector, r)
                assert got[i, j, state(OUT_PLUS)] == pytest.approx(p_plus * (1 - p_minus), abs=1e-12)
                assert got[i, j, state(OUT_DOUBLE, double=True)] == pytest.approx(p_plus * p_minus, abs=1e-12)
