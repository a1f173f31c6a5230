import math

import numpy as np
import pytest

from bellsim import ab_from_eta, improved_predict, perfect_predict
from bellsim.analytic import existing_predict
from bellsim.core import ValidationError
from bellsim.inequalities import gm_bound

SQRT2 = math.sqrt(2.0)
ETA_THRESHOLD = 2.0 * (SQRT2 - 1.0)
A_THRESHOLD = 12.0 * SQRT2 - 16.0
B_THRESHOLD = 40.0 - 28.0 * SQRT2


class TestImprovedPredict:
    def test_left_endpoint(self):
        p = improved_predict(0.0)
        assert p.eta == 0.5 and p.s == 4.0
        assert p.coincidence_prob == 0.25

    def test_right_endpoint(self):
        p = improved_predict(1.0)
        assert p.eta == 1.0 and p.s == 2.0
        assert p.coincidence_prob == 1.0

    def test_quantum_point(self):
        p = improved_predict(0.2612)
        assert p.eta == pytest.approx(0.6678, abs=5e-4)
        assert p.s == pytest.approx(2.8284, abs=1e-3)

    def test_monotone(self):
        grid = np.linspace(0.0, 1.0, 201)
        preds = [improved_predict(float(x)) for x in grid]
        etas = [p.eta for p in preds]
        svals = [p.s for p in preds]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert all(b < a for a, b in zip(svals, svals[1:]))

    def test_coincidence_is_eta_squared(self):
        for x in (0.0, 0.3, 0.77, 1.0):
            p = improved_predict(x)
            assert p.coincidence_prob == pytest.approx(p.eta**2, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValidationError):
            improved_predict(-0.1)
        with pytest.raises(ValidationError):
            improved_predict(1.0001)


class TestPerfectPredict:
    def test_chsh_threshold_point_exact(self):
        p = perfect_predict(A_THRESHOLD, B_THRESHOLD)
        assert abs(p.e_per_setting.e00 - 1.0 / SQRT2) < 1e-12
        assert abs(p.eta - ETA_THRESHOLD) < 1e-12
        assert abs(p.s - 2.0 * SQRT2) < 1e-12

    def test_unit_probabilities(self):
        p = perfect_predict(1.0, 1.0)
        assert p.e_per_setting.e00 == pytest.approx(0.5, abs=1e-15)
        assert p.eta == 1.0
        assert p.s == 2.0

    def test_no_random_outcomes(self):
        p = perfect_predict(1.0, 0.0)
        assert p.e_per_setting.e00 == 1.0
        assert p.eta == pytest.approx(1.0 / SQRT2, abs=1e-15)
        assert p.s == 4.0

    def test_sign_pattern(self):
        p = perfect_predict(0.5, 0.25)
        e = p.e_per_setting
        assert e.e00 > 0 and e.e10 > 0 and e.e11 > 0 and e.e01 < 0
        assert e.e00 == -e.e01

    def test_degenerate_rejected(self):
        with pytest.raises(ValidationError):
            perfect_predict(0.0, 0.0)


class TestAbFromEta:
    def test_threshold_point(self):
        a, b, e = ab_from_eta(ETA_THRESHOLD)
        assert a == pytest.approx(A_THRESHOLD, abs=1e-12)
        assert b == pytest.approx(B_THRESHOLD, abs=1e-12)
        assert e == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_unit_efficiency(self):
        a, b, e = ab_from_eta(1.0)
        assert (a, b, e) == (1.0, 1.0, 0.5)

    def test_lower_edge(self):
        a, b, e = ab_from_eta(2.0 / 3.0)
        assert a == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_identity(self):
        for eta in np.linspace(2.0 / 3.0, 1.0, 69):
            a, b, _ = ab_from_eta(float(eta))
            assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
            p = perfect_predict(a, b)
            assert p.eta == pytest.approx(eta, abs=1e-12)
            assert p.s == pytest.approx(gm_bound(float(eta)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValidationError):
            ab_from_eta(0.6)
        with pytest.raises(ValidationError):
            ab_from_eta(1.01)


class TestBoundContact:
    """Where the model family touches the efficiency-recalibrated local bound.

    At fixed eta = sqrt((a+b)/2), the CHSH value 4a/(a+b) = 2a/eta^2 stays
    at or below gm_bound(eta) exactly when a <= 2*eta - eta^2, with equality
    on the ab_from_eta curve. Larger ``a`` exceeds that bound while staying
    no-signalling: sqrt(coincidence) is not the per-party efficiency the
    recalibrated inequality is stated for.
    """

    def test_on_curve_equality(self):
        for eta in np.linspace(2.0 / 3.0, 1.0, 35):
            a, b, _ = ab_from_eta(float(eta))
            assert a == pytest.approx(2.0 * eta - eta * eta, abs=1e-12)
            assert perfect_predict(a, b).s == pytest.approx(gm_bound(float(eta)), abs=1e-12)

    def test_contact_condition_characterizes_the_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            a = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            if a + b == 0.0:
                continue
            p = perfect_predict(a, b)
            bound = gm_bound(p.eta) if p.eta > 0 else 4.0
            if a <= 2.0 * p.eta - p.eta**2 + 1e-12:
                assert p.s <= bound + 1e-9
            elif p.eta > 2.0 / 3.0:
                assert p.s > bound - 1e-9

    def test_off_curve_point_exceeds_sqrt_coincidence_bound(self):
        p = perfect_predict(1.0, 0.28)
        assert p.eta == pytest.approx(0.8, abs=1e-12)
        assert p.s == pytest.approx(3.125, abs=1e-12)
        assert p.s > gm_bound(0.8)


class TestExistingPredict:
    @pytest.mark.parametrize("e,s", [(1.0, 4.0), (1.0 / SQRT2, 2.0 * SQRT2), (0.5, 2.0)])
    def test_linear_in_target(self, e, s):
        p = existing_predict(e)
        assert p.eta == 0.5
        assert p.s == pytest.approx(s, abs=1e-12)
        assert p.coincidence_prob == 0.25
