import math

import numpy as np
import pytest

from bellsim import correlation_from_counts, nsim_ndif_ratio
from bellsim.core import ValidationError
from bellsim.inequalities import AllZeroCoincidences, SingularRatio, gm_bound

SQRT2 = math.sqrt(2.0)


class TestCorrelationFromCounts:
    def test_perfectly_correlated(self):
        assert correlation_from_counts(10, 0, 0, 10) == 1.0

    def test_perfectly_anticorrelated(self):
        assert correlation_from_counts(0, 5, 5, 0) == -1.0

    def test_similar_different_ratio_recovers_target(self):
        n_dif = 3.0
        n_sim = (3.0 + 2.0 * SQRT2) * n_dif
        e = correlation_from_counts(n_sim, n_dif, n_dif, n_sim)
        assert e == pytest.approx(1.0 / SQRT2, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            counts = rng.integers(0, 1000, size=4)
            if counts.sum() == 0:
                counts[0] = 1
            base = correlation_from_counts(*counts)
            for k in (2, 7, 123):
                assert correlation_from_counts(*(counts * k)) == pytest.approx(base, abs=1e-12)
            assert -1.0 <= base <= 1.0

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroCoincidences):
            correlation_from_counts(0, 0, 0, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            correlation_from_counts(-1, 0, 0, 5)


class TestGmBound:
    def test_unit_efficiency_reduces_to_chsh(self):
        assert gm_bound(1.0) == 2.0

    def test_threshold_efficiency(self):
        assert gm_bound(2.0 * (SQRT2 - 1.0)) == pytest.approx(2.0 * SQRT2, abs=1e-12)

    def test_clipped_at_algebraic_maximum(self):
        assert gm_bound(0.5) == 4.0
        assert gm_bound(2.0 / 3.0) == pytest.approx(4.0, abs=1e-12)

    def test_monotone_and_continuous(self):
        etas = np.linspace(0.01, 1.0, 500)
        values = np.array([gm_bound(float(e)) for e in etas])
        assert np.all(np.diff(values) <= 1e-12)
        assert np.max(np.abs(np.diff(values))) < 0.3  # no jumps on a fine grid

    def test_domain(self):
        with pytest.raises(ValidationError):
            gm_bound(0.0)
        with pytest.raises(ValidationError):
            gm_bound(-0.5)
        with pytest.raises(ValidationError):
            gm_bound(1.1)


class TestNsimNdifRatio:
    def test_balanced(self):
        assert nsim_ndif_ratio(0.0) == 1.0

    def test_quantum_point_both_branches(self):
        assert nsim_ndif_ratio(1.0 / SQRT2) == pytest.approx(3.0 + 2.0 * SQRT2, abs=1e-12)
        assert nsim_ndif_ratio(-1.0 / SQRT2) == pytest.approx(3.0 - 2.0 * SQRT2, abs=1e-12)

    def test_singular_at_one(self):
        with pytest.raises(SingularRatio):
            nsim_ndif_ratio(1.0)

    @pytest.mark.parametrize("e", [1.5, -1.5, math.nan])
    def test_out_of_range_rejected(self, e):
        with pytest.raises(ValidationError, match=r"e must lie in \[-1, 1\]"):
            nsim_ndif_ratio(e)

    def test_round_trip_with_correlation(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n_sim = float(rng.integers(1, 10_000))
            n_dif = float(rng.integers(1, 10_000))
            e = correlation_from_counts(n_sim, n_dif, n_dif, n_sim)
            assert nsim_ndif_ratio(e) == pytest.approx(n_sim / n_dif, rel=1e-12)
