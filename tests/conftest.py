import numpy as np
import pytest

from bellsim import MeasurementSettings


@pytest.fixture
def standard_settings() -> MeasurementSettings:
    """Angle set at which the maximally entangled baseline reaches S = 2*sqrt(2)."""
    return MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)


def make_rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)
