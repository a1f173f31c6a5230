"""The standard errors a run reports are calibrated against the exact table.

For each config, 2,000 runs at fixed seeds 0..1999 and 4096 trials give
z-scores ``(S - S*) / se_s`` and ``(eta - eta*) / se_eta_symmetric``, where
the starred values are the statistics of the compiled table itself. If
the SEs are right, each z has mean 0 and standard deviation 1. With
2,000 runs the sample sd has a standard error near 1/sqrt(4000) = 0.016
and the sample mean one near 1/sqrt(2000) = 0.022, so the tolerances
below sit about 6 and 7 of those away from the ideal values.
"""
import math
import statistics

import pytest

from bellsim import (
    ExistingModelSpec,
    ImprovedModelSpec,
    MeasurementSettings,
    PerfectModelSpec,
    QuantumSpec,
    RunConfig,
    ab_from_eta,
    bell_phi_plus,
    run,
)
from bellsim.core import DoubleClickPolicy
from bellsim.detector import StepThreshold
from bellsim.engine import chsh_statistics
from bellsim.strategies import joint_table

from oracles import synthetic_blinded_response

STANDARD = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)
SEEDS = range(2000)
TRIALS = 4096
#: Largest accepted |sd(z) - 1|.
SD_TOLERANCE = 0.1
#: Largest accepted |mean(z)|.
MEAN_TOLERANCE = 0.15

CONFIGS = {
    "perfect/analytic": (PerfectModelSpec(*ab_from_eta(2.0 * (math.sqrt(2.0) - 1.0))[:2]),
                         StepThreshold(), DoubleClickPolicy.DISCARD),
    "improved": (ImprovedModelSpec.for_settings(0.2612, STANDARD), StepThreshold(), DoubleClickPolicy.DISCARD),
    "existing": (ExistingModelSpec(0.7), StepThreshold(), DoubleClickPolicy.DISCARD),
    "quantum": (QuantumSpec(bell_phi_plus(), 0.9), StepThreshold(), DoubleClickPolicy.DISCARD),
    "existing/curve/randomize": (ExistingModelSpec(0.7), synthetic_blinded_response(), DoubleClickPolicy.RANDOMIZE),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_z_scores_of_s_and_eta_are_standard(name):
    spec, detector, policy = CONFIGS[name]
    exact = chsh_statistics(joint_table(spec, STANDARD, detector, policy).mean(axis=0))
    z_s, z_eta = [], []
    for seed in SEEDS:
        summary = run(RunConfig(spec, STANDARD, TRIALS, seed, policy, detector))
        z_s.append((summary.s_value - exact.s_value) / summary.se_s)
        z_eta.append((summary.eta_symmetric - exact.eta_symmetric) / summary.se_eta_symmetric)
    for label, z in (("S", z_s), ("eta", z_eta)):
        sd, mean = statistics.stdev(z), statistics.fmean(z)
        assert abs(sd - 1.0) <= SD_TOLERANCE, (name, label, sd)
        assert abs(mean) <= MEAN_TOLERANCE, (name, label, mean)
