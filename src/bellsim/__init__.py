"""bellsim: local-model strategies that fake CHSH Bell violations.

Simulates how bright-light control of blinded single-photon detectors lets
a classical source reproduce Bell-test statistics through the detection
loophole, validates the Monte Carlo runs against closed-form predictions,
and reproduces the efficiency-versus-violation trade-off curves.

The package namespace holds what a run and its checks need. Detectors,
optics, the control-pulse geometry and the other oracles are in the
submodules, e.g. ``bellsim.detector`` and ``bellsim.strategies``.
"""
from .analytic import ab_from_eta, improved_predict, perfect_predict
from .core import MeasurementSettings, SettingPair
from .engine import RunConfig, empirical_no_signalling, merge, run
from .inequalities import correlation_from_counts, nsim_ndif_ratio
from .strategies import (
    ExistingModelSpec, ImprovedModelSpec, PerfectMode, PerfectModelSpec, QuantumSpec,
    bell_phi_plus, perfect_no_signalling_discrepancy, quantum_correlation,
)

__all__ = [
    "ab_from_eta", "improved_predict", "perfect_predict",
    "MeasurementSettings", "SettingPair",
    "RunConfig", "empirical_no_signalling", "merge", "run",
    "correlation_from_counts", "nsim_ndif_ratio",
    "ExistingModelSpec", "ImprovedModelSpec", "PerfectMode", "PerfectModelSpec", "QuantumSpec",
    "bell_phi_plus", "perfect_no_signalling_discrepancy", "quantum_correlation",
]

__version__ = "0.2.0"
