"""bellsim: local-model strategies that fake CHSH Bell violations.

Simulates how bright-light control of blinded single-photon detectors lets
a classical source reproduce Bell-test statistics through the detection
loophole, validates the Monte Carlo runs against closed-form predictions,
and reproduces the efficiency-versus-violation trade-off curves.
"""
from .analytic import (
    Prediction,
    ab_from_eta,
    existing_predict,
    improved_predict,
    p2_for_s,
    perfect_predict,
)
from .core import (
    CHSH_ORDER,
    Angle,
    CoincidenceCounts,
    DoubleClickPolicy,
    MeasurementSettings,
    Outcome,
    RunSummary,
    SettingPair,
    SettingTally,
    SimulationError,
    ValidationError,
    normalize_degrees,
)
from .detector import (
    Empirical,
    MalformedCurve,
    RampShape,
    StepThreshold,
    TwoThreshold,
    bundled_response_curve,
    click_probability,
    load_response_curve,
    read_response_csv,
)
from .engine import (
    BATCH_SIZE,
    NoSignallingReport,
    RunConfig,
    empirical_no_signalling,
    merge,
    no_signalling_from_tables,
    run,
)
from .inequalities import (
    AllZeroCoincidences,
    ChshCombination,
    SingularRatio,
    chsh_value,
    correlation_from_counts,
    gm_bound,
    nsim_ndif_ratio,
    symmetric_e_for_s,
)
from .optics import malus_split, pulse_response
from .strategies import (
    ExistingModelSpec,
    ImprovedModelSpec,
    InfeasibleGeometry,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    ControlRow,
    TwoQubitState,
    bell_phi_plus,
    control_pulse_for,
    feasible_intensity_window,
    perfect_joint_distribution,
    perfect_no_signalling_discrepancy,
    quantum_correlation,
    quantum_joint_probabilities,
)

__version__ = "0.1.0"
