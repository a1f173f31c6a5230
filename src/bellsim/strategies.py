"""Adversarial source strategies and the honest entangled-pair baseline.

Every strategy is a spec of a finite mixture, so :func:`joint_table`
compiles it, with the settings, detector and policy, to an exact outcome
table of shape ``(phases, 4, 8, 8)``: for each trial-parity phase and each
setting pair (index ``2 * alice + bob``), the joint probabilities of the
two parties' states in the encoding of :mod:`bellsim.optics`. The engine
draws its counts from that table.

The local strategies state their locality structure once, in
:func:`_local_table`: the emission weights cannot see the settings, and
each party's response depends only on the emission and its own basis.

The pulse strategies split each table into weight-free components that
hold all the pulse physics, and a weight per component taken from the
spec. The components are cached per (settings, detector, policy, ...)
and read-only; a table is their weighted sum, so a sweep over the
weights evaluates the physics once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    Angle,
    DoubleClickPolicy,
    MeasurementSettings,
    Outcome,
    ValidationError,
    check_unit_interval,
    fold_doubles,
)
from .detector import DetectorModel, StepThreshold
from .inequalities import marginal_gaps
from .optics import N_STATES, OUT_INCONCLUSIVE, OUT_MINUS, OUT_PLUS, pulse_response

__all__ = [
    "InfeasibleGeometry",
    "ExistingModelSpec",
    "ImprovedModelSpec",
    "PerfectMode",
    "PerfectModelSpec",
    "QuantumSpec",
    "ControlRow",
    "CONTROL_ROWS",
    "control_row_probabilities",
    "feasible_intensity_window",
    "ControlGeometry",
    "control_geometry",
    "source_polarization_cells",
    "joint_table",
    "perfect_joint_distribution",
    "perfect_no_signalling_discrepancy",
    "TwoQubitState",
    "bell_phi_plus",
    "quantum_joint_probabilities",
    "quantum_correlation",
]


class InfeasibleGeometry(ValidationError):
    """No pulse intensity satisfies a control row's constraints for these angles."""


def _bases(settings: MeasurementSettings) -> tuple[tuple[Angle, Angle], tuple[Angle, Angle]]:
    """Each side's two analyzer angles: side 0 is Alice, side 1 Bob."""
    return (settings.alpha0, settings.alpha1), (settings.beta0, settings.beta1)


# ---------------------------------------------------------------------------
# Strategy parameter specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExistingModelSpec:
    """Deterministic-forcing source tuned to a per-setting correlation.

    The source emits one of sixteen polarization pairs; "similar" pairs get
    weight ``n_sim/4`` each, "different" pairs ``n_dif/4``, normalized so
    ``2(n_sim + n_dif) = 1`` and ``n_sim/n_dif = (1+E)/(1-E)``.
    """

    e_target: float

    def __post_init__(self) -> None:
        check_unit_interval("e_target", self.e_target)

    @property
    def n_sim(self) -> float:
        return (1.0 + self.e_target) / 4.0

    @property
    def n_dif(self) -> float:
        return (1.0 - self.e_target) / 4.0

    @property
    def label(self) -> str:
        return f"existing(e_target={self.e_target:.12g})"


def _trigger_window(settings: MeasurementSettings) -> tuple[float, float]:
    """The improved model's trigger intensities [1/cos^2(phi), 2), phi being
    the larger half-separation of a party's two analyzer angles."""
    phi = max(angle0.separation_to(angle1) / 2.0 for angle0, angle1 in _bases(settings))
    if not phi < 45.0:
        raise InfeasibleGeometry(f"analyzer angles {2 * phi:g} deg apart leave no trigger window; need < 90")
    return 1.0 / math.cos(math.radians(phi)) ** 2, 2.0


def _check_trigger(trigger_intensity: float, settings: MeasurementSettings) -> None:
    lo, hi = _trigger_window(settings)
    if not lo <= trigger_intensity < hi:
        raise ValidationError(f"trigger intensity must lie in [{lo!r}, {hi:g}), got {trigger_intensity!r}")


@dataclass(frozen=True, slots=True)
class ImprovedModelSpec:
    """Mixture of deterministic forcing (weight 1-p2) and midpoint pulses (p2).

    The shared trigger intensity must lie in the settings' window so a
    midpoint pulse always fires exactly one detector while a forced pulse
    still vanishes on basis mismatch.
    """

    p2: float
    trigger_intensity: float

    def __post_init__(self) -> None:
        check_unit_interval("p2", self.p2)

    @property
    def label(self) -> str:
        return f"improved(p2={self.p2:.12g}, trigger={self.trigger_intensity:.12g})"

    @classmethod
    def for_settings(
        cls,
        p2: float,
        settings: MeasurementSettings,
        trigger_intensity: float | None = None,
    ) -> "ImprovedModelSpec":
        """Build a spec whose trigger fits these analyzer angles.

        Without an explicit trigger intensity the midpoint of the feasible
        window is used, maximizing margin against detector noise.
        """
        if trigger_intensity is None:
            trigger_intensity = sum(_trigger_window(settings)) / 2.0
        _check_trigger(trigger_intensity, settings)
        return cls(p2=p2, trigger_intensity=trigger_intensity)


class PerfectMode(Enum):
    """How the perfect model produces outcomes.

    ANALYTIC_TABLE takes the controlled party's outcome distribution
    straight from (a, b); PHYSICAL_PULSES derives it from actual control
    pulses through the analyzer and detector models.
    """

    ANALYTIC_TABLE = "analytic"
    PHYSICAL_PULSES = "physical"


@dataclass(frozen=True, slots=True)
class PerfectModelSpec:
    """Perfect local model: conclusive with probability ``a`` on basis match
    at the controlled party, ``b`` (random sign) on mismatch; the other
    party is deterministic and always conclusive. With role reversal the
    controlled party alternates with the trial index (even trials control
    Alice, odd trials Bob), so the table has one phase per parity."""

    a: float
    b: float
    mode: PerfectMode = PerfectMode.ANALYTIC_TABLE
    role_reversal: bool = True

    def __post_init__(self) -> None:
        check_unit_interval("a", self.a)
        check_unit_interval("b", self.b)

    @property
    def label(self) -> str:
        return (
            f"perfect(a={self.a:.12g}, b={self.b:.12g}, mode={self.mode.value}, "
            f"role_reversal={self.role_reversal})"
        )


@dataclass(frozen=True, eq=False)
class QuantumSpec:
    """Honest baseline: a shared two-qubit state measured at true efficiency."""

    state: "TwoQubitState"
    eta_true: float = 1.0

    def __post_init__(self) -> None:
        check_unit_interval("eta_true", self.eta_true)

    @property
    def label(self) -> str:
        amps = ", ".join(f"{z:.6g}" for z in self.state.amplitudes)
        return f"quantum(eta_true={self.eta_true:.12g}, state=[{amps}])"


StrategySpec = ExistingModelSpec | ImprovedModelSpec | PerfectModelSpec | QuantumSpec


# ---------------------------------------------------------------------------
# Shared table plumbing
# ---------------------------------------------------------------------------


def _response(
    pol_deg, intensity, settings: MeasurementSettings, side: int,
    detector: DetectorModel, policy: DoubleClickPolicy,
) -> np.ndarray:
    """State distributions of pulses at one side's two bases: shape + (2, 8)."""
    return pulse_response(
        np.asarray(pol_deg)[..., None], np.asarray(intensity)[..., None],
        [angle.degrees for angle in _bases(settings)[side]], detector, policy,
    )


def _local_table(w: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> np.ndarray:
    """Joint table (..., 4 settings, 8, 8) of a local mixture.

    ``w`` (..., E) weighs the emissions and cannot depend on the settings;
    leading axes give one table per weighting. ``alice`` and ``bob``
    (E, 2 bases, 8) give each party's state distribution from the
    emission and its own basis alone.
    """
    return np.einsum("...e,eak,ebl->...abkl", w, alice, bob).reshape(
        w.shape[:-1] + (4, N_STATES, N_STATES)
    )


#: Geometries (settings, detector, policy, pulse parameters) kept per cached builder.
_CACHE_SIZE = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    array.setflags(write=False)
    return array


#: Swaps "+" and "-" and keeps whether both detectors fired.
_SWAP_SIGNS = np.array([1, 0, 2, 3, 5, 4, 6, 7])

#: Two emissions drawn with equal probability.
_HALVES = _frozen(np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# Existing model: deterministic forcing from a sixteen-cell source table
# ---------------------------------------------------------------------------

# Which of the 16 (alice pol, bob pol) cells produce equal-sign coincidences.
# Rows: a0, a0-perp, a1, a1-perp; columns: b0, b0-perp, b1, b1-perp.
_SIM_CELLS = frozenset(
    {(0, 0), (0, 3), (1, 1), (1, 2), (2, 0), (2, 2), (3, 1), (3, 3)}
)


def source_polarization_cells(settings: MeasurementSettings) -> list[tuple[Angle, Angle, bool]]:
    """The sixteen source polarization pairs with their similar/different role."""
    alice_pols, bob_pols = (
        (angle0, angle0.perpendicular(), angle1, angle1.perpendicular())
        for angle0, angle1 in _bases(settings)
    )
    return [
        (pa, pb, (i, j) in _SIM_CELLS)
        for i, pa in enumerate(alice_pols)
        for j, pb in enumerate(bob_pols)
    ]


@lru_cache(maxsize=_CACHE_SIZE)
def _existing_components(
    settings: MeasurementSettings, detector: DetectorModel, policy: DoubleClickPolicy
) -> np.ndarray:
    """The similar and the different cells' tables, (2, 1 phase, 4, 8, 8).

    Every cell is a threshold-intensity pulse pair in its polarizations
    and enters its role's table at weight 1/4, so ``(n_sim, n_dif)``
    weighs the two tables into the source's.
    """
    cells = source_polarization_cells(settings)
    alice = _response([pa.degrees for pa, _, _ in cells], 1.0, settings, 0, detector, policy)
    bob = _response([pb.degrees for _, pb, _ in cells], 1.0, settings, 1, detector, policy)
    similar = np.array([sim for _, _, sim in cells])
    return _frozen(_local_table(0.25 * np.array([similar, ~similar]), alice, bob)[:, None])


# ---------------------------------------------------------------------------
# Improved model: probabilistic mixture with midpoint pulses
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_CACHE_SIZE)
def _improved_components(
    settings: MeasurementSettings,
    detector: DetectorModel,
    policy: DoubleClickPolicy,
    trigger_intensity: float,
) -> np.ndarray:
    """The forced and the midpoint tables, (2, 1 phase, 4, 8, 8).

    Forcing is the existing model at ``e_target = 1``: its similar cells
    at ``n_sim = 1/2``. The midpoint pulse
    enters twice at weight 1/2, the second time with both parties' signs
    swapped: the joint flip balances ++ against -- while leaving every
    correlation at +1.
    """
    forced = 0.5 * _existing_components(settings, detector, policy)[0]
    mid_a, mid_b = (
        _response(angle0.midpoint_toward(angle1).degrees, trigger_intensity, settings, side,
                  detector, policy)
        for side, (angle0, angle1) in enumerate(_bases(settings))
    )
    midpoints = _local_table(
        _HALVES, np.array([mid_a, mid_a[:, _SWAP_SIGNS]]), np.array([mid_b, mid_b[:, _SWAP_SIGNS]])
    )
    return _frozen(np.array([forced, midpoints[None]]))


# ---------------------------------------------------------------------------
# Control-pulse table for the perfect model's controlled side
# ---------------------------------------------------------------------------


class ControlRow(Enum):
    """The four faked-state classes aimed at the controlled party.

    PLAIN_ALIGNED (probability a-b): pulse in the keyed basis, conclusive
    only on basis match. MIDPOINT_UP / MIDPOINT_DOWN (b/2 each): bisector
    pulses, conclusive in both bases, landing on opposite ports on
    mismatch. VACUUM (1-a): never detected.
    """

    PLAIN_ALIGNED = "plain-aligned"
    MIDPOINT_UP = "midpoint-up"
    MIDPOINT_DOWN = "midpoint-down"
    VACUUM = "vacuum"


CONTROL_ROWS = tuple(ControlRow)


def control_row_probabilities(a: float, b: float) -> tuple[float, float, float, float]:
    """Row probabilities (a-b, b/2, b/2, 1-a); requires a >= b."""
    check_unit_interval("a", a)
    check_unit_interval("b", b)
    if a < b:
        raise ValidationError(f"need a >= b for non-negative row probabilities, got a={a!r}, b={b!r}")
    return (a - b, b / 2.0, b / 2.0, 1.0 - a)


# Windows narrower than this (threshold units) are rounding slivers of a
# mathematically empty interval, e.g. [1/cos^2(45), 1/sin^2(45)).
_MIN_WINDOW_WIDTH = 1e-9


def _window_or_none(lo: float, hi: float) -> tuple[float, float] | None:
    return None if hi - lo <= _MIN_WINDOW_WIDTH else (lo, hi)


def _ramp_window(phi_deg: float) -> tuple[float, float] | None:
    c2 = math.cos(math.radians(phi_deg)) ** 2
    s2 = math.sin(math.radians(phi_deg)) ** 2
    if c2 == 0.0:
        return None
    lo = 1.0 / c2
    hi = math.inf if s2 == 0.0 else 1.0 / s2
    return _window_or_none(lo, hi)


def feasible_intensity_window(
    row: ControlRow, phi0_deg: float, phi1_deg: float
) -> tuple[float, float] | None:
    """Intensity interval [lo, hi) satisfying a control row's click constraints.

    ``phi0_deg`` is half the separation between the party's two analyzer
    angles; ``phi1_deg`` half the separation to the other angle's
    perpendicular. Intensities are in threshold units. Returns ``None``
    when the constraints are contradictory.
    """
    for name, phi in (("phi0_deg", phi0_deg), ("phi1_deg", phi1_deg)):
        if not (math.isfinite(phi) and 0.0 <= phi <= 90.0):
            raise ValidationError(f"{name} must lie in [0, 90], got {phi!r}")
    if row is ControlRow.VACUUM:
        return (0.0, math.inf)
    if row is ControlRow.MIDPOINT_UP:
        return _ramp_window(phi0_deg)
    if row is ControlRow.MIDPOINT_DOWN:
        return _ramp_window(phi1_deg)
    # Plain aligned pulse: must click on match, must vanish in both ports
    # on mismatch, where the offsets are 2*phi0 and 90 - 2*phi0.
    c2 = math.cos(math.radians(2.0 * phi0_deg)) ** 2
    s2 = math.sin(math.radians(2.0 * phi0_deg)) ** 2
    hi = math.inf
    if c2 > 0.0:
        hi = min(hi, 1.0 / c2)
    if s2 > 0.0:
        hi = min(hi, 1.0 / s2)
    return _window_or_none(1.0, hi)


# ---------------------------------------------------------------------------
# Perfect model
# ---------------------------------------------------------------------------


def _orientations(role_reversal: bool) -> tuple[bool, ...]:
    """Whether roles are reversed in each trial-parity phase."""
    return (False, True) if role_reversal else (False,)


def _deterministic(reversed_: bool) -> np.ndarray:
    """The other party's certain outcome per label and basis, (2, 2, 8).

    Keyed so the subtracted CHSH setting is the anti-correlated one in
    both orientations: the plain table puts the minus on (source 0,
    basis 1) at Bob; with roles reversed it must sit on (source 1,
    basis 0) at Alice, the transpose, or the reversed trials would
    cancel the plain trials' correlation at the subtracted setting.
    """
    codes = np.full((2, 2), OUT_PLUS)
    codes[(1, 0) if reversed_ else (0, 1)] = OUT_MINUS
    return np.eye(N_STATES)[codes]


def _perfect_phase(w: np.ndarray, controlled: np.ndarray, reversed_: bool) -> np.ndarray:
    """One phase's table(s) of emissions ordered by label first.

    ``controlled`` (E, 2 bases, 8) is the controlled party's state
    distribution per emission; the first half of the emissions carry
    label 0, the second half label 1. ``w`` weighs them as in
    :func:`_local_table`.
    """
    det = np.repeat(_deterministic(reversed_), len(controlled) // 2, axis=0)
    alice, bob = (det, controlled) if reversed_ else (controlled, det)
    return _local_table(w, alice, bob)


class ControlGeometry(NamedTuple):
    """The perfect model's control pulses, by side (0 = Alice, 1 = Bob).

    ``phi`` holds each side's (phi0, phi1) in degrees and ``windows`` its
    :func:`feasible_intensity_window` per row, in :data:`CONTROL_ROWS`
    order. ``pol`` (degrees) and ``intensity`` are (2 sides, 2 labels,
    4 rows). A pulse listed in ``infeasible`` as (side, row index, reason)
    cannot be sent and is left as vacuum.
    """

    phi: tuple[tuple[float, float], ...]
    windows: tuple[tuple[tuple[float, float] | None, ...], ...]
    pol: np.ndarray
    intensity: np.ndarray
    infeasible: tuple[tuple[int, int, str], ...]


@lru_cache(maxsize=_CACHE_SIZE)
def control_geometry(settings: MeasurementSettings) -> ControlGeometry:
    """Which pulse realises each control row on each side, for both sides.

    A row is sent at the midpoint of its feasible window, polarized along
    the keyed analyzer angle (plain-aligned) or a bisector toward the
    party's other angle (midpoint-up) or its perpendicular (midpoint-down).
    A window that is empty or unbounded has no such midpoint to send.
    """
    pol = np.zeros((2, 2, len(CONTROL_ROWS)))
    intensity = np.zeros_like(pol)
    phis, windows, infeasible = [], [], []
    for side, angles in enumerate(_bases(settings)):
        phi0 = angles[0].separation_to(angles[1]) / 2.0
        phi1 = angles[0].separation_to(angles[1].perpendicular()) / 2.0
        phis.append((phi0, phi1))
        windows.append(tuple(feasible_intensity_window(row, phi0, phi1) for row in CONTROL_ROWS))
        for k, (row, window) in enumerate(zip(CONTROL_ROWS, windows[-1])):
            if row is ControlRow.VACUUM:
                continue
            if window is None:
                infeasible.append((side, k, (
                    f"no intensity satisfies row {row.value} for "
                    f"phi0={phi0:g} deg, phi1={phi1:g} deg"
                )))
                continue
            midpoint = (window[0] + window[1]) / 2.0
            if math.isinf(midpoint):
                infeasible.append((side, k, f"row {row.value} has no finite intensity here"))
                continue
            for label in (0, 1):
                base, other = angles[label], angles[1 - label]
                if row is ControlRow.MIDPOINT_UP:
                    base = base.midpoint_toward(other)
                elif row is ControlRow.MIDPOINT_DOWN:
                    base = base.midpoint_toward(other.perpendicular())
                pol[side, label, k] = base.degrees
                intensity[side, label, k] = midpoint
    return ControlGeometry(
        tuple(phis), tuple(windows), _frozen(pol), _frozen(intensity), tuple(infeasible)
    )


#: Per control row, the weights of the (label, row) emissions that make
#: up its component: 1/2 for each label, on that row only.
_ROW_COMPONENTS = _frozen(0.5 * np.tile(np.eye(len(CONTROL_ROWS)), 2))


@lru_cache(maxsize=_CACHE_SIZE)
def _perfect_components(
    settings: MeasurementSettings,
    detector: DetectorModel,
    policy: DoubleClickPolicy,
    role_reversal: bool,
) -> np.ndarray:
    """The table of each control row alone, (4 rows, phases, 4, 8, 8)."""
    geometry = control_geometry(settings)
    phases = []
    for reversed_ in _orientations(role_reversal):
        side = int(reversed_)
        controlled = _response(
            geometry.pol[side], geometry.intensity[side], settings, side, detector, policy
        )
        phases.append(_perfect_phase(
            _ROW_COMPONENTS, controlled.reshape(-1, 2, N_STATES), reversed_
        ))
    return _frozen(np.stack(phases, axis=1))


def _perfect_analytic_table(a: float, b: float, role_reversal: bool) -> np.ndarray:
    """The perfect model's table with outcomes taken straight from (a, b)."""
    match = np.zeros(N_STATES)
    match[[OUT_PLUS, OUT_INCONCLUSIVE]] = a, 1.0 - a
    mismatch = np.zeros(N_STATES)
    mismatch[[OUT_PLUS, OUT_MINUS, OUT_INCONCLUSIVE]] = b / 2.0, b / 2.0, 1.0 - b
    controlled = np.array([[match, mismatch], [mismatch, match]])
    return np.stack([
        _perfect_phase(_HALVES, controlled, reversed_)
        for reversed_ in _orientations(role_reversal)
    ])


def perfect_joint_distribution(
    label: int,
    alice_basis: int,
    bob_basis: int,
    a: float,
    b: float,
    role_reversed: bool = False,
) -> dict[tuple[Outcome, Outcome], float]:
    """Exact joint outcome distribution for one source label and setting pair.

    Probabilities over {+, -, ?} x {+, -, ?}; zero-probability outcomes are
    omitted. This is the closed form the compiled tables are tested against.
    """
    check_unit_interval("a", a)
    check_unit_interval("b", b)
    if label not in (0, 1) or alice_basis not in (0, 1) or bob_basis not in (0, 1):
        raise ValidationError("label and basis indices must be 0 or 1")
    ctrl_basis = bob_basis if role_reversed else alice_basis
    det_basis = alice_basis if role_reversed else bob_basis
    if role_reversed:
        det_minus = label == 1 and det_basis == 0
    else:
        det_minus = label == 0 and det_basis == 1
    det_out = Outcome.MINUS if det_minus else Outcome.PLUS
    if ctrl_basis == label:
        ctrl_dist = {Outcome.PLUS: a, Outcome.INCONCLUSIVE: 1.0 - a}
    else:
        ctrl_dist = {
            Outcome.PLUS: b / 2.0,
            Outcome.MINUS: b / 2.0,
            Outcome.INCONCLUSIVE: 1.0 - b,
        }
    dist: dict[tuple[Outcome, Outcome], float] = {}
    for ctrl_out, p in ctrl_dist.items():
        if p == 0.0:
            continue
        key = (det_out, ctrl_out) if role_reversed else (ctrl_out, det_out)
        dist[key] = dist.get(key, 0.0) + p
    return dist


def perfect_no_signalling_discrepancy(a: float, b: float, role_reversal: bool = False) -> float:
    """Largest cross-setting change of either party's outcome marginals.

    Exactly zero for every (a, b): each party's marginal depends only on
    its own basis and the source label. Computed numerically, on the
    phase-averaged analytic table, as the oracle for the no-signalling
    acceptance check.
    """
    check_unit_interval("a", a)
    check_unit_interval("b", b)
    table = _perfect_analytic_table(a, b, role_reversal).mean(axis=0)
    return float(marginal_gaps(fold_doubles(table))[0].max())


# ---------------------------------------------------------------------------
# Honest quantum baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A normalized two-qubit polarization state (amplitude order HH, HV, VH, VV)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValidationError(f"state needs 4 amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(f"state must be normalized, got |psi|^2 = {norm!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def rotated(self, alice_deg: float = 0.0, bob_deg: float = 0.0) -> "TwoQubitState":
        """Apply a polarization-plane rotation to each qubit."""
        for party, deg in (("alice", alice_deg), ("bob", bob_deg)):
            if not math.isfinite(deg):
                raise ValidationError(f"{party} rotation must be finite, got {deg!r}")

        def rot(deg: float) -> np.ndarray:
            t = math.radians(deg)
            return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

        return TwoQubitState(np.kron(rot(alice_deg), rot(bob_deg)) @ self.amplitudes)


def bell_phi_plus() -> TwoQubitState:
    """(|HH> + |VV>) / sqrt(2): perfectly correlated in every shared linear basis."""
    return TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def _basis_vectors(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    t = math.radians(theta_deg)
    return (
        np.array([math.cos(t), math.sin(t)]),
        np.array([-math.sin(t), math.cos(t)]),
    )


def quantum_joint_probabilities(alpha: Angle, beta: Angle, state: TwoQubitState) -> np.ndarray:
    """2x2 joint outcome probabilities (rows: Alice +/-, columns: Bob +/-)."""
    a_plus, a_minus = _basis_vectors(alpha.degrees)
    b_plus, b_minus = _basis_vectors(beta.degrees)
    probs = np.empty((2, 2))
    for i, va in enumerate((a_plus, a_minus)):
        for j, vb in enumerate((b_plus, b_minus)):
            amp = np.kron(va, vb) @ state.amplitudes
            probs[i, j] = float(np.abs(amp) ** 2)
    return probs / probs.sum()


def quantum_correlation(alpha: Angle, beta: Angle, state: TwoQubitState) -> float:
    """E(alpha, beta) from the full state-vector joint distribution."""
    p = quantum_joint_probabilities(alpha, beta, state)
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


def _quantum_table(spec: QuantumSpec, settings: MeasurementSettings) -> np.ndarray:
    """Joint outcomes of the state, then each side erased independently at 1 - eta."""
    eta = spec.eta_true
    erasure = np.zeros((2, N_STATES))  # +/- before erasure -> state after
    erasure[0, OUT_PLUS] = erasure[1, OUT_MINUS] = eta
    erasure[:, OUT_INCONCLUSIVE] = 1.0 - eta
    table = np.empty((4, N_STATES, N_STATES))
    for a_i in (0, 1):
        for b_i in (0, 1):
            p = quantum_joint_probabilities(settings.alice_angle(a_i), settings.bob_angle(b_i), spec.state)
            table[2 * a_i + b_i] = erasure.T @ p @ erasure
    return table[None]


# ---------------------------------------------------------------------------
# From spec to table
# ---------------------------------------------------------------------------


def joint_table(
    spec: StrategySpec,
    settings: MeasurementSettings,
    detector: DetectorModel = StepThreshold(),
    policy: DoubleClickPolicy = DoubleClickPolicy.DISCARD,
) -> np.ndarray:
    """The exact outcome table of ``spec`` at these angles, detector and policy.

    Returns a fresh array of shape ``(phases, 4, 8, 8)``; see the module
    docstring. Raises :class:`ValidationError` (:class:`InfeasibleGeometry`
    where the angles admit no pulse) when the spec cannot run at
    ``settings``: an improved trigger outside their window, or a physical
    perfect control row sent with positive probability that they cannot
    support on a side the model controls.
    """
    if isinstance(spec, ExistingModelSpec):
        components = _existing_components(settings, detector, policy)
        return np.tensordot(np.array([spec.n_sim, spec.n_dif]), components, 1)
    if isinstance(spec, ImprovedModelSpec):
        _check_trigger(spec.trigger_intensity, settings)
        components = _improved_components(settings, detector, policy, spec.trigger_intensity)
        return np.tensordot(np.array([1.0 - spec.p2, spec.p2]), components, 1)
    if isinstance(spec, PerfectModelSpec) and spec.mode is PerfectMode.PHYSICAL_PULSES:
        weights = np.array(control_row_probabilities(spec.a, spec.b))
        for side, k, reason in control_geometry(settings).infeasible:
            if (side == 0 or spec.role_reversal) and weights[k] > 0.0:
                raise InfeasibleGeometry(reason)
        components = _perfect_components(settings, detector, policy, spec.role_reversal)
        return np.tensordot(weights, components, 1)
    if isinstance(spec, PerfectModelSpec):
        return _perfect_analytic_table(spec.a, spec.b, spec.role_reversal)
    if isinstance(spec, QuantumSpec):
        return _quantum_table(spec, settings)
    raise ValidationError(f"unknown strategy spec: {spec!r}")


# The benchmark's set-up probe (bench/setup_probe.py) builds each config's
# strategy through this name; it goes once that probe calls joint_table.
build_strategy = joint_table
