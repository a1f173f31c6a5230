"""Adversarial source strategies and the honest entangled-pair baseline.

Every strategy is a spec of a finite mixture, so :func:`joint_table`
compiles it, with the settings, detector and policy, to an exact outcome
table of shape ``(phases, 4, 8, 8)``: for each trial-parity phase and each
setting pair (index ``2 * alice + bob``), the joint probabilities of the
two parties' states in the encoding of :mod:`bellsim.optics`. The engine
draws its counts from that table.

The four local models (existing, improved, and perfect in either mode)
are each one function to their hidden-variable decomposition: a
weight-free group matrix ``(K, E)`` over emissions, and per phase each
party's state distribution from the emission and its own basis alone,
``(phases, E, 2, 8)``. :func:`_local_table` states the locality once: the
emission weights cannot see the settings. One cache, :func:`_components`,
turns a decomposition into the read-only table of each group alone, and
a spec supplies the K group weights, so a table is :func:`_mix` of the
two and a sweep over the weights evaluates the pulse physics once. The
perfect model's pulses are cached per settings in :func:`control_geometry`,
and the quantum baseline's state-vector probabilities per state and
settings in :func:`_quantum_outcomes`; a quantum run applies only its
``eta_true`` erasure.
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


@dataclass(frozen=True)
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


#: Entries kept per cache: decompositions (a builder and its key), or settings.
_CACHE_SIZE = 64


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    array.setflags(write=False)
    return array


@lru_cache(maxsize=_CACHE_SIZE)
def _components(build, *key) -> np.ndarray:
    """The table of each group of ``build(*key)`` alone, (K, phases, 4, 8, 8).

    ``build`` returns a local model's decomposition ``(groups (K, E), alice
    (phases, E, 2, 8), bob (phases, E, 2, 8))``.
    """
    groups, alice, bob = build(*key)
    return _frozen(np.stack([_local_table(groups, a, b) for a, b in zip(alice, bob)], axis=1))


def _mix(weights, components: np.ndarray) -> np.ndarray:
    """The fresh table ``sum_k weights[k] * components[k]``."""
    return (np.array(weights) @ components.reshape(len(weights), -1)).reshape(components.shape[1:])


#: Swaps "+" and "-" and keeps whether both detectors fired.
_SWAP_SIGNS = np.array([1, 0, 2, 3, 5, 4, 6, 7])


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


def _existing_model(settings: MeasurementSettings, detector: DetectorModel, policy: DoubleClickPolicy):
    """The similar (group 0) and the different (group 1) cells, one phase.

    Every cell is a threshold-intensity pulse pair in its polarizations
    and enters its role's group at weight 1/4, so ``(n_sim, n_dif)``
    weighs the two groups into the source's table.
    """
    cells = source_polarization_cells(settings)
    alice = _response([pa.degrees for pa, _, _ in cells], 1.0, settings, 0, detector, policy)
    bob = _response([pb.degrees for _, pb, _ in cells], 1.0, settings, 1, detector, policy)
    similar = np.array([sim for _, _, sim in cells])
    return 0.25 * np.array([similar, ~similar]), alice[None], bob[None]


# ---------------------------------------------------------------------------
# Improved model: probabilistic mixture with midpoint pulses
# ---------------------------------------------------------------------------


def _improved_model(
    settings: MeasurementSettings, detector: DetectorModel, policy: DoubleClickPolicy, trigger: float
):
    """The forced (group 0) and the midpoint (group 1) emissions, one phase.

    Forcing is the existing model at ``e_target = 1``: its 16 cells, the
    similar ones at ``n_sim / 4 = 1/8``. The midpoint pulse enters twice
    at weight 1/2, the second time with both parties' signs swapped: the
    joint flip balances ++ against -- while leaving every correlation at +1.
    """
    (similar, _), *cells = _existing_model(settings, detector, policy)
    parties = []
    for side, (angle0, angle1) in enumerate(_bases(settings)):
        mid = _response(angle0.midpoint_toward(angle1).degrees, trigger, settings, side, detector, policy)
        parties.append(np.concatenate([cells[side], [[mid, mid[:, _SWAP_SIGNS]]]], axis=1))
    return np.block([[similar / 2.0, np.zeros(2)], [np.zeros_like(similar), np.full(2, 0.5)]]), *parties


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


def _shares(offset_deg: float) -> tuple[float, float]:
    """(cos^2, sin^2) of ``offset_deg``: the shares of a pulse's intensity in a port
    whose axis is that far from its polarization, and in the other port."""
    return math.cos(math.radians(offset_deg)) ** 2, math.sin(math.radians(offset_deg)) ** 2


def _window(lit: float, *dark: float) -> tuple[float, float] | None:
    """The intensities [1/lit, min(1/d for d in dark if d > 0)) at which a port passing the
    share ``lit`` clicks and ports passing the shares ``dark`` stay dark; None if too narrow."""
    lo = 1.0 / lit
    hi = min((1.0 / d for d in dark if d > 0.0), default=math.inf)
    return None if hi - lo <= _MIN_WINDOW_WIDTH else (lo, hi)


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
    if row is ControlRow.PLAIN_ALIGNED:
        # Must click on match, must vanish in both ports on mismatch, where
        # the offsets are 2*phi0 and 90 - 2*phi0.
        return _window(1.0, *_shares(2.0 * phi0_deg))
    # A bisector pulse sits phi from the analyzer axis it must click in.
    return _window(*_shares(phi0_deg if row is ControlRow.MIDPOINT_UP else phi1_deg))


# ---------------------------------------------------------------------------
# Perfect model
# ---------------------------------------------------------------------------


def _perfect_model(controlled: list[np.ndarray]):
    """The perfect model's four parts (groups), one phase per controlled side.

    Phase ``p`` controls side ``p`` (1 = Bob only with role reversal), whose
    states per label, part and basis are ``controlled[p]`` (2, 4, 2, 8).
    The emissions are the (label, part) pairs; a part's group draws each
    label at 1/2. The other party is certain, keyed so the subtracted CHSH
    setting is the anti-correlated one in both orientations: the plain
    phase puts the minus on (label 0, basis 1) at Bob; with roles reversed
    it must sit on (label 1, basis 0) at Alice, the transpose, or the
    reversed trials would cancel the plain trials' correlation there.
    """
    alice, bob = [], []
    for reversed_, emissions in zip((False, True), controlled):
        codes = np.full((2, 2), OUT_PLUS)
        codes[(1, 0) if reversed_ else (0, 1)] = OUT_MINUS
        certain = np.repeat(np.eye(N_STATES)[codes], 4, axis=0)
        emissions = emissions.reshape(-1, 2, N_STATES)
        alice.append(certain if reversed_ else emissions)
        bob.append(emissions if reversed_ else certain)
    return 0.5 * np.tile(np.eye(4), 2), np.array(alice), np.array(bob)


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


def _physical_model(
    settings: MeasurementSettings, detector: DetectorModel, policy: DoubleClickPolicy, role_reversal: bool
):
    """The control rows' pulses of :func:`control_geometry` as the four parts."""
    geometry = control_geometry(settings)
    return _perfect_model([
        _response(geometry.pol[side], geometry.intensity[side], settings, side, detector, policy)
        for side in range(1 + role_reversal)
    ])


def _analytic_model(role_reversal: bool):
    """The four parts for weights ``(a, 1 - a, b/2, 1 - b)``.

    The controlled side reports "+" (part 0) or "?" (part 1) in the label's
    basis, and "+" and "-" (part 2) or "?" (part 3) in the other.
    """
    controlled = np.zeros((2, 4, 2, N_STATES))
    for label in (0, 1):
        match, mismatch = controlled[label, :, label], controlled[label, :, 1 - label]
        match[0, OUT_PLUS] = match[1, OUT_INCONCLUSIVE] = 1.0
        mismatch[2, [OUT_PLUS, OUT_MINUS]] = mismatch[3, OUT_INCONCLUSIVE] = 1.0
    return _perfect_model([controlled] * (1 + role_reversal))


def perfect_no_signalling_discrepancy(a: float, b: float, role_reversal: bool = False) -> float:
    """Largest cross-setting change of either party's outcome marginals.

    Exactly zero for every (a, b): each party's marginal depends only on
    its own basis and the source label. Computed numerically, on the
    phase-averaged analytic table, as the oracle for the no-signalling
    acceptance check.
    """
    spec = PerfectModelSpec(a, b, role_reversal=role_reversal)
    table = joint_table(spec, None).mean(axis=0)  # the analytic table reads no settings
    return float(marginal_gaps(fold_doubles(table))[0].max())


# ---------------------------------------------------------------------------
# Honest quantum baseline
# ---------------------------------------------------------------------------


def _rotation(deg: float) -> np.ndarray:
    """The 2x2 rotation of the polarization plane by ``deg`` degrees."""
    t = math.radians(deg)
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


@dataclass(frozen=True)
class TwoQubitState:
    """A normalized two-qubit polarization state (amplitude order HH, HV, VH, VV).

    The amplitudes are stored as a tuple of complex, so a state parsed twice is one value.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise ValidationError(f"state needs 4 amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-9:
            raise ValidationError(f"state must be normalized, got |psi|^2 = {norm!r}")
        object.__setattr__(self, "amplitudes", tuple(amps.tolist()))

    def rotated(self, alice_deg: float = 0.0, bob_deg: float = 0.0) -> "TwoQubitState":
        """Apply a polarization-plane rotation to each qubit."""
        for party, deg in (("alice", alice_deg), ("bob", bob_deg)):
            if not math.isfinite(deg):
                raise ValidationError(f"{party} rotation must be finite, got {deg!r}")
        return TwoQubitState(np.kron(_rotation(alice_deg), _rotation(bob_deg)) @ self.amplitudes)


def bell_phi_plus() -> TwoQubitState:
    """(|HH> + |VV>) / sqrt(2): perfectly correlated in every shared linear basis."""
    return TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def quantum_joint_probabilities(alpha: Angle, beta: Angle, state: TwoQubitState) -> np.ndarray:
    """2x2 joint outcome probabilities (rows: Alice +/-, columns: Bob +/-)."""
    probs = np.empty((2, 2))
    # The rows of a transposed rotation are the analyzer's +/- polarization vectors.
    for i, va in enumerate(_rotation(alpha.degrees).T):
        for j, vb in enumerate(_rotation(beta.degrees).T):
            amp = np.kron(va, vb) @ state.amplitudes
            probs[i, j] = float(np.abs(amp) ** 2)
    return probs / probs.sum()


def quantum_correlation(alpha: Angle, beta: Angle, state: TwoQubitState) -> float:
    """E(alpha, beta) from the full state-vector joint distribution."""
    p = quantum_joint_probabilities(alpha, beta, state)
    return float(p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0])


@lru_cache(maxsize=_CACHE_SIZE)
def _quantum_outcomes(state: TwoQubitState, settings: MeasurementSettings) -> np.ndarray:
    """The state's +/- joint probabilities per setting pair, (4, 2, 2): the weight-free part."""
    return _frozen(np.array([
        quantum_joint_probabilities(settings.alice_angle(a_i), settings.bob_angle(b_i), state)
        for a_i in (0, 1) for b_i in (0, 1)
    ]))


def _quantum_table(spec: QuantumSpec, settings: MeasurementSettings) -> np.ndarray:
    """Joint outcomes of the state, then each side erased independently at 1 - eta."""
    eta = spec.eta_true
    erasure = np.zeros((2, N_STATES))  # +/- before erasure -> state after
    erasure[0, OUT_PLUS] = erasure[1, OUT_MINUS] = eta
    erasure[:, OUT_INCONCLUSIVE] = 1.0 - eta
    return (erasure.T @ _quantum_outcomes(spec.state, settings) @ erasure)[None]  # a product per setting pair


# ---------------------------------------------------------------------------
# From spec to table
# ---------------------------------------------------------------------------


def _decompose(
    spec: StrategySpec, settings: MeasurementSettings, detector: DetectorModel, policy: DoubleClickPolicy
):
    """A local spec's group weights, and the builder and key of its decomposition."""
    if isinstance(spec, ExistingModelSpec):
        return (spec.n_sim, spec.n_dif), _existing_model, (settings, detector, policy)
    if isinstance(spec, ImprovedModelSpec):
        _check_trigger(spec.trigger_intensity, settings)
        return (1.0 - spec.p2, spec.p2), _improved_model, (settings, detector, policy, spec.trigger_intensity)
    if isinstance(spec, PerfectModelSpec) and spec.mode is PerfectMode.PHYSICAL_PULSES:
        weights = control_row_probabilities(spec.a, spec.b)
        for side, k, reason in control_geometry(settings).infeasible:
            if (side == 0 or spec.role_reversal) and weights[k] > 0.0:
                raise InfeasibleGeometry(reason)
        return weights, _physical_model, (settings, detector, policy, spec.role_reversal)
    if isinstance(spec, PerfectModelSpec):
        return (spec.a, 1.0 - spec.a, spec.b / 2.0, 1.0 - spec.b), _analytic_model, (spec.role_reversal,)
    raise ValidationError(f"unknown strategy spec: {spec!r}")


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
    if isinstance(spec, QuantumSpec):
        return _quantum_table(spec, settings)
    weights, build, key = _decompose(spec, settings, detector, policy)
    return _mix(weights, _components(build, *key))


# The benchmark's set-up probe (bench/setup_probe.py) builds each config's
# strategy through this name; it goes once that probe calls joint_table.
build_strategy = joint_table
