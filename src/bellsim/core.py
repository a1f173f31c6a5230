"""Shared value types for the Bell-test simulator.

Conventions used throughout the package:

* Polarization angles are plane angles in degrees. Polarization is
  180-degree periodic, so every angle is normalized to the half-open
  interval [-90, 90).
* Light intensities are dimensionless, expressed as multiples of the
  ideal blinded-detector click threshold.

All types here are immutable value objects whose constructors enforce
their invariants; they carry no physics beyond that.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from .detector import DetectorModel

__all__ = [
    "ValidationError",
    "SimulationError",
    "normalize_degrees",
    "Angle",
    "MeasurementSettings",
    "SettingPair",
    "CHSH_ORDER",
    "Outcome",
    "DoubleClickPolicy",
    "SettingTally",
    "CoincidenceCounts",
    "RunSummary",
    "check_unit_interval",
]


class ValidationError(ValueError):
    """Raised when an input violates a documented invariant or precondition."""


class SimulationError(RuntimeError):
    """Raised when a simulation produces data that cannot be analyzed."""


def normalize_degrees(degrees: float) -> float:
    """Map a polarization angle onto the canonical interval [-90, 90).

    Idempotent: normalizing an already-normalized angle is a no-op.
    """
    return (float(degrees) + 90.0) % 180.0 - 90.0


@dataclass(frozen=True, slots=True)
class Angle:
    """A linear polarization angle in degrees, stored normalized to [-90, 90)."""

    degrees: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.degrees):
            raise ValidationError(f"angle must be finite, got {self.degrees!r}")
        object.__setattr__(self, "degrees", normalize_degrees(self.degrees))

    def perpendicular(self) -> "Angle":
        return Angle(self.degrees + 90.0)

    def separation_to(self, other: "Angle") -> float:
        """Smallest angle between the two polarization axes, in [0, 90] degrees."""
        return abs(normalize_degrees(self.degrees - other.degrees))

    def midpoint_toward(self, other: "Angle") -> "Angle":
        """Bisector of the short arc from this axis to ``other``.

        The result is within 45 degrees of both axes, which is the branch
        every control strategy in this package relies on.
        """
        half = normalize_degrees(other.degrees - self.degrees) / 2.0
        return Angle(self.degrees + half)

    def __str__(self) -> str:
        return f"{self.degrees:g}°"


@dataclass(frozen=True, slots=True)
class MeasurementSettings:
    """The four analyzer angles of a two-party, two-setting test."""

    alpha0: Angle
    alpha1: Angle
    beta0: Angle
    beta1: Angle

    def __post_init__(self) -> None:
        if self.alpha0 == self.alpha1:
            raise ValidationError("alpha0 and alpha1 must differ as normalized angles")
        if self.beta0 == self.beta1:
            raise ValidationError("beta0 and beta1 must differ as normalized angles")

    @classmethod
    def from_degrees(cls, alpha0: float, alpha1: float, beta0: float, beta1: float) -> "MeasurementSettings":
        return cls(Angle(alpha0), Angle(alpha1), Angle(beta0), Angle(beta1))

    def alice_angle(self, basis: int) -> Angle:
        return self.alpha1 if basis else self.alpha0

    def bob_angle(self, basis: int) -> Angle:
        return self.beta1 if basis else self.beta0


class SettingPair(Enum):
    """One of the four joint basis choices (Alice index, Bob index)."""

    A0B0 = (0, 0)
    A0B1 = (0, 1)
    A1B0 = (1, 0)
    A1B1 = (1, 1)

    @property
    def alice(self) -> int:
        return self.value[0]

    @property
    def bob(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return f"a{self.value[0]}b{self.value[1]}"

    @classmethod
    def from_indices(cls, alice: int, bob: int) -> "SettingPair":
        return _PAIR_BY_INDEX[(alice, bob)]


_PAIR_BY_INDEX = {pair.value: pair for pair in SettingPair}

#: Settings in the order their correlations enter the CHSH combination
#: (the last one carries the minus sign).
CHSH_ORDER = (SettingPair.A0B0, SettingPair.A1B0, SettingPair.A1B1, SettingPair.A0B1)


class Outcome(Enum):
    """Result of one party's measurement of one trial."""

    PLUS = "+"
    MINUS = "-"
    INCONCLUSIVE = "?"
    DOUBLE = "D"

    @property
    def conclusive(self) -> bool:
        return self in (Outcome.PLUS, Outcome.MINUS)


class DoubleClickPolicy(Enum):
    """How the analyzer reports a trial where both of its detectors fired.

    DISCARD maps the trial to inconclusive (but keeps a separate tally),
    RANDOMIZE assigns + or - with equal probability, FLAG reports the
    dedicated DOUBLE outcome so callers can post-select explicitly.
    """

    DISCARD = "discard"
    RANDOMIZE = "randomize"
    FLAG = "flag"


def _check_count(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer count, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return int(value)


@dataclass(frozen=True, slots=True)
class SettingTally:
    """Outcome bookkeeping for the trials routed to one joint setting.

    ``n_double_events`` counts trials in which at least one analyzer saw
    both of its detectors fire. When ``doubles_excluded`` is true (flag
    policy) those trials sit outside the other categories; otherwise the
    policy already folded them into the regular categories and the sum of
    those categories alone equals ``n_trials``.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int
    n_alice_only: int
    n_bob_only: int
    n_neither: int
    n_trials: int
    n_double_events: int = 0
    doubles_excluded: bool = False

    def __post_init__(self) -> None:
        for name in ("n_pp", "n_pm", "n_mp", "n_mm", "n_alice_only",
                     "n_bob_only", "n_neither", "n_trials", "n_double_events"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        partitioned = (self.n_pp + self.n_pm + self.n_mp + self.n_mm
                       + self.n_alice_only + self.n_bob_only + self.n_neither)
        expected = self.n_trials - (self.n_double_events if self.doubles_excluded else 0)
        if partitioned != expected:
            raise ValidationError(
                f"outcome categories sum to {partitioned} but should sum to {expected} "
                f"for {self.n_trials} trials (doubles_excluded={self.doubles_excluded})"
            )
        if not self.doubles_excluded and self.n_double_events > self.n_trials:
            raise ValidationError("more double events than trials")

    @property
    def n_coincidences(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    @property
    def n_alice_conclusive(self) -> int:
        return self.n_coincidences + self.n_alice_only

    @property
    def n_bob_conclusive(self) -> int:
        return self.n_coincidences + self.n_bob_only

    def add(self, other: "SettingTally") -> "SettingTally":
        if self.doubles_excluded != other.doubles_excluded:
            raise ValidationError("cannot add tallies with different double-click accounting")
        return SettingTally(
            n_pp=self.n_pp + other.n_pp,
            n_pm=self.n_pm + other.n_pm,
            n_mp=self.n_mp + other.n_mp,
            n_mm=self.n_mm + other.n_mm,
            n_alice_only=self.n_alice_only + other.n_alice_only,
            n_bob_only=self.n_bob_only + other.n_bob_only,
            n_neither=self.n_neither + other.n_neither,
            n_trials=self.n_trials + other.n_trials,
            n_double_events=self.n_double_events + other.n_double_events,
            doubles_excluded=self.doubles_excluded,
        )


@dataclass(frozen=True)
class CoincidenceCounts:
    """Per-setting tallies for a full run; all four settings must be present."""

    per_setting: Mapping[SettingPair, SettingTally]

    def __post_init__(self) -> None:
        missing = [p.label for p in SettingPair if p not in self.per_setting]
        if missing:
            raise ValidationError(f"missing settings in counts: {', '.join(missing)}")
        extra = [k for k in self.per_setting if not isinstance(k, SettingPair)]
        if extra:
            raise ValidationError(f"unknown setting keys in counts: {extra!r}")
        object.__setattr__(self, "per_setting", dict(self.per_setting))

    def __getitem__(self, pair: SettingPair) -> SettingTally:
        return self.per_setting[pair]

    @property
    def total_trials(self) -> int:
        return sum(t.n_trials for t in self.per_setting.values())

    @property
    def total_coincidences(self) -> int:
        return sum(t.n_coincidences for t in self.per_setting.values())

    @property
    def total_double_events(self) -> int:
        return sum(t.n_double_events for t in self.per_setting.values())


def check_unit_interval(name: str, value: float) -> float:
    """``value`` as a float, or :class:`ValidationError` unless it is finite and in [0, 1]."""
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class RunSummary:
    """Statistics of one simulated run (or a merge of compatible runs).

    ``joint_counts`` keeps the full per-setting outcome-by-outcome tables
    (rows: Alice +, -, ?, D; columns: Bob likewise) for diagnostics such
    as the no-signalling check. ``seed`` is ``None`` for merged summaries
    whose inputs used different seeds. ``detector_model`` is the detector
    the counts were measured with; runs merge only on the same one.
    """

    counts: CoincidenceCounts
    correlations: Mapping[SettingPair, float]
    s_value: float
    eta_alice: float
    eta_bob: float
    eta_symmetric: float
    se_s: float
    se_eta_symmetric: float
    n_trials: int
    seed: int | None
    strategy_label: str
    settings: MeasurementSettings
    double_click_policy: DoubleClickPolicy
    joint_counts: Mapping[SettingPair, np.ndarray]
    detector_model: DetectorModel

    def __post_init__(self) -> None:
        for pair, e in self.correlations.items():
            if not (math.isfinite(e) and -1.0 <= e <= 1.0):
                raise ValidationError(f"correlation for {pair.label} out of range: {e!r}")
        if not (math.isfinite(self.s_value) and -4.0 <= self.s_value <= 4.0):
            raise ValidationError(f"s_value out of range: {self.s_value!r}")
        check_unit_interval("eta_alice", self.eta_alice)
        check_unit_interval("eta_bob", self.eta_bob)
        check_unit_interval("eta_symmetric", self.eta_symmetric)
        object.__setattr__(self, "correlations", dict(self.correlations))
        object.__setattr__(self, "joint_counts", dict(self.joint_counts))

    @property
    def total_double_events(self) -> int:
        return self.counts.total_double_events
