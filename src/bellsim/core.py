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
    from .strategies import StrategySpec

__all__ = [
    "ValidationError",
    "SimulationError",
    "normalize_degrees",
    "Angle",
    "MeasurementSettings",
    "SettingPair",
    "CHSH_ORDER",
    "DoubleClickPolicy",
    "fold_doubles",
    "Counts",
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
    """One of the four joint basis choices; ``SettingPair((alice, bob))`` looks one up."""

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

#: Settings in the order their correlations enter the CHSH combination
#: (the last one carries the minus sign).
CHSH_ORDER = (SettingPair.A0B0, SettingPair.A1B0, SettingPair.A1B1, SettingPair.A0B1)


class DoubleClickPolicy(Enum):
    """How the analyzer reports a trial where both of its detectors fired.

    DISCARD maps the trial to inconclusive (but keeps a separate tally),
    RANDOMIZE assigns + or - with equal probability, FLAG reports the
    dedicated DOUBLE outcome so callers can post-select explicitly.
    """

    DISCARD = "discard"
    RANDOMIZE = "randomize"
    FLAG = "flag"


#: Folds a setting pair's 64 cells over party states to its 16 cells ``4 * a + b`` over outcome codes.
_FOLD = np.eye(16, dtype=np.int64)[[4 * (i % 4) + j % 4 for i in range(8) for j in range(8)]]


def fold_doubles(cells) -> np.ndarray:
    """Outcome-code table (..., 4, 4) of a party-state table (..., 8, 8).

    A party's state is ``code + 4 * double`` (see :mod:`bellsim.optics`);
    folding sums away whether both of its detectors fired. Counts stay int64.
    """
    cells = np.asarray(cells)
    return (cells.reshape(cells.shape[:-2] + (64,)) @ _FOLD).reshape(cells.shape[:-2] + (4, 4))


@dataclass(frozen=True, eq=False)
class Counts:
    """A run's outcome counts as one read-only int64 array.

    ``cells[k, i, j]`` counts the trials of the ``k``-th setting pair (in
    :class:`SettingPair` order) in which Alice ended in state ``i`` and Bob
    in state ``j``, states indexed ``code + 4 * double`` as in
    :mod:`bellsim.optics`: the layout of a compiled outcome table with its
    phases summed.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.array(self.cells)
        if cells.shape != (4, 8, 8) or cells.dtype.kind != "i" or (cells < 0).any():
            raise ValidationError(
                f"counts must be integers >= 0 of shape (4, 8, 8), got {cells.dtype} {cells.shape}"
            )
        cells = cells.astype(np.int64, copy=False)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def _fresh(cls, cells: np.ndarray) -> "Counts":
        """Counts of an int64 (4, 8, 8) array the engine has just summed; marked read-only, not re-checked."""
        cells.setflags(write=False)
        counts = object.__new__(cls)
        object.__setattr__(counts, "cells", cells)
        return counts

    @property
    def joint(self) -> np.ndarray:
        """Counts per setting pair over outcome codes (Alice, Bob): (4, 4, 4)."""
        return fold_doubles(self.cells)

    @property
    def doubles(self) -> np.ndarray:
        """Trials per setting pair in which some party's two detectors both fired: (4,)."""
        return self.cells.sum(axis=(1, 2)) - self.cells[:, :4, :4].sum(axis=(1, 2))

    @property
    def total_trials(self) -> int:
        return int(self.cells.sum())

    @property
    def total_coincidences(self) -> int:
        return int(self.joint[:, :2, :2].sum())

    @property
    def total_double_events(self) -> int:
        return int(self.doubles.sum())


def check_unit_interval(name: str, value: float) -> float:
    """``value`` as a float, or :class:`ValidationError` unless it is finite and in [0, 1]."""
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class RunSummary:
    """Statistics of one simulated run (or a merge of compatible runs).

    ``counts`` holds every trial's outcome; ``joint_counts`` its
    per-setting outcome-by-outcome tables (rows: Alice +, -, ?, D;
    columns: Bob likewise), which the no-signalling check reads. ``seed``
    is ``None`` for merged summaries whose inputs used different seeds.
    ``spec`` and ``detector_model`` are the strategy and the detector the
    counts were measured with; runs merge only on equal ones.
    """

    counts: Counts
    correlations: Mapping[SettingPair, float]
    s_value: float
    eta_alice: float
    eta_bob: float
    eta_symmetric: float
    se_s: float
    se_eta_symmetric: float
    n_trials: int
    seed: int | None
    spec: StrategySpec
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

    @classmethod
    def _fresh(cls, **fields) -> "RunSummary":
        """A summary of statistics the engine has just computed from counts; not re-checked, dicts not copied."""
        summary = object.__new__(cls)
        vars(summary).update(fields)
        return summary

    @property
    def strategy_label(self) -> str:
        return self.spec.label

    @property
    def total_double_events(self) -> int:
        return self.counts.total_double_events
