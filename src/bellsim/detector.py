"""Click-probability models for blinded single-photon detectors.

A blinded detector no longer responds to single photons; it fires when a
bright trigger pulse carries enough energy. The idealized model is a step
at a threshold intensity. Real devices have noise, which smears the step
into a ramp between a never-fires and an always-fires threshold, and the
measured response of an actual device can be loaded from a CSV table.

All intensities here are in threshold units unless a tabulated curve
supplies its own (opaque) energy axis.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .core import ValidationError

__all__ = [
    "MalformedCurve",
    "RampShape",
    "StepThreshold",
    "TwoThreshold",
    "Empirical",
    "DetectorModel",
    "click_probability",
    "load_response_curve",
    "read_response_csv",
    "bundled_response_curve",
]


class MalformedCurve(ValidationError):
    """Raised when a measured response curve fails validation."""


class RampShape(Enum):
    """Interpolation used between the two thresholds of a noisy detector."""

    LINEAR = "linear"
    TABULATED = "tabulated"


@dataclass(frozen=True, slots=True)
class StepThreshold:
    """Ideal control: click probability 0 below ``i_th``, 1 at or above it."""

    i_th: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_th) and self.i_th > 0.0):
            raise ValidationError(f"i_th must be finite and > 0, got {self.i_th!r}")


@dataclass(frozen=True)
class TwoThreshold:
    """Noisy control: certain silence below ``i_never``, certain click at ``i_always``.

    Between the thresholds the click probability rises from 0 to 1, either
    linearly or along a caller-supplied monotone ramp given as (fraction of
    the way across the band, probability) knots. The ramp must start at
    probability 0 and end at 1 so the model stays continuous in intent with
    its guaranteed endpoints.
    """

    i_never: float
    i_always: float
    interpolation: RampShape = RampShape.LINEAR
    ramp: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_never) and self.i_never >= 0.0):
            raise ValidationError(f"i_never must be finite and >= 0, got {self.i_never!r}")
        if not (math.isfinite(self.i_always) and self.i_always > self.i_never):
            raise ValidationError(
                f"i_always must exceed i_never, got i_never={self.i_never!r}, i_always={self.i_always!r}"
            )
        if self.interpolation is RampShape.LINEAR:
            if self.ramp is not None:
                raise ValidationError("a linear ramp takes no knot table")
            return
        if not self.ramp:
            raise ValidationError("tabulated interpolation requires ramp knots")
        knots = tuple((float(t), float(p)) for t, p in self.ramp)
        ts = [t for t, _ in knots]
        ps = [p for _, p in knots]
        if any(not (0.0 <= t <= 1.0) for t in ts):
            raise ValidationError("ramp fractions must lie in [0, 1]")
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValidationError("ramp fractions must be strictly increasing")
        if any(not (0.0 <= p <= 1.0) for p in ps):
            raise ValidationError("ramp probabilities must lie in [0, 1]")
        if any(p2 < p1 for p1, p2 in zip(ps, ps[1:])):
            raise ValidationError("ramp probabilities must be non-decreasing")
        if ts[0] == 0.0 and ps[0] != 0.0:
            raise ValidationError("ramp must start at probability 0")
        if ts[-1] == 1.0 and ps[-1] != 1.0:
            raise ValidationError("ramp must end at probability 1")
        if ts[0] > 0.0:
            knots = ((0.0, 0.0),) + knots
        if ts[-1] < 1.0:
            knots = knots + ((1.0, 1.0),)
        object.__setattr__(self, "ramp", knots)


@dataclass(frozen=True)
class Empirical:
    """Measured response: monotone piecewise-linear interpolation of a table.

    Below the first tabulated energy the click probability is 0; above the
    last it holds the final tabulated value. Energy units are whatever the
    table used; only the shape matters to the simulation.
    """

    curve: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "curve", tuple((float(e), float(p)) for e, p in self.curve))
        if len(self.curve) < 2:
            raise MalformedCurve("a response curve needs at least two points")
        energies = [e for e, _ in self.curve]
        probs = [p for _, p in self.curve]
        if any(not math.isfinite(e) for e in energies):
            raise MalformedCurve("curve energies must be finite")
        if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
            raise MalformedCurve("curve energies must be strictly increasing")
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise MalformedCurve("click probabilities must lie in [0, 1]")
        if any(p2 < p1 for p1, p2 in zip(probs, probs[1:])):
            raise MalformedCurve("click probabilities must be non-decreasing")


DetectorModel = Union[StepThreshold, TwoThreshold, Empirical]


def click_probability(model: DetectorModel, intensity):
    """Probability that ``model`` fires for a trigger of the given intensity.

    Accepts a scalar or an ndarray of intensities and returns the same
    shape. Monotone in intensity and always in [0, 1].
    """
    arr = np.asarray(intensity, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValidationError("intensity must be finite and >= 0")
    if isinstance(model, StepThreshold):
        out = (arr >= model.i_th).astype(float)
    elif isinstance(model, TwoThreshold):
        frac = (arr - model.i_never) / (model.i_always - model.i_never)
        frac = np.clip(frac, 0.0, 1.0)
        if model.interpolation is RampShape.LINEAR:
            out = frac
        else:
            ts = np.array([t for t, _ in model.ramp])
            ps = np.array([p for _, p in model.ramp])
            out = np.interp(frac, ts, ps)
    elif isinstance(model, Empirical):
        energies = np.array([e for e, _ in model.curve])
        probs = np.array([p for _, p in model.curve])
        out = np.interp(arr, energies, probs)
        out = np.where(arr < energies[0], 0.0, out)
    else:
        raise ValidationError(f"unknown detector model: {model!r}")
    if arr.ndim == 0:
        return float(out)
    return out


def load_response_curve(rows: Iterable[Sequence[float]]) -> Empirical:
    """Validate (energy, click_probability) rows into an :class:`Empirical` model."""
    return Empirical(tuple((float(e), float(p)) for e, p in rows))


_CSV_HEADER = ("energy", "click_probability")


def read_response_csv(path: str | Path) -> Empirical:
    """Read a response curve from a two-column CSV file.

    The file must be UTF-8 with a header row ``energy,click_probability``
    and ``.`` as the decimal separator. Blank lines are ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedCurve(f"{path}: empty file, expected header {','.join(_CSV_HEADER)}")
        if tuple(h.strip().lower() for h in header) != _CSV_HEADER:
            raise MalformedCurve(
                f"{path}: bad header {','.join(header)!r}, expected {','.join(_CSV_HEADER)!r}"
            )
        rows: list[tuple[float, float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or not any(cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise MalformedCurve(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise MalformedCurve(f"{path}:{lineno}: {exc}") from exc
    return load_response_curve(rows)


def bundled_response_curve() -> Empirical:
    """The synthetic example curve shipped with the package.

    Shaped like a blinded avalanche-photodiode response: full-intensity
    triggers always click and half-intensity triggers click with
    probability 0.40. Synthetic data, not a device measurement.
    """
    ref = resources.files("bellsim.data").joinpath("synthetic_blinded_response.csv")
    with resources.as_file(ref) as path:
        return read_response_csv(path)
