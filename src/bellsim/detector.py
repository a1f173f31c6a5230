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
from importlib import resources
from pathlib import Path
from typing import Union

import numpy as np

from .core import ValidationError

__all__ = [
    "MalformedCurve",
    "StepThreshold",
    "TwoThreshold",
    "Empirical",
    "DetectorModel",
    "click_probability",
    "read_response_csv",
    "bundled_response_curve",
]


class MalformedCurve(ValidationError):
    """Raised when a measured response curve fails validation."""


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

    Between the thresholds the click probability rises linearly from 0 to
    1. A measured or otherwise tabulated ramp is an :class:`Empirical` curve.
    """

    i_never: float
    i_always: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_never) and self.i_never >= 0.0):
            raise ValidationError(f"i_never must be finite and >= 0, got {self.i_never!r}")
        if not (math.isfinite(self.i_always) and self.i_always > self.i_never):
            raise ValidationError(
                f"i_always must exceed i_never, got i_never={self.i_never!r}, i_always={self.i_always!r}"
            )


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
        with np.errstate(over="ignore"):  # a subnormal ramp width overflows to +-inf, which clip saturates
            frac = (arr - model.i_never) / (model.i_always - model.i_never)
        out = np.clip(frac, 0.0, 1.0)
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


_CSV_HEADER = ("energy", "click_probability")


def read_response_csv(path: str | Path) -> Empirical:
    """Read a response curve from a two-column CSV file.

    The file must be UTF-8 with a header row ``energy,click_probability``
    and ``.`` as the decimal separator. Blank lines are ignored.
    """
    path = Path(path)
    try:
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
    except UnicodeDecodeError as exc:
        raise MalformedCurve(f"{path}: not UTF-8 text ({exc})") from exc
    return Empirical(tuple(rows))


def bundled_response_curve() -> Empirical:
    """The synthetic example curve shipped with the package.

    Shaped like a blinded avalanche-photodiode response: full-intensity
    triggers always click and half-intensity triggers click with
    probability 0.40. Synthetic data, not a device measurement.
    """
    ref = resources.files("bellsim.data").joinpath("synthetic_blinded_response.csv")
    with resources.as_file(ref) as path:
        return read_response_csv(path)
