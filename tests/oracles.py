"""Closed-form oracles and the test curve, which only the tests need."""
from __future__ import annotations

import math
from pathlib import Path

from bellsim.core import Angle, ValidationError, check_unit_interval
from bellsim.detector import Empirical, read_response_csv


def synthetic_blinded_response() -> Empirical:
    """The synthetic response curve in ``tests/data/synthetic_blinded_response.csv``.

    Shaped like a blinded avalanche-photodiode response: full-intensity
    triggers always click and half-intensity triggers click with
    probability 0.40. Synthetic data, not a device measurement.
    """
    return read_response_csv(Path(__file__).parent / "data" / "synthetic_blinded_response.csv")


def malus_split(incoming_pol: Angle, analyzer_angle: Angle, intensity: float) -> tuple[float, float]:
    """Split an intensity between the analyzer's two output ports.

    The scalar reference for :func:`bellsim.optics.pulse_response`.
    Returns ``(transmitted, reflected)`` = ``(I cos^2 d, I sin^2 d)`` where
    ``d`` is the angle between the incoming polarization and the analyzer
    axis. The two parts sum back to the input (to float precision).
    """
    if not (math.isfinite(intensity) and intensity >= 0.0):
        raise ValidationError(f"intensity must be finite and >= 0, got {intensity!r}")
    delta = math.radians(incoming_pol.degrees - analyzer_angle.degrees)
    return intensity * math.cos(delta) ** 2, intensity * math.sin(delta) ** 2


def perfect_joint_distribution(
    label: int,
    alice_basis: int,
    bob_basis: int,
    a: float,
    b: float,
    role_reversed: bool = False,
) -> dict[tuple[str, str], float]:
    """Exact joint outcome distribution for one source label and setting pair.

    Probabilities over {+, -, ?} x {+, -, ?}; zero-probability outcomes are
    omitted. The compiled perfect-model tables are tested against it.
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
    det_out = "-" if det_minus else "+"
    if ctrl_basis == label:
        ctrl_dist = {"+": a, "?": 1.0 - a}
    else:
        ctrl_dist = {"+": b / 2.0, "-": b / 2.0, "?": 1.0 - b}
    dist: dict[tuple[str, str], float] = {}
    for ctrl_out, p in ctrl_dist.items():
        if p == 0.0:
            continue
        key = (det_out, ctrl_out) if role_reversed else (ctrl_out, det_out)
        dist[key] = dist.get(key, 0.0) + p
    return dist
