"""Analyzer model: a rotatable measurement basis feeding two detectors.

Each party's half-wave plate plus polarizing beamsplitter is collapsed
into a single effective analyzer angle. Incoming light splits between the
transmitted and reflected ports by Malus's law; each port's detector then
fires (or not) according to its click-probability model. The transmitted
port carries the "+" outcome, the reflected port "-".

A party's result is one of ``N_STATES`` states, indexed
``code + 4 * double``: ``code`` is the reported outcome (``OUT_PLUS``,
``OUT_MINUS``, ``OUT_INCONCLUSIVE`` or ``OUT_DOUBLE``) and ``double`` says
whether both of that party's detectors fired, which the double-click
policy may have folded into a regular outcome.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Angle, DoubleClickPolicy, Outcome, ValidationError
from .detector import DetectorModel, click_probability

__all__ = [
    "malus_split",
    "pulse_response",
    "OUT_PLUS",
    "OUT_MINUS",
    "OUT_INCONCLUSIVE",
    "OUT_DOUBLE",
    "N_STATES",
    "OUTCOME_BY_CODE",
]

OUT_PLUS = 0
OUT_MINUS = 1
OUT_INCONCLUSIVE = 2
OUT_DOUBLE = 3
N_STATES = 8
OUTCOME_BY_CODE = (Outcome.PLUS, Outcome.MINUS, Outcome.INCONCLUSIVE, Outcome.DOUBLE)

# Where a double click lands under each policy: RANDOMIZE splits it evenly
# between "+" and "-", DISCARD reports it inconclusive, FLAG as DOUBLE.
_DOUBLE_STATES = {
    DoubleClickPolicy.RANDOMIZE: (4 + OUT_PLUS, 4 + OUT_MINUS),
    DoubleClickPolicy.DISCARD: (4 + OUT_INCONCLUSIVE,),
    DoubleClickPolicy.FLAG: (4 + OUT_DOUBLE,),
}


def malus_split(incoming_pol: Angle, analyzer_angle: Angle, intensity: float) -> tuple[float, float]:
    """Split an intensity between the analyzer's two output ports.

    Returns ``(transmitted, reflected)`` = ``(I cos^2 d, I sin^2 d)`` where
    ``d`` is the angle between the incoming polarization and the analyzer
    axis. The two parts sum back to the input (to float precision).
    """
    if not (math.isfinite(intensity) and intensity >= 0.0):
        raise ValidationError(f"intensity must be finite and >= 0, got {intensity!r}")
    delta = math.radians(incoming_pol.degrees - analyzer_angle.degrees)
    return intensity * math.cos(delta) ** 2, intensity * math.sin(delta) ** 2


def pulse_response(
    pol_deg,
    intensity,
    analyzer_deg,
    detector: DetectorModel,
    policy: DoubleClickPolicy,
) -> np.ndarray:
    """Exact distribution of one party's state for a pulse and an analyzer.

    The three inputs broadcast against each other; the result has their
    broadcast shape plus a trailing axis of ``N_STATES`` probabilities.
    Vacuum is zero intensity (its polarization is then irrelevant). The
    two ports' detectors fire independently.
    """
    delta = np.radians(np.asarray(pol_deg, dtype=float) - np.asarray(analyzer_deg, dtype=float))
    intensity = np.asarray(intensity, dtype=float)
    p_plus = np.asarray(click_probability(detector, intensity * np.cos(delta) ** 2))
    p_minus = np.asarray(click_probability(detector, intensity * np.sin(delta) ** 2))
    out = np.zeros(np.broadcast(p_plus, p_minus).shape + (N_STATES,))
    out[..., OUT_PLUS] = p_plus * (1.0 - p_minus)
    out[..., OUT_MINUS] = p_minus * (1.0 - p_plus)
    out[..., OUT_INCONCLUSIVE] = (1.0 - p_plus) * (1.0 - p_minus)
    states = _DOUBLE_STATES[policy]
    for state in states:
        out[..., state] = p_plus * p_minus / len(states)
    return out
