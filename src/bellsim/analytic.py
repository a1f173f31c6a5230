"""Closed-form predictions for each faking strategy.

These are the oracles the Monte Carlo engine is validated against. The
reported efficiency is always the symmetric one, i.e. the square root of
the coincidence probability; per-party rates are a property of the runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ValidationError, check_unit_interval
from .inequalities import ChshCombination, gm_bound

__all__ = [
    "Prediction",
    "improved_predict",
    "perfect_predict",
    "ab_from_eta",
    "existing_predict",
]

# The two pure strategies mixed by the improved model: deterministic
# forcing (S=4 at efficiency 1/2) and always-click midpoint pulses
# (S=2 at efficiency 1).
METHOD1_ETA = 0.5
METHOD1_S = 4.0
METHOD2_ETA = 1.0
METHOD2_S = 2.0


@dataclass(frozen=True, slots=True)
class Prediction:
    """Analytic (efficiency, CHSH) point with its per-setting correlations."""

    eta: float
    s: float
    e_per_setting: ChshCombination
    coincidence_prob: float


def _chsh_pattern(e: float) -> ChshCombination:
    # Three positive correlations and a negative one on the subtracted term.
    return ChshCombination(e00=e, e10=e, e11=e, e01=-e)


def improved_predict(p2: float) -> Prediction:
    """Prediction for the two-method mixture with method-2 weight ``p2``.

    The mixture's coincidence probability is the weighted mean of the pure
    methods' squared efficiencies, and its CHSH value is the
    coincidence-weighted mean of their CHSH values. Both methods are
    perfectly correlated on three settings; on the subtracted one forcing
    gives -1 and the midpoint pulses +1, so there the correlation is
    ``(p2 - p1/4) / (p2 + p1/4)`` with ``p1 = 1 - p2``.
    """
    check_unit_interval("p2", p2)
    p1 = 1.0 - p2
    coincidence = p1 * METHOD1_ETA**2 + p2 * METHOD2_ETA**2
    eta = math.sqrt(coincidence)
    s = (p1 * METHOD1_S * METHOD1_ETA**2 + p2 * METHOD2_S * METHOD2_ETA**2) / coincidence
    e01 = (p2 * METHOD2_ETA**2 - p1 * METHOD1_ETA**2) / coincidence
    return Prediction(
        eta=eta,
        s=s,
        e_per_setting=ChshCombination(e00=1.0, e10=1.0, e11=1.0, e01=e01),
        coincidence_prob=coincidence,
    )


def perfect_predict(a: float, b: float) -> Prediction:
    """Prediction for the perfect model with conclusive probabilities ``a`` and ``b``.

    ``a`` is the probability of a deterministic conclusive outcome on basis
    match, ``b`` of a random conclusive outcome on mismatch, at the
    controlled party.
    """
    check_unit_interval("a", a)
    check_unit_interval("b", b)
    if a + b == 0.0:
        raise ValidationError("a and b cannot both be zero (no coincidences ever)")
    e = a / (a + b)
    coincidence = (a + b) / 2.0
    return Prediction(
        eta=math.sqrt(coincidence),
        s=4.0 * e,
        e_per_setting=_chsh_pattern(e),
        coincidence_prob=coincidence,
    )


def ab_from_eta(eta: float) -> tuple[float, float, float]:
    """Parameters (a, b) that put the perfect model on the local bound at ``eta``.

    Returns ``(a, b, e)`` where ``e`` is the per-setting correlation
    magnitude, ``gm_bound(eta)/4``. Valid for eta in [2/3, 1]; at the lower
    end the bound saturates and b reaches 0.
    """
    if not (math.isfinite(eta) and 2.0 / 3.0 <= eta <= 1.0):
        raise ValidationError(f"eta must lie in [2/3, 1], got {eta!r}")
    e = gm_bound(eta) / 4.0
    a = 2.0 * e * eta * eta
    b = 2.0 * (1.0 - e) * eta * eta
    return a, b, e


def existing_predict(e_target: float) -> Prediction:
    """Prediction for the deterministic-forcing model at correlation ``e_target``."""
    check_unit_interval("e_target", e_target)
    return Prediction(
        eta=METHOD1_ETA,
        s=4.0 * e_target,
        e_per_setting=_chsh_pattern(e_target),
        coincidence_prob=METHOD1_ETA**2,
    )
