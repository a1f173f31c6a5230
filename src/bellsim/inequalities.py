"""Post-selected correlation estimation and Bell-inequality statistics."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SimulationError, ValidationError

__all__ = [
    "AllZeroCoincidences",
    "SingularRatio",
    "ChshCombination",
    "correlation_from_counts",
    "gm_bound",
    "marginal_gaps",
    "nsim_ndif_ratio",
]


class AllZeroCoincidences(SimulationError):
    """A setting registered no coincidences, so its correlation is undefined."""


class SingularRatio(ValidationError):
    """The similar/different outcome ratio diverges at perfect correlation."""


@dataclass(frozen=True, slots=True)
class ChshCombination:
    """The four per-setting correlations entering the CHSH sum.

    ``e01`` is the term that enters with a minus sign.
    """

    e00: float
    e10: float
    e11: float
    e01: float

    def __post_init__(self) -> None:
        for name in ("e00", "e10", "e11", "e01"):
            value = getattr(self, name)
            if not (math.isfinite(value) and -1.0 <= value <= 1.0):
                raise ValidationError(f"{name} must lie in [-1, 1], got {value!r}")


def correlation_from_counts(n_pp: float, n_pm: float, n_mp: float, n_mm: float) -> float:
    """Correlation of one setting from its coincidence counts.

    Only double-sided detections enter; singles, no-detections and double
    clicks are excluded upstream. Raises :class:`AllZeroCoincidences` when
    all four counts are zero.
    """
    for name, value in (("n_pp", n_pp), ("n_pm", n_pm), ("n_mp", n_mp), ("n_mm", n_mm)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    total = n_pp + n_pm + n_mp + n_mm
    if total == 0:
        raise AllZeroCoincidences("no coincidences recorded for this setting")
    return (n_pp + n_mm - n_pm - n_mp) / total


def marginal_gaps(joint) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """How far each party's outcome marginals move with the remote setting.

    ``joint`` holds counts or probabilities over outcome codes: (4 setting
    pairs in ``SettingPair`` order, Alice's code, Bob's code). Returns
    ``(gap, se, p0, p1)``, each indexed (own setting, party: Alice then
    Bob, outcome code): the party's marginal frequencies ``p0`` and ``p1``
    under remote setting 0 and 1, the gap ``|p0 - p1|`` and its binomial
    standard error with the marginals' totals as sample sizes. All four
    are NaN where a remote setting has no entries.
    """
    by_setting = np.asarray(joint).reshape(2, 2, 4, 4)
    alice = by_setting.sum(axis=3)  # (own, remote, code)
    bob = by_setting.sum(axis=2).swapaxes(0, 1)
    marginals = np.stack([alice, bob], axis=1)  # (own, party, remote, code)
    n = marginals.sum(axis=3, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = marginals / n
        p0, p1 = p[:, :, 0], p[:, :, 1]
        se = np.sqrt(p0 * (1 - p0) / n[:, :, 0] + p1 * (1 - p1) / n[:, :, 1])
    return np.abs(p0 - p1), se, p0, p1


def gm_bound(eta: float) -> float:
    """Local bound on the CHSH sum at detection efficiency ``eta``.

    Equals ``4/eta - 2``, clipped at the algebraic maximum 4 (reached for
    eta <= 2/3) and reducing to the usual bound 2 at eta = 1.
    """
    if not (math.isfinite(eta) and 0.0 < eta <= 1.0):
        raise ValidationError(f"eta must lie in (0, 1], got {eta!r}")
    return min(4.0, 4.0 / eta - 2.0)


def nsim_ndif_ratio(e: float) -> float:
    """Ratio of similar to different coincidences that realizes correlation ``e``."""
    if not (math.isfinite(e) and -1.0 <= e <= 1.0):
        raise ValidationError(f"e must lie in [-1, 1], got {e!r}")
    if e == 1.0:
        raise SingularRatio("the ratio diverges at e = 1 (no different outcomes)")
    return (1.0 + e) / (1.0 - e)
