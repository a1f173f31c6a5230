"""Closed-form oracles that only the tests need."""
from __future__ import annotations

from bellsim.core import Outcome, ValidationError, check_unit_interval


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
