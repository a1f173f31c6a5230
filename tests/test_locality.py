"""Every faked table is a local model, certified by a linear program.

A local deterministic response assigns each party one of the 8 states
(``code + 4 * double``) per basis, so each party has 8**2 = 64 responses
and the pair 64**2 = 4,096 joint vertices. A table over (4 setting pairs,
8, 8) cells is local when some probability vector over the vertices
reproduces all 256 cells. HiGHS decides that feasibility question. The
certificate reads only the compiled table, so it does not rely on the
decompositions that ``strategies`` builds, and it is also a check that
rejects: the quantum baseline is local at ``eta_true = 0.8`` and not above
its threshold 2(sqrt 2 - 1) = 0.8284.
"""
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from bellsim import (
    ExistingModelSpec,
    ImprovedModelSpec,
    MeasurementSettings,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    ab_from_eta,
    bell_phi_plus,
)
from bellsim.core import DoubleClickPolicy
from bellsim.detector import StepThreshold, TwoThreshold
from bellsim.optics import N_STATES
from bellsim.strategies import joint_table

from oracles import synthetic_blinded_response

STANDARD = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)

#: ``ONE_HOT[basis, r, k]`` is 1 where response ``r`` = (state at basis 0, state at basis 1) gives state ``k``.
_RESPONSES = np.array([(s0, s1) for s0 in range(N_STATES) for s1 in range(N_STATES)])
ONE_HOT = np.eye(N_STATES)[_RESPONSES.T]

#: Column (i, j) is the table of Alice's response i and Bob's response j: (256 cells, 4,096 vertices).
VERTICES = np.einsum("aik,bjl->abklij", ONE_HOT, ONE_HOT).reshape(4 * N_STATES**2, -1)


def is_local(table: np.ndarray) -> bool:
    """Whether the (4, 8, 8) table is a convex mixture of local deterministic responses."""
    result = linprog(
        np.zeros(VERTICES.shape[1]), A_eq=VERTICES, b_eq=table.reshape(-1), bounds=(0, None), method="highs",
    )
    assert result.status in (0, 2), result.message  # solved, or proven infeasible
    return result.status == 0


def test_vertices_are_the_tables_of_deterministic_responses():
    assert VERTICES.shape == (256, 4096)
    assert (VERTICES.sum(axis=0) == 4).all()  # one cell per setting pair
    i, j = 8 * 3 + 5, 8 * 6 + 1  # Alice: state 3 at basis 0, 5 at 1; Bob: 6, then 1
    cells = VERTICES[:, 64 * i + j].reshape(2, 2, N_STATES, N_STATES)
    assert {tuple(c) for c in np.argwhere(cells)} == {(0, 0, 3, 6), (0, 1, 3, 1), (1, 0, 5, 6), (1, 1, 5, 1)}


THRESHOLD_AB = ab_from_eta(2.0 * (math.sqrt(2.0) - 1.0))[:2]
SPECS = {
    "existing": ExistingModelSpec(1.0 / math.sqrt(2.0)),
    "improved": ImprovedModelSpec.for_settings(0.2612, STANDARD),
    "perfect/analytic": PerfectModelSpec(*THRESHOLD_AB),
    "perfect/physical": PerfectModelSpec(*THRESHOLD_AB, mode=PerfectMode.PHYSICAL_PULSES),
}
DETECTORS = {"step": StepThreshold(), "two_threshold": TwoThreshold(0.8, 1.2), "curve": synthetic_blinded_response()}


@pytest.mark.parametrize("policy", DoubleClickPolicy, ids=lambda p: p.value)
@pytest.mark.parametrize("detector", DETECTORS)
@pytest.mark.parametrize("strategy", SPECS)
def test_every_phase_of_a_faked_table_is_local(strategy, detector, policy):
    table = joint_table(SPECS[strategy], STANDARD, DETECTORS[detector], policy)
    for phase in table:
        assert is_local(phase)


@pytest.mark.parametrize("eta_true, local", [(0.8, True), (0.83, False), (1.0, False)])
def test_quantum_table_is_local_only_below_its_threshold(eta_true, local):
    (table,) = joint_table(QuantumSpec(bell_phi_plus(), eta_true), STANDARD)
    assert is_local(table) is local
