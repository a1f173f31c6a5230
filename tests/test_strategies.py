import math

import numpy as np
import pytest

from bellsim import (
    ExistingModelSpec,
    ImprovedModelSpec,
    MeasurementSettings,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    RunConfig,
    SettingPair,
    bell_phi_plus,
    perfect_no_signalling_discrepancy,
    quantum_correlation,
    run,
)
from bellsim import strategies
from bellsim.core import Angle, DoubleClickPolicy, ValidationError
from bellsim.detector import StepThreshold, TwoThreshold
from bellsim.optics import N_STATES, OUT_INCONCLUSIVE, OUT_MINUS, OUT_PLUS, pulse_response
from bellsim.strategies import (
    CONTROL_ROWS,
    ControlRow,
    InfeasibleGeometry,
    TwoQubitState,
    control_geometry,
    control_row_probabilities,
    feasible_intensity_window,
    joint_table,
    quantum_joint_probabilities,
    source_polarization_cells,
)
from oracles import perfect_joint_distribution

SQRT2 = math.sqrt(2.0)
A_THRESHOLD = 12.0 * SQRT2 - 16.0
B_THRESHOLD = 40.0 - 28.0 * SQRT2
STEP = StepThreshold(1.0)

P, M, Q = "+", "-", "?"
CODE = {P: OUT_PLUS, M: OUT_MINUS, Q: OUT_INCONCLUSIVE}


def chsh_from_correlations(correlations):
    return (
        correlations[SettingPair.A0B0]
        + correlations[SettingPair.A1B0]
        + correlations[SettingPair.A1B1]
        - correlations[SettingPair.A0B1]
    )


def compiled(spec, settings, detector=STEP, policy=DoubleClickPolicy.DISCARD):
    """The strategy's exact table, (phases, 4 settings, 8, 8)."""
    return joint_table(spec, settings, detector, policy)


def outcomes(table):
    """Fold away the double bit: (phases, 4 settings, 4, 4) over outcome codes."""
    return table.reshape(len(table), 4, 2, 4, 2, 4).sum(axis=(2, 4))


def setting(pair):
    return 2 * pair.alice + pair.bob


def table_correlations(table):
    """Per setting pair: (correlation, coincidence probability) of a one-phase table."""
    out = {}
    for pair in SettingPair:
        c = outcomes(table)[0, setting(pair), :2, :2]
        out[pair] = ((c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / c.sum(), c.sum())
    return out


def cell_tables(settings):
    """Each existing-model source cell's joint table at threshold intensity,
    (16, 4 settings, 8, 8), and whether the cell is similar."""
    tables, similar = [], []
    for pa, pb, sim in source_polarization_cells(settings):
        alice = pulse_response(pa.degrees, 1.0, (settings.alpha0.degrees, settings.alpha1.degrees),
                               STEP, DoubleClickPolicy.DISCARD)
        bob = pulse_response(pb.degrees, 1.0, (settings.beta0.degrees, settings.beta1.degrees),
                             STEP, DoubleClickPolicy.DISCARD)
        tables.append(np.einsum("ak,bl->abkl", alice, bob).reshape(4, N_STATES, N_STATES))
        similar.append(sim)
    return np.array(tables), np.array(similar)


def column_table(column):
    """A {(alice, bob): p} column as a 4x4 outcome-code table."""
    out = np.zeros((4, 4))
    for (out_a, out_b), p in column.items():
        out[CODE[out_a], CODE[out_b]] += p
    return out


# ---------------------------------------------------------------------------
# Existing model
# ---------------------------------------------------------------------------


class TestExistingModelSpec:
    def test_weights_follow_target(self):
        spec = ExistingModelSpec(1.0 / SQRT2)
        assert 2.0 * (spec.n_sim + spec.n_dif) == pytest.approx(1.0, abs=1e-15)
        assert spec.n_sim / spec.n_dif == pytest.approx(3.0 + 2.0 * SQRT2, rel=1e-12)

    def test_perfect_correlation_has_no_different_outcomes(self):
        assert ExistingModelSpec(1.0).n_dif == 0.0

    def test_domain(self):
        with pytest.raises(ValidationError):
            ExistingModelSpec(1.2)


class TestTable1(object):
    def test_sixteen_cells_half_similar(self, standard_settings):
        cells = source_polarization_cells(standard_settings)
        assert len(cells) == 16
        assert sum(sim for _, _, sim in cells) == 8

    def test_sampling_frequencies(self, standard_settings):
        """Each similar cell is emitted with probability n_sim/4, each different one n_dif/4."""
        spec = ExistingModelSpec(0.6)
        tables, similar = cell_tables(standard_settings)
        want = np.einsum("c,cskl->skl", np.where(similar, spec.n_sim, spec.n_dif) / 4.0, tables)
        got = compiled(spec, standard_settings)
        assert got.shape == (1, 4, N_STATES, N_STATES)
        np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got.sum(axis=(2, 3)), 1.0, rtol=0, atol=1e-15)

    def test_sampled_similar_different_ratio(self):
        spec = ExistingModelSpec(1.0 / SQRT2)
        assert spec.n_sim / spec.n_dif == pytest.approx(3.0 + 2.0 * SQRT2, rel=1e-12)

    def test_perfect_target_emits_only_similar_cells(self, standard_settings):
        assert ExistingModelSpec(1.0).n_dif == 0.0
        tables, similar = cell_tables(standard_settings)
        got = compiled(ExistingModelSpec(1.0), standard_settings)[0]
        np.testing.assert_allclose(got, tables[similar].sum(axis=0) / 8.0, rtol=0, atol=1e-15)

    def test_scalar_emit(self, standard_settings):
        """Every cell is a threshold-intensity pulse pair in the setting bases:
        certain to click one detector on basis match, silent on mismatch."""
        for pa, pb, _ in source_polarization_cells(standard_settings):
            for pol, angles in (
                (pa, (standard_settings.alpha0, standard_settings.alpha1)),
                (pb, (standard_settings.beta0, standard_settings.beta1)),
            ):
                response = pulse_response(
                    pol.degrees, 1.0, [a.degrees for a in angles], STEP, DoubleClickPolicy.DISCARD
                )
                for basis, angle in enumerate(angles):
                    conclusive = response[basis, OUT_PLUS] + response[basis, OUT_MINUS]
                    assert conclusive == (1.0 if pol.separation_to(angle) in (0.0, 90.0) else 0.0)


def test_joint_table_rejects_an_unknown_spec(standard_settings):
    with pytest.raises(ValidationError, match="unknown strategy spec"):
        joint_table(standard_settings, standard_settings)


# ---------------------------------------------------------------------------
# Improved model
# ---------------------------------------------------------------------------


class TestImprovedModelSpec:
    def test_default_trigger_is_window_midpoint(self, standard_settings):
        spec = ImprovedModelSpec.for_settings(0.3, standard_settings)
        lo = 1.0 / math.cos(math.radians(22.5)) ** 2  # both parties' half-separation is 22.5
        assert spec.trigger_intensity == pytest.approx((lo + 2.0) / 2.0, abs=1e-12)

    def test_trigger_outside_window_rejected(self, standard_settings):
        with pytest.raises(ValidationError):
            ImprovedModelSpec.for_settings(0.3, standard_settings, trigger_intensity=2.0)
        with pytest.raises(ValidationError):
            ImprovedModelSpec.for_settings(0.3, standard_settings, trigger_intensity=1.0)

    def test_perpendicular_settings_infeasible(self):
        settings = MeasurementSettings.from_degrees(0.0, 90.0, 22.5, 67.5)
        with pytest.raises(InfeasibleGeometry):
            ImprovedModelSpec.for_settings(0.3, settings)

    def test_trigger_checked_against_the_settings_of_the_run(self, standard_settings):
        """A trigger that fits one geometry is refused at angles whose window excludes it."""
        spec = ImprovedModelSpec.for_settings(0.5, standard_settings, trigger_intensity=1.2)
        narrow = MeasurementSettings.from_degrees(0.0, 80.0, 10.0, 90.0)  # window [1/cos^2(40), 2)
        with pytest.raises(ValidationError, match=r"trigger intensity must lie in \[1\.70"):
            ImprovedModelSpec.for_settings(0.5, narrow, trigger_intensity=1.2)
        with pytest.raises(ValidationError, match=r"trigger intensity must lie in \[1\.70"):
            joint_table(spec, narrow)
        with pytest.raises(ValidationError, match=r"trigger intensity must lie in \[1\.70"):
            run(RunConfig(strategy=spec, settings=narrow, n_trials=4096, seed=0))


class TestImprovedEmission:
    def test_pure_method_one(self, standard_settings):
        improved = compiled(ImprovedModelSpec.for_settings(0.0, standard_settings), standard_settings)
        forcing = compiled(ExistingModelSpec(1.0), standard_settings)
        assert np.array_equal(improved, forcing)

    def test_pure_method_two_sends_midpoints(self, standard_settings):
        spec = ImprovedModelSpec.for_settings(1.0, standard_settings)
        i = spec.trigger_intensity
        mid_a = pulse_response(22.5, i, (0.0, 45.0), STEP, DoubleClickPolicy.DISCARD)
        mid_b = pulse_response(45.0, i, (22.5, 67.5), STEP, DoubleClickPolicy.DISCARD)
        swap = [1, 0, 2, 3, 5, 4, 6, 7]
        want = 0.5 * (np.einsum("ak,bl->abkl", mid_a, mid_b)
                      + np.einsum("ak,bl->abkl", mid_a[:, swap], mid_b[:, swap]))
        got = compiled(spec, standard_settings)
        np.testing.assert_allclose(got[0], want.reshape(4, N_STATES, N_STATES), rtol=0, atol=1e-15)

    def test_midpoint_pulse_always_conclusive(self, standard_settings):
        table = outcomes(compiled(ImprovedModelSpec.for_settings(1.0, standard_settings), standard_settings))
        for s in range(4):
            assert table[0, s, :2, :2].sum() == pytest.approx(1.0, abs=1e-15)


class TestSymmetrize:
    """The midpoint pulse enters twice, the second time with both signs swapped."""

    def test_joint_flip_preserves_product(self, standard_settings):
        table = outcomes(compiled(ImprovedModelSpec.for_settings(1.0, standard_settings), standard_settings))
        for s in range(4):
            assert table[0, s, 0, 1] == table[0, s, 1, 0] == 0.0
            assert table[0, s, 0, 0] + table[0, s, 1, 1] == pytest.approx(1.0, abs=1e-15)

    def test_flip_fraction_is_half(self, standard_settings):
        table = outcomes(compiled(ImprovedModelSpec.for_settings(1.0, standard_settings), standard_settings))
        for s in range(4):
            assert table[0, s, 1, 1] == pytest.approx(0.5, abs=1e-15)
            assert table[0, s, 0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_inconclusive_unchanged(self, standard_settings):
        # A noisy detector lets the midpoint pulse miss; the flip must leave
        # those inconclusive outcomes where they were.
        detector = TwoThreshold(1.0, 2.0)
        spec = ImprovedModelSpec.for_settings(1.0, standard_settings)
        table = outcomes(compiled(spec, standard_settings, detector))[0]
        i = spec.trigger_intensity
        mid_a = pulse_response(22.5, i, (0.0, 45.0), detector, DoubleClickPolicy.DISCARD)
        mid_b = pulse_response(45.0, i, (22.5, 67.5), detector, DoubleClickPolicy.DISCARD)
        for pair in SettingPair:
            t = table[setting(pair)]
            q_a, q_b = mid_a[pair.alice, OUT_INCONCLUSIVE], mid_b[pair.bob, OUT_INCONCLUSIVE]
            assert 0.0 < q_a < 1.0
            assert t[OUT_INCONCLUSIVE].sum() == pytest.approx(q_a, abs=1e-15)
            assert t[:, OUT_INCONCLUSIVE].sum() == pytest.approx(q_b, abs=1e-15)
            assert t[OUT_INCONCLUSIVE, OUT_INCONCLUSIVE] == pytest.approx(q_a * q_b, abs=1e-15)
            assert t[OUT_INCONCLUSIVE, OUT_PLUS] == pytest.approx(t[OUT_INCONCLUSIVE, OUT_MINUS], abs=1e-15)

    def test_method_two_run_balances_similar_outcomes(self, standard_settings):
        spec = ImprovedModelSpec.for_settings(1.0, standard_settings)
        summary = run(RunConfig(strategy=spec, settings=standard_settings,
                                n_trials=1_000_000, seed=46))
        minus_minus = sum(int(summary.joint_counts[p][1, 1]) for p in SettingPair)
        coincidences = summary.counts.total_coincidences
        assert coincidences == summary.n_trials  # both sides always conclusive
        assert abs(minus_minus / coincidences - 0.5) < 0.002
        for pair in SettingPair:
            assert summary.correlations[pair] == 1.0


# ---------------------------------------------------------------------------
# Control-pulse table
# ---------------------------------------------------------------------------


class TestFeasibleWindows:
    def test_midpoint_window_at_30_degrees(self):
        lo, hi = feasible_intensity_window(ControlRow.MIDPOINT_UP, 30.0, 15.0)
        assert lo == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert hi == pytest.approx(4.0, abs=1e-12)

    def test_midpoint_window_empty_at_45(self):
        assert feasible_intensity_window(ControlRow.MIDPOINT_UP, 45.0, 0.0) is None

    def test_plain_window_empty_for_perpendicular_settings(self):
        # 2*phi0 = 90: the aligned port of the other basis gets everything.
        assert feasible_intensity_window(ControlRow.PLAIN_ALIGNED, 45.0, 0.0) is None

    def test_plain_window_for_standard_geometry(self):
        lo, hi = feasible_intensity_window(ControlRow.PLAIN_ALIGNED, 22.5, 22.5)
        assert lo == 1.0
        assert hi == pytest.approx(2.0, abs=1e-12)

    def test_vacuum_always_feasible(self):
        lo, hi = feasible_intensity_window(ControlRow.VACUUM, 45.0, 45.0)
        assert lo == 0.0 and math.isinf(hi)

    @pytest.mark.parametrize("phi0,phi1,name", [
        (-1.0, 0.0, "phi0_deg"), (90.5, 0.0, "phi0_deg"),
        (math.nan, 0.0, "phi0_deg"), (0.0, math.nan, "phi1_deg"),
    ])
    def test_half_angles_outside_0_to_90_rejected(self, phi0, phi1, name):
        with pytest.raises(ValidationError, match=rf"{name} must lie in \[0, 90\]"):
            feasible_intensity_window(ControlRow.VACUUM, phi0, phi1)


class TestControlPulseFor:
    """Each control row's pulse as :func:`control_geometry` sends it (Alice, label 0)."""

    def pulse(self, row, settings):
        k = CONTROL_ROWS.index(row)
        geometry = control_geometry(settings)
        return geometry.pol[0, 0, k], geometry.intensity[0, 0, k]

    def test_plain_row(self, standard_settings):
        pol, intensity = self.pulse(ControlRow.PLAIN_ALIGNED, standard_settings)
        assert pol == 0.0
        assert intensity == pytest.approx(1.5, abs=1e-12)

    def test_midpoint_rows(self, standard_settings):
        up, _ = self.pulse(ControlRow.MIDPOINT_UP, standard_settings)
        down, _ = self.pulse(ControlRow.MIDPOINT_DOWN, standard_settings)
        assert up == 22.5
        assert down == Angle(0.0).midpoint_toward(Angle(-45.0)).degrees
        # label 1 keys the pulse to 45 degrees and bisects toward 0 or its perpendicular
        geometry = control_geometry(standard_settings)
        assert list(geometry.pol[0, 1]) == [45.0, 22.5, 67.5, 0.0]

    def test_vacuum_row(self, standard_settings):
        pol, intensity = self.pulse(ControlRow.VACUUM, standard_settings)
        assert pol == 0.0 and intensity == 0.0
        assert control_geometry(standard_settings).windows[0][3] == (0.0, math.inf)

    def test_row_sampling_frequencies(self, standard_settings):
        a, b = 0.9, 0.4
        assert control_row_probabilities(a, b) == pytest.approx((a - b, b / 2, b / 2, 1 - a), abs=1e-15)
        # Weighted by those rows, the controlled party (Alice, no role
        # reversal) is conclusive with probability a on basis match and
        # splits b evenly between the ports on mismatch.
        spec = PerfectModelSpec(a, b, mode=PerfectMode.PHYSICAL_PULSES, role_reversal=False)
        table = outcomes(compiled(spec, standard_settings))[0]
        for pair in SettingPair:
            alice = table[setting(pair)].sum(axis=1)
            # Averaged over the two labels: one matches Alice's basis, one not.
            want = 0.5 * np.array([a + b / 2, b / 2, (1 - a) + (1 - b), 0.0])
            np.testing.assert_allclose(alice, want, rtol=0, atol=1e-15)

    def test_infeasible_geometry_raises(self):
        perpendicular = MeasurementSettings.from_degrees(0.0, 90.0, 22.5, 67.5)
        reasons = {(side, k): reason for side, k, reason in control_geometry(perpendicular).infeasible}
        assert reasons[0, 1].startswith("no intensity satisfies row midpoint-up")
        assert self.pulse(ControlRow.MIDPOINT_UP, perpendicular)[1] == 0.0  # left as vacuum
        with pytest.raises(InfeasibleGeometry, match="row midpoint-up"):
            joint_table(
                PerfectModelSpec(1.0, 1.0, mode=PerfectMode.PHYSICAL_PULSES, role_reversal=False),
                perpendicular,
            )

    def test_row_outcomes_through_the_analyzer(self, standard_settings):
        """Each control row forces its documented outcome pattern."""
        analyzer = (standard_settings.alpha0.degrees, standard_settings.alpha1.degrees)
        cases = {
            ControlRow.PLAIN_ALIGNED: (P, Q),
            ControlRow.MIDPOINT_UP: (P, P),    # mismatch lands on the other "+" port
            ControlRow.MIDPOINT_DOWN: (P, M),  # mismatch lands on the other "-" port
            ControlRow.VACUUM: (Q, Q),
        }
        for row, (on_match, on_mismatch) in cases.items():
            pol, intensity = self.pulse(row, standard_settings)
            got = pulse_response(pol, intensity, analyzer, STEP, DoubleClickPolicy.FLAG)
            assert got[0, CODE[on_match]] == 1.0, row
            assert got[1, CODE[on_mismatch]] == 1.0, row


# ---------------------------------------------------------------------------
# Perfect model
# ---------------------------------------------------------------------------


def expected_column(label, alice_basis, bob_basis, a, b):
    """Joint outcome table worked out by hand from the model's three
    assumptions, hardcoded as the oracle."""
    columns = {
        (0, 0, 0): {(P, P): a, (Q, P): 1 - a},
        (0, 1, 0): {(P, P): b / 2, (M, P): b / 2, (Q, P): 1 - b},
        (0, 0, 1): {(P, M): a, (Q, M): 1 - a},
        (0, 1, 1): {(P, M): b / 2, (M, M): b / 2, (Q, M): 1 - b},
        (1, 0, 0): {(P, P): b / 2, (M, P): b / 2, (Q, P): 1 - b},
        (1, 1, 0): {(P, P): a, (Q, P): 1 - a},
        (1, 0, 1): {(P, P): b / 2, (M, P): b / 2, (Q, P): 1 - b},
        (1, 1, 1): {(P, P): a, (Q, P): 1 - a},
    }
    return {k: v for k, v in columns[(label, alice_basis, bob_basis)].items() if v != 0.0}


class TestPerfectJointDistribution:
    @pytest.mark.parametrize("a,b", [(A_THRESHOLD, B_THRESHOLD), (0.8, 0.5), (1.0, 1.0)])
    def test_matches_hand_derived_columns(self, a, b):
        for label in (0, 1):
            for i in (0, 1):
                for j in (0, 1):
                    got = perfect_joint_distribution(label, i, j, a, b)
                    want = expected_column(label, i, j, a, b)
                    assert got.keys() == want.keys(), (label, i, j)
                    for key in want:
                        assert got[key] == pytest.approx(want[key], abs=1e-15)

    def test_columns_sum_to_one(self):
        for label in (0, 1):
            for i in (0, 1):
                for j in (0, 1):
                    for rev in (False, True):
                        total = sum(perfect_joint_distribution(label, i, j, 0.73, 0.21, rev).values())
                        assert total == pytest.approx(1.0, abs=1e-15)

    def test_specific_column_example(self):
        # Source in the first basis pair, measured at (a1, b0): equal-weight
        # +/- at Alice with Bob pinned to "+", inconclusive otherwise.
        a, b = 0.9, 0.4
        got = perfect_joint_distribution(0, 1, 0, a, b)
        assert got == {
            (P, P): pytest.approx(b / 2),
            (M, P): pytest.approx(b / 2),
            (Q, P): pytest.approx(1 - b),
        }


class TestPerfectNoSignalling:
    def test_exact_on_grid(self):
        for a in np.linspace(0.1, 1.0, 10):
            for b in np.linspace(0.1, 1.0, 10):
                assert perfect_no_signalling_discrepancy(float(a), float(b)) < 1e-12
                assert perfect_no_signalling_discrepancy(float(a), float(b), role_reversal=True) < 1e-12


class TestPerfectSampling:
    def test_analytic_sampler_matches_columns(self, standard_settings):
        a, b = A_THRESHOLD, B_THRESHOLD
        table = outcomes(compiled(PerfectModelSpec(a, b, role_reversal=False), standard_settings))
        assert table.shape == (1, 4, 4, 4)
        for i in (0, 1):
            for j in (0, 1):
                want = 0.5 * sum(column_table(expected_column(label, i, j, a, b)) for label in (0, 1))
                np.testing.assert_allclose(table[0, 2 * i + j], want, rtol=0, atol=1e-15)

    def test_role_reversal_symmetrizes_efficiencies(self, standard_settings):
        a, b = A_THRESHOLD, B_THRESHOLD
        plain = run(RunConfig(strategy=PerfectModelSpec(a, b, role_reversal=False),
                              settings=standard_settings, n_trials=400_000, seed=62))
        reversed_ = run(RunConfig(strategy=PerfectModelSpec(a, b, role_reversal=True),
                                  settings=standard_settings, n_trials=400_000, seed=63))
        assert plain.eta_bob == 1.0
        assert plain.eta_alice == pytest.approx((a + b) / 2.0, abs=0.003)
        assert reversed_.eta_alice == pytest.approx(reversed_.eta_bob, abs=0.004)
        # the reversal must not move the correlations
        for pair in SettingPair:
            assert plain.correlations[pair] == pytest.approx(
                reversed_.correlations[pair], abs=0.01
            )
        assert plain.eta_symmetric == pytest.approx(reversed_.eta_symmetric, abs=0.003)

    def test_physical_mode_matches_analytic_mode(self, standard_settings):
        """All control rows feasible: the pulse pipeline reproduces the table."""
        a, b = A_THRESHOLD, B_THRESHOLD
        n = 1_000_000
        physical = run(RunConfig(
            strategy=PerfectModelSpec(a, b, mode=PerfectMode.PHYSICAL_PULSES),
            settings=standard_settings, n_trials=n, seed=64,
        ))
        analytic_ = run(RunConfig(
            strategy=PerfectModelSpec(a, b, mode=PerfectMode.ANALYTIC_TABLE),
            settings=standard_settings, n_trials=n, seed=65,
        ))
        assert physical.total_double_events == 0
        for pair in SettingPair:
            t_phys = physical.joint_counts[pair]
            t_ana = analytic_.joint_counts[pair]
            n_phys, n_ana = t_phys.sum(), t_ana.sum()
            for ai in range(3):
                for bi in range(3):
                    p1 = t_phys[ai, bi] / n_phys
                    p2 = t_ana[ai, bi] / n_ana
                    se = math.sqrt(p1 * (1 - p1) / n_phys + p2 * (1 - p2) / n_ana)
                    assert abs(p1 - p2) <= max(3.0 * se, 1e-9), (pair, ai, bi)

    def test_physical_mode_requires_a_geq_b(self, standard_settings):
        with pytest.raises(ValidationError):
            joint_table(
                PerfectModelSpec(0.3, 0.6, mode=PerfectMode.PHYSICAL_PULSES),
                standard_settings,
            )

    def test_physical_mode_infeasible_geometry_surfaces(self):
        settings = MeasurementSettings.from_degrees(0.0, 90.0, 22.5, 67.5)
        with pytest.raises(InfeasibleGeometry):
            joint_table(
                PerfectModelSpec(0.9, 0.4, mode=PerfectMode.PHYSICAL_PULSES),
                settings,
            )

    def test_physical_mode_unreachable_rows_need_no_geometry(self):
        """Perpendicular Alice bases support only vacuum, which is all that a = b = 0 sends."""
        settings = MeasurementSettings.from_degrees(0.0, 90.0, 22.5, 67.5)
        table = outcomes(compiled(PerfectModelSpec(0.0, 0.0, mode=PerfectMode.PHYSICAL_PULSES), settings))
        assert table.shape == (2, 4, 4, 4)
        # Phase 0 controls Alice, phase 1 Bob: the controlled side never clicks.
        np.testing.assert_allclose(table[0, :, OUT_INCONCLUSIVE, :].sum(axis=1), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(table[1, :, :, OUT_INCONCLUSIVE].sum(axis=1), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(InfeasibleGeometry, match="no intensity satisfies row plain-aligned"):
            joint_table(PerfectModelSpec(0.9, 0.4, mode=PerfectMode.PHYSICAL_PULSES), settings)


class TestPerfectEmit:
    def test_plan_fields(self, standard_settings):
        # Role reversal alternates the controlled party with the trial
        # index: phase 0 (even trials) controls Alice, phase 1 Bob, and the
        # deterministic party is always conclusive.
        table = outcomes(compiled(PerfectModelSpec(0.9, 0.4), standard_settings))
        assert table.shape == (2, 4, 4, 4)
        assert not table[0, :, :, 2:].any()
        assert not table[1, :, 2:, :].any()
        assert table[0, :, 2, :].any() and table[1, :, :, 2].any()
        plain = outcomes(compiled(PerfectModelSpec(0.9, 0.4, role_reversal=False), standard_settings))
        assert np.array_equal(plain, table[:1])

    def test_analytic_resolution_stays_in_column_support(self, standard_settings):
        a, b = 0.9, 0.4
        table = outcomes(compiled(PerfectModelSpec(a, b, role_reversal=False), standard_settings))
        got = table[0, setting(SettingPair.A1B0)]
        support = sum(column_table(expected_column(label, 1, 0, a, b)) for label in (0, 1)) > 0
        assert not got[~support].any()
        assert got[CODE[M], CODE[P]] > 0.0  # the random-mismatch branch occurs

    def test_physical_plan_exposes_control_pulse(self, standard_settings):
        """The physical table is built from control_geometry's pulses."""
        a, b = 0.9, 0.4
        spec = PerfectModelSpec(a, b, mode=PerfectMode.PHYSICAL_PULSES, role_reversal=False)
        table = compiled(spec, standard_settings, policy=DoubleClickPolicy.FLAG)[0]
        geometry = control_geometry(standard_settings)
        angles = (standard_settings.alpha0, standard_settings.alpha1)
        probs = control_row_probabilities(a, b)
        for basis in (0, 1):
            want = np.zeros(N_STATES)
            for label in (0, 1):
                for k, p in enumerate(probs):
                    want += 0.5 * p * pulse_response(
                        geometry.pol[0, label, k], geometry.intensity[0, label, k],
                        angles[basis].degrees, STEP, DoubleClickPolicy.FLAG,
                    )
            for bob in (0, 1):
                alice = table[2 * basis + bob].sum(axis=1)
                np.testing.assert_allclose(alice, want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Quantum baseline
# ---------------------------------------------------------------------------


class TestQuantumOracle:
    def test_phi_plus_same_basis_is_perfectly_correlated(self):
        state = bell_phi_plus()
        for angle in (0.0, 17.0, -45.0, 80.0):
            assert quantum_correlation(Angle(angle), Angle(angle), state) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_bases_uncorrelated(self):
        state = bell_phi_plus()
        assert quantum_correlation(Angle(0), Angle(45), state) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_for_phi_plus(self):
        state = bell_phi_plus()
        rng = np.random.default_rng(71)
        for _ in range(100):
            alpha, beta = rng.uniform(-90, 90, size=2)
            expected = math.cos(math.radians(2.0 * (alpha - beta)))
            assert quantum_correlation(Angle(alpha), Angle(beta), state) == pytest.approx(
                expected, abs=1e-12
            )

    def test_standard_angles_reach_tsirelson(self, standard_settings):
        state = bell_phi_plus()
        s = (
            quantum_correlation(standard_settings.alpha0, standard_settings.beta0, state)
            + quantum_correlation(standard_settings.alpha1, standard_settings.beta0, state)
            + quantum_correlation(standard_settings.alpha1, standard_settings.beta1, state)
            - quantum_correlation(standard_settings.alpha0, standard_settings.beta1, state)
        )
        assert abs(s - 2.0 * SQRT2) < 1e-9

    def test_joint_probabilities_normalized(self):
        state = bell_phi_plus().rotated(13.0, -27.0)
        p = quantum_joint_probabilities(Angle(10), Angle(-30), state)
        assert p.shape == (2, 2)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0.0)

    def test_non_normalized_state_rejected(self):
        with pytest.raises(ValidationError):
            TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            TwoQubitState(np.array([1.0, 0.0, 0.0]))

    def test_equal_amplitudes_are_one_value(self, standard_settings):
        """A state built twice is one value: equal, equally hashed, and compiled into one cache entry."""
        first = bell_phi_plus()
        states = [first, bell_phi_plus(), TwoQubitState(np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2),
                  TwoQubitState(first.amplitudes)]
        assert all(state == first and hash(state) == hash(first) for state in states)
        strategies._quantum_outcomes.cache_clear()
        for state in states:
            compiled(QuantumSpec(state, eta_true=0.9), standard_settings)
        assert strategies._quantum_outcomes.cache_info().currsize == 1
        other = first.rotated(alice_deg=67.5)
        assert other != first
        compiled(QuantumSpec(other, eta_true=0.9), standard_settings)
        assert strategies._quantum_outcomes.cache_info().currsize == 2

    def test_skewed_angle_set_needs_a_rotated_state(self):
        """This skewed angle set reaches 2*sqrt(2) only after rotating
        Alice's side of the entangled pair by 67.5 degrees; the four plain
        Bell states top out at 2 there."""
        settings = MeasurementSettings.from_degrees(-78.75, 56.25, 11.25, -33.75)

        def s_of(state):
            return (
                quantum_correlation(settings.alpha0, settings.beta0, state)
                + quantum_correlation(settings.alpha1, settings.beta0, state)
                + quantum_correlation(settings.alpha1, settings.beta1, state)
                - quantum_correlation(settings.alpha0, settings.beta1, state)
            )

        inv_sqrt2 = 1.0 / SQRT2
        bell_states = [
            TwoQubitState(np.array([inv_sqrt2, 0, 0, inv_sqrt2])),
            TwoQubitState(np.array([inv_sqrt2, 0, 0, -inv_sqrt2])),
            TwoQubitState(np.array([0, inv_sqrt2, inv_sqrt2, 0])),
            TwoQubitState(np.array([0, inv_sqrt2, -inv_sqrt2, 0])),
        ]
        assert max(abs(s_of(state)) for state in bell_states) < 2.0 + 1e-9
        rotated = bell_phi_plus().rotated(alice_deg=67.5)
        assert abs(s_of(rotated) - 2.0 * SQRT2) < 1e-9


class TestQuantumEmission:
    def test_zero_efficiency_is_always_inconclusive(self, standard_settings):
        table = compiled(QuantumSpec(bell_phi_plus(), eta_true=0.0), standard_settings)
        for s in range(4):
            assert table[0, s, OUT_INCONCLUSIVE, OUT_INCONCLUSIVE] == 1.0
            assert table[0, s].sum() == 1.0

    def test_unit_efficiency_same_basis_agrees(self):
        settings = MeasurementSettings.from_degrees(30.0, 75.0, 30.0, 75.0)
        table = outcomes(compiled(QuantumSpec(bell_phi_plus(), eta_true=1.0), settings))
        a0b0 = table[0, setting(SettingPair.A0B0)]
        assert a0b0[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert a0b0[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert a0b0.sum() - a0b0[0, 0] - a0b0[1, 1] == pytest.approx(0.0, abs=1e-12)

    def test_erasure_rate_shows_up_in_coincidences(self, standard_settings):
        summary = run(RunConfig(
            strategy=QuantumSpec(bell_phi_plus(), eta_true=0.9),
            settings=standard_settings, n_trials=1_000_000, seed=74,
        ))
        coincidence_rate = summary.counts.total_coincidences / summary.n_trials
        assert abs(coincidence_rate - 0.81) < 0.002
        assert abs(summary.eta_alice - 0.9) < 0.002
