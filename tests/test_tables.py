"""Exactness of the compiled outcome tables the engine samples from.

Each table is compared with its closed-form oracle to 1e-12, and a
property test checks, over random specs, detectors and policies, that
every table is a probability distribution per setting whose marginals
ignore the remote setting (exact no-signalling). A second property test
checks that the cached, weight-free components of the pulse strategies
never change a table: compiling in any order gives what a cold compile
gives.
"""
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings, strategies as st

from bellsim import (
    ExistingModelSpec,
    ImprovedModelSpec,
    MeasurementSettings,
    PerfectMode,
    PerfectModelSpec,
    QuantumSpec,
    SettingPair,
    ab_from_eta,
    bell_phi_plus,
    improved_predict,
)
from bellsim import strategies
from bellsim.analytic import existing_predict, perfect_predict
from bellsim.core import DoubleClickPolicy, Outcome
from bellsim.detector import StepThreshold, TwoThreshold, bundled_response_curve
from bellsim.engine import chsh_statistics
from bellsim.inequalities import AllZeroCoincidences
from bellsim.optics import OUT_INCONCLUSIVE, OUT_MINUS, OUT_PLUS
from bellsim.strategies import (
    InfeasibleGeometry,
    joint_table,
    perfect_joint_distribution,
    quantum_correlation,
    quantum_joint_probabilities,
)

STANDARD = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)
CODE = {Outcome.PLUS: OUT_PLUS, Outcome.MINUS: OUT_MINUS, Outcome.INCONCLUSIVE: OUT_INCONCLUSIVE}
EXACT = 1e-12


def compiled(spec, settings=STANDARD, detector=StepThreshold(), policy=DoubleClickPolicy.DISCARD):
    return joint_table(spec, settings, detector, policy)


def outcomes(table):
    """(phases, 4 settings, 4, 4) over outcome codes, double bit folded away."""
    return table.reshape(len(table), 4, 2, 4, 2, 4).sum(axis=(2, 4))


def correlation_and_coincidence(table, pair):
    c = outcomes(table)[0, 2 * pair.alice + pair.bob, :2, :2]
    return (c[0, 0] + c[1, 1] - c[0, 1] - c[1, 0]) / c.sum(), c.sum()


def oracle_correlations(prediction):
    e = prediction.e_per_setting
    return {SettingPair.A0B0: e.e00, SettingPair.A0B1: e.e01,
            SettingPair.A1B0: e.e10, SettingPair.A1B1: e.e11}


def assert_statistics(table, correlations, s, coincidence_prob):
    """``chsh_statistics`` of the phase-averaged table against an oracle."""
    stats = chsh_statistics(table.mean(axis=0))
    for pair in SettingPair:
        assert stats.correlations[pair] == pytest.approx(correlations[pair], abs=EXACT)
    assert stats.s_value == pytest.approx(s, abs=EXACT)
    assert stats.eta_symmetric == pytest.approx(math.sqrt(coincidence_prob), abs=EXACT)


def assert_prediction(table, prediction):
    assert_statistics(table, oracle_correlations(prediction), prediction.s, prediction.coincidence_prob)


class TestOracles:
    @pytest.mark.parametrize("a,b", [(0.9705627484771406, 0.4020202535533866), (0.8, 0.5), (1.0, 1.0), (0.3, 0.0)])
    def test_perfect_analytic_table_is_the_joint_distribution(self, a, b):
        assert_prediction(compiled(PerfectModelSpec(a, b)), perfect_predict(a, b))
        table = outcomes(compiled(PerfectModelSpec(a, b)))
        for phase, reversed_ in enumerate((False, True)):
            for pair in SettingPair:
                want = np.zeros((4, 4))
                for label in (0, 1):  # the source draws each label with probability 1/2
                    dist = perfect_joint_distribution(label, pair.alice, pair.bob, a, b, reversed_)
                    for (out_a, out_b), p in dist.items():
                        want[CODE[out_a], CODE[out_b]] += 0.5 * p
                got = table[phase, 2 * pair.alice + pair.bob]
                np.testing.assert_allclose(got, want, rtol=0, atol=EXACT)

    @pytest.mark.parametrize("role_reversal", [False, True])
    def test_physical_table_equals_analytic_table_on_the_bound(self, role_reversal):
        for eta in np.linspace(2.0 / 3.0, 1.0, 35):
            a, b, _ = ab_from_eta(float(eta))
            physical = compiled(PerfectModelSpec(a, b, PerfectMode.PHYSICAL_PULSES, role_reversal))
            analytic = compiled(PerfectModelSpec(a, b, PerfectMode.ANALYTIC_TABLE, role_reversal))
            np.testing.assert_allclose(physical, analytic, rtol=0, atol=EXACT)
            assert_prediction(physical, perfect_predict(a, b))

    @pytest.mark.parametrize("eta_true", [0.0, 0.37, 0.9, 1.0])
    def test_quantum_table_is_state_vector_times_erasure(self, eta_true):
        state = bell_phi_plus().rotated(13.0, -27.0)
        full = compiled(QuantumSpec(state, eta_true))
        if eta_true == 0.0:
            with pytest.raises(AllZeroCoincidences):
                chsh_statistics(full[0])
        else:
            e = {pair: quantum_correlation(STANDARD.alice_angle(pair.alice), STANDARD.bob_angle(pair.bob), state)
                 for pair in SettingPair}
            s = e[SettingPair.A0B0] + e[SettingPair.A1B0] + e[SettingPair.A1B1] - e[SettingPair.A0B1]
            assert_statistics(full, e, s, eta_true**2)
        table = outcomes(full)[0]
        keep = np.array([[eta_true, 0.0, 1.0 - eta_true], [0.0, eta_true, 1.0 - eta_true]])
        for pair in SettingPair:
            q = quantum_joint_probabilities(STANDARD.alice_angle(pair.alice), STANDARD.bob_angle(pair.bob), state)
            got = table[2 * pair.alice + pair.bob]
            np.testing.assert_allclose(got[:3, :3], keep.T @ q @ keep, rtol=0, atol=EXACT)
            assert not got[3].any() and not got[:, 3].any()

    @pytest.mark.parametrize("e_target", [0.0, 0.5, 1.0 / math.sqrt(2.0), 1.0])
    def test_existing_table_matches_existing_predict(self, e_target):
        table = compiled(ExistingModelSpec(e_target))
        prediction = existing_predict(e_target)
        assert_prediction(table, prediction)
        for pair, want in oracle_correlations(prediction).items():
            e, coincidence = correlation_and_coincidence(table, pair)
            assert e == pytest.approx(want, abs=EXACT)
            assert coincidence == pytest.approx(prediction.coincidence_prob, abs=EXACT)

    def test_improved_table_matches_improved_predict(self):
        for p2 in np.linspace(0.0, 1.0, 101):
            table = compiled(ImprovedModelSpec.for_settings(float(p2), STANDARD))
            prediction = improved_predict(float(p2))
            assert_prediction(table, prediction)
            for pair, want in oracle_correlations(prediction).items():
                e, coincidence = correlation_and_coincidence(table, pair)
                assert e == pytest.approx(want, abs=EXACT), (p2, pair)
                assert coincidence == pytest.approx(prediction.coincidence_prob, abs=EXACT)


# ---------------------------------------------------------------------------
# Properties of every table
# ---------------------------------------------------------------------------

unit = st.floats(0.0, 1.0)


@st.composite
def settings_(draw):
    """Angles whose two per-party separations lie in [10, 80] degrees."""
    alpha0 = draw(st.floats(-90.0, 90.0))
    beta0 = draw(st.floats(-90.0, 90.0))
    return MeasurementSettings.from_degrees(
        alpha0, alpha0 + draw(st.floats(10.0, 80.0)), beta0, beta0 + draw(st.floats(10.0, 80.0))
    )


@st.composite
def specs(draw, settings):
    kind = draw(st.sampled_from(["existing", "improved", "perfect", "quantum"]))
    if kind == "existing":
        return ExistingModelSpec(draw(unit))
    if kind == "improved":
        lo, _ = strategies._trigger_window(settings)
        trigger = draw(st.none() | st.floats(lo, 2.0, exclude_max=True))
        return ImprovedModelSpec.for_settings(draw(unit), settings, trigger)
    if kind == "perfect":
        a = draw(unit)
        b = draw(st.floats(0.0, a))
        return PerfectModelSpec(a, b, draw(st.sampled_from(PerfectMode)), draw(st.booleans()))
    state = bell_phi_plus().rotated(draw(st.floats(-90.0, 90.0)), draw(st.floats(-90.0, 90.0)))
    return QuantumSpec(state, draw(unit))


detectors = st.one_of(
    st.builds(StepThreshold, st.floats(0.2, 3.0)),
    st.builds(lambda lo, width: TwoThreshold(lo, lo + width), st.floats(0.0, 2.0), st.floats(0.01, 2.0)),
    st.just(bundled_response_curve()),
)


@hyp_settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), detector=detectors, policy=st.sampled_from(DoubleClickPolicy))
def test_every_table_is_a_no_signalling_distribution(data, detector, policy):
    settings = data.draw(settings_())
    try:
        spec = data.draw(specs(settings))
        table = compiled(spec, settings, detector, policy)
    except InfeasibleGeometry:
        return  # an improved trigger window or a control row that the angles cannot support
    assert table.ndim == 4 and table.shape[1:] == (4, 8, 8)
    assert (table >= 0.0).all()
    np.testing.assert_allclose(table.sum(axis=(2, 3)), 1.0, rtol=0, atol=EXACT)
    for phase in table:
        by_setting = phase.reshape(2, 2, 8, 8)
        alice = by_setting.sum(axis=3)  # (alice basis, bob basis, alice state)
        bob = by_setting.sum(axis=2)  # (alice basis, bob basis, bob state)
        np.testing.assert_allclose(alice[:, 0], alice[:, 1], rtol=0, atol=EXACT)
        np.testing.assert_allclose(bob[0], bob[1], rtol=0, atol=EXACT)


# ---------------------------------------------------------------------------
# Cached components
# ---------------------------------------------------------------------------

CACHED_BUILDERS = [f for f in vars(strategies).values() if hasattr(f, "cache_clear")]


def clear_caches():
    for builder in CACHED_BUILDERS:
        builder.cache_clear()


def cached_arrays(spec, settings, detector, policy):
    """Every cached array that compiling ``spec`` reads."""
    if isinstance(spec, ExistingModelSpec):
        return [strategies._existing_components(settings, detector, policy)]
    if isinstance(spec, ImprovedModelSpec):
        return [
            strategies._improved_components(settings, detector, policy, spec.trigger_intensity),
            strategies._existing_components(settings, detector, policy),
        ]
    if isinstance(spec, PerfectModelSpec) and spec.mode is PerfectMode.PHYSICAL_PULSES:
        geometry = strategies.control_geometry(settings)
        return [
            strategies._perfect_components(settings, detector, policy, spec.role_reversal),
            geometry.pol, geometry.intensity,
        ]
    return []


def test_cached_arrays_cover_every_cached_builder():
    names = {builder.__name__ for builder in CACHED_BUILDERS}
    assert names == {
        "_existing_components", "_improved_components", "control_geometry", "_perfect_components",
    }


@hyp_settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cached_components_never_change_a_table(data):
    # Every spec is compiled under each of a few (detector, policy) pairs
    # on its settings, so compiles both fill and reuse the caches, and
    # pairs that differ only in their detector or policy meet the same
    # settings.
    angles = data.draw(st.lists(settings_(), min_size=1, max_size=2))
    geometries = data.draw(st.lists(
        st.tuples(st.sampled_from(angles), detectors, st.sampled_from(DoubleClickPolicy)),
        min_size=1, max_size=3,
    ))
    jobs = []
    for _ in range(data.draw(st.integers(1, 4))):
        settings = data.draw(st.sampled_from(angles))
        try:
            spec = data.draw(specs(settings))
            joint_table(spec, settings)
        except InfeasibleGeometry:
            continue
        jobs += [(spec, *geometry) for geometry in geometries if geometry[0] == settings]

    def compile_(job):
        return joint_table(*job)

    clear_caches()
    in_order = [compile_(job) for job in jobs]
    for job, table in zip(jobs, in_order):
        for array in cached_arrays(*job):
            assert not array.flags.writeable
        clear_caches()
        assert np.array_equal(table, compile_(job))
    for a, b in zip(jobs, jobs[1:]):
        first = compile_(a)
        compile_(b)
        assert np.array_equal(compile_(a), first)
    for job, table in zip(jobs, in_order):
        scratch = compile_(job)
        assert scratch.flags.writeable
        scratch[...] = -1.0
        assert np.array_equal(compile_(job), table)
