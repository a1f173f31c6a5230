"""Exactness of the compiled outcome tables the engine samples from.

Each table is compared with its closed-form oracle to 1e-12, and a
property test checks, over random specs, detectors and policies, that
every table is a probability distribution per setting whose marginals
ignore the remote setting (exact no-signalling). A second property test
checks that the cached, weight-free parts of every model never change a
table: compiling in any order gives what a cold compile gives, and the
quantum table, cold or warm, is the state-vector table bit for bit. The
locality certificates rebuild each local model's table from its
decomposition into emissions, with probability-vector responses.
"""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings as hyp_settings, strategies as st

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
from bellsim.core import DoubleClickPolicy, ValidationError
from bellsim.detector import StepThreshold, TwoThreshold
from bellsim.engine import RunConfig, chsh_statistics, run
from bellsim.inequalities import AllZeroCoincidences
from bellsim.optics import OUT_INCONCLUSIVE, OUT_MINUS, OUT_PLUS
from bellsim.strategies import (
    InfeasibleGeometry,
    joint_table,
    quantum_correlation,
    quantum_joint_probabilities,
)
from oracles import perfect_joint_distribution, synthetic_blinded_response

_spec = importlib.util.spec_from_file_location("make_exact", Path(__file__).parent / "data" / "make_exact.py")
make_exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_exact)

STANDARD = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, 67.5)
CODE = {"+": OUT_PLUS, "-": OUT_MINUS, "?": OUT_INCONCLUSIVE}
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
    st.just(synthetic_blinded_response()),
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


def analytic_reference(a, b, role_reversal):
    """The perfect/analytic table as one direct einsum per phase.

    Each label is drawn with probability 1/2. The controlled party (Alice,
    then Bob in the reversed phase) reports + with probability a or ? on
    the basis that matches the label, and +/- (b/2 each) or ? on the other.
    The other party is certain: - at (label 0, basis 1), or at (label 1,
    basis 0) when reversed, + elsewhere.
    """
    match, mismatch = np.zeros(8), np.zeros(8)
    match[[OUT_PLUS, OUT_INCONCLUSIVE]] = a, 1.0 - a
    mismatch[[OUT_PLUS, OUT_MINUS, OUT_INCONCLUSIVE]] = b / 2.0, b / 2.0, 1.0 - b
    controlled = np.array([[match, mismatch], [mismatch, match]])  # (label, basis, state)
    phases = []
    for reversed_ in (False, True)[: 1 + role_reversal]:
        certain = np.zeros((2, 2, 8))
        for label in (0, 1):
            for basis in (0, 1):
                minus = (label, basis) == ((1, 0) if reversed_ else (0, 1))
                certain[label, basis, OUT_MINUS if minus else OUT_PLUS] = 1.0
        alice, bob = (certain, controlled) if reversed_ else (controlled, certain)
        phases.append(np.einsum("e,eak,ebl->abkl", [0.5, 0.5], alice, bob).reshape(4, 8, 8))
    return np.array(phases)


@hyp_settings(max_examples=300, deadline=None)
@given(a=unit, b=unit, role_reversal=st.booleans())
@example(a=0.6, b=0.6, role_reversal=True)
@example(a=0.6, b=0.0, role_reversal=True)
@example(a=1.0, b=0.4, role_reversal=False)
@example(a=1.0, b=1.0, role_reversal=True)
@example(a=0.0, b=0.0, role_reversal=False)
@example(a=5e-324, b=1e-310, role_reversal=True)
def test_analytic_mixture_is_the_direct_table_bit_for_bit(a, b, role_reversal):
    table = compiled(PerfectModelSpec(a, b, role_reversal=role_reversal))
    want = analytic_reference(a, b, role_reversal)
    if 0.0 < min(a, b) < 4.0 * sys.float_info.min:
        # a/2 or b/4 is subnormal, so halving it rounds; the mixture's fused
        # multiply-add rounds once where the einsum rounds twice.
        np.testing.assert_allclose(table, want, rtol=0, atol=2 * 2.0**-1074)
    else:
        assert table.tobytes() == want.tobytes()


CACHED_BUILDERS = [f for f in vars(strategies).values() if hasattr(f, "cache_clear")]


def clear_caches():
    for builder in CACHED_BUILDERS:
        builder.cache_clear()


def cached_arrays(spec, settings, detector, policy):
    """Every cached array that compiling ``spec`` reads."""
    if isinstance(spec, QuantumSpec):
        return [strategies._quantum_outcomes(spec.state, settings)]
    _, build, key = strategies._decompose(spec, settings, detector, policy)
    arrays = [strategies._components(build, *key)]
    if build is strategies._physical_model:
        geometry = strategies.control_geometry(settings)
        arrays += [geometry.pol, geometry.intensity]
    return arrays


def test_cached_arrays_cover_every_cached_builder():
    names = {builder.__name__ for builder in CACHED_BUILDERS}
    assert names == {"_components", "control_geometry", "_quantum_outcomes"}


def quantum_reference(state, eta_true, settings):
    """The quantum table straight from the state vector: per setting pair,
    the +/- joint probabilities, then each side erased at 1 - eta_true."""
    erasure = np.zeros((2, 8))
    erasure[0, OUT_PLUS] = erasure[1, OUT_MINUS] = eta_true
    erasure[:, OUT_INCONCLUSIVE] = 1.0 - eta_true
    table = np.empty((1, 4, 8, 8))
    for pair in SettingPair:
        p = quantum_joint_probabilities(settings.alice_angle(pair.alice), settings.bob_angle(pair.bob), state)
        table[0, 2 * pair.alice + pair.bob] = erasure.T @ p @ erasure
    return table


@hyp_settings(max_examples=200, deadline=None)
@given(angles=settings_(), rotate_a=st.floats(-90.0, 90.0), rotate_b=st.floats(-90.0, 90.0), eta_true=unit)
@example(angles=STANDARD, rotate_a=0.0, rotate_b=0.0, eta_true=0.9)
def test_cached_quantum_table_is_the_state_vector_table_bit_for_bit(angles, rotate_a, rotate_b, eta_true):
    state = bell_phi_plus().rotated(rotate_a, rotate_b)
    want = quantum_reference(state, eta_true, angles).tobytes()
    clear_caches()
    assert joint_table(QuantumSpec(state, eta_true), angles).tobytes() == want  # cold
    assert joint_table(QuantumSpec(state, eta_true), angles).tobytes() == want  # warm


def test_quantum_runs_draw_the_same_counts_cold_or_warm():
    config = RunConfig(QuantumSpec(bell_phi_plus().rotated(13.0, -27.0), 0.9), STANDARD, 3 * (1 << 16) + 5, 11)
    clear_caches()
    first = run(config).counts.cells
    clear_caches()
    assert np.array_equal(run(config).counts.cells, first)
    assert np.array_equal(run(config).counts.cells, first)


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


# ---------------------------------------------------------------------------
# Locality certificates
# ---------------------------------------------------------------------------


def assert_probability_vectors(array):
    assert (array >= 0.0).all()
    np.testing.assert_allclose(array.sum(axis=-1), 1.0, rtol=0, atol=EXACT)


def pulse_model_jobs():
    """(spec, settings, detector, policy) of every pulse model on the exact-pin grid that compiles."""
    makers = [
        make for name, make in make_exact.grid_specs().items()
        if name.startswith(("existing/", "improved/")) or "/physical/" in name
    ]
    for degrees in make_exact.GEOMETRIES.values():
        settings = MeasurementSettings.from_degrees(*degrees)
        for make in makers:
            for detector in make_exact.DETECTORS.values():
                for policy in DoubleClickPolicy:
                    try:
                        spec = make(settings)
                        joint_table(spec, settings, detector, policy)
                    except ValidationError:
                        continue  # the angles cannot support it
                    yield spec, settings, detector, policy


def test_pulse_models_are_mixtures_of_local_emissions():
    # A constructive certificate: a setting-blind distribution over
    # emissions, and each party's state distribution from the emission and
    # its own basis alone, rebuild the table.
    kinds = set()
    for job in pulse_model_jobs():
        weights, build, key = strategies._decompose(*job)
        groups, alice, bob = build(*key)
        emissions = np.array(weights) @ groups
        assert_probability_vectors(emissions)
        assert_probability_vectors(alice)
        assert_probability_vectors(bob)
        table = joint_table(*job)
        assert len(table) == len(alice) == len(bob)
        for phase, a, b in zip(table, alice, bob):
            np.testing.assert_allclose(strategies._local_table(emissions, a, b), phase, rtol=0, atol=EXACT)
        kinds.add(build.__name__)
    assert kinds == {"_existing_model", "_improved_model", "_physical_model"}


@hyp_settings(max_examples=100, deadline=None)
@given(a=unit, b=unit, role_reversal=st.booleans())
def test_analytic_parts_sum_to_a_local_model(a, b, role_reversal):
    # Each analytic part fills one basis only, so its rows are not
    # distributions; per label, the parts weighed together are. The source
    # draws each label at 1/2, and the other party's response is certain.
    spec = PerfectModelSpec(a, b, role_reversal=role_reversal)
    weights, build, key = strategies._decompose(spec, STANDARD, None, None)
    _, alice, bob = build(*key)
    table = compiled(spec)
    assert len(table) == len(alice) == 1 + role_reversal
    for phase, (a_parts, b_parts) in enumerate(zip(alice, bob)):
        controlled, certain = (b_parts, a_parts) if phase else (a_parts, b_parts)
        by_label = np.einsum("k,lkbs->lbs", weights, controlled.reshape(2, 4, 2, 8))
        certain = certain.reshape(2, 4, 2, 8)
        assert (certain == certain[:, :1]).all()
        assert_probability_vectors(by_label)
        assert_probability_vectors(certain[:, 0])
        pair = (certain[:, 0], by_label) if phase else (by_label, certain[:, 0])
        np.testing.assert_allclose(strategies._local_table(np.array([0.5, 0.5]), *pair), table[phase],
                                   rtol=0, atol=EXACT)


ITEM_1_SETTINGS = MeasurementSettings.from_degrees(0.0, 45.0, 22.5, -22.5)
STEP_SIZED_SPECS = {
    "perfect-physical": PerfectModelSpec(
        *ab_from_eta(2.0 * (math.sqrt(2.0) - 1.0))[:2], mode=PerfectMode.PHYSICAL_PULSES
    ),
    "existing": ExistingModelSpec(2.0 ** -0.5),
}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", list(STEP_SIZED_SPECS))
def test_a_step_threshold_is_a_unit(name):
    # A source that sizes its pulses for the configured detector gives the
    # same table whatever unit the step's threshold is stated in. Today the
    # pulses assume a threshold of 1: the physical perfect model falls to
    # S 2.00 at eta 0.634, and existing gets no coincidences at all.
    def statistics(threshold):
        table = joint_table(STEP_SIZED_SPECS[name], ITEM_1_SETTINGS, StepThreshold(threshold))
        stats = chsh_statistics(table.mean(axis=0))
        return [*stats.correlations.values(), *stats[1:]]

    assert statistics(2.0) == pytest.approx(statistics(1.0), abs=EXACT)
