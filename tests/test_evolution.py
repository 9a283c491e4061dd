import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from quadrelax.evolution import (
    DensityState,
    build_longitudinal_model,
    build_transverse_model,
    longitudinal_observable,
    propagate,
    transverse_observable,
)
from quadrelax.phys_params import (SpectralDensities,
                                   lorentzian_spectral_densities,
                                   quadrupolar_constant_simplified)
from quadrelax import evolution
from quadrelax.redfield_core import (CoherenceBlock, analytic_eigensystem,
                                     assemble_block, evaluate_block,
                                     liouville_superoperator, numeric_eigensystem,
                                     sector_modes)
from quadrelax.spin_algebra import SpinSystem, make_quadrupole_operators

J_REF = lorentzian_spectral_densities(47.24e6, 4.1e-9)
C_REF = quadrupolar_constant_simplified(266e3)
TABLE2_SCALES = (83.0, 3.8, 0.18)
#: every element, row-major, so that propagate(...).reshape(-1, 8, 8) is the full matrix
ALL_PAIRS = [(row, col) for row in range(8) for col in range(8)]
#: the CLI's default --elements 1,1;8,8;8,1, zero-based
CLI_PAIRS = [(0, 0), (7, 7), (7, 0)]


def all_eigensystems(j, c):
    """Numeric eigensystems for every coherence order 0..7."""
    return {q: numeric_eigensystem(assemble_block(q, j), c) for q in range(8)}


def random_hermitian_state(rng, dim=8):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityState(m / np.trace(m).real)


def test_density_state_rejects_non_hermitian():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        DensityState(m)


def test_density_state_indexing():
    st = DensityState.noon()
    assert st.coherence_vector(7)[0] == 0.5
    np.testing.assert_allclose(st.coherence_vector(0), [0.5, 0, 0, 0, 0, 0, 0, 0.5])
    assert np.trace(st.matrix) == 1.0


def test_initial_amplitudes_published_q6_case():
    # rho_{7,1} = 1, rho_{8,2} = 0 through the q=6 transformation
    es = analytic_eigensystem(6, J_REF, C_REF)
    m = np.zeros((8, 8), dtype=complex)
    m[6, 0] = m[0, 6] = 1.0
    amps = es.w @ DensityState(m).coherence_vector(6)
    np.testing.assert_allclose(amps, [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_initial_amplitudes_zero_for_equilibrium_coherences():
    systems = all_eigensystems(J_REF, C_REF)
    eq = DensityState.pure_top()
    for q in range(1, 8):
        amps = systems[q].w @ eq.coherence_vector(q)
        np.testing.assert_allclose(amps, 0.0, atol=1e-15)


def test_initial_amplitudes_round_trip():
    rng = np.random.default_rng(0)
    systems = all_eigensystems(J_REF, C_REF)
    state = random_hermitian_state(rng)
    for q in range(8):
        amps = systems[q].w @ state.coherence_vector(q)
        back = systems[q].w_bar @ amps
        np.testing.assert_allclose(back, state.coherence_vector(q), atol=1e-12)


def test_propagate_t0_identity_and_long_time():
    rng = np.random.default_rng(1)
    systems = all_eigensystems(J_REF, C_REF)
    rho0 = random_hermitian_state(rng)
    eq = DensityState.uniform()
    for q in range(8):
        rates = systems[q].rates
        horizon = 20.0 / np.min(rates[rates > 0])
        pairs = [(q + n, n) for n in range(8 - q)]
        now, later = propagate(rho0, eq, J_REF, C_REF, [0.0, horizon], pairs)
        np.testing.assert_allclose(now, rho0.coherence_vector(q), atol=1e-12)
        np.testing.assert_allclose(later, eq.coherence_vector(q), atol=1e-8)


def test_q7_single_exponential_value():
    # |rho_81| = 0.5/e after one 1/R period at the 21.69 kHz rate
    systems = all_eigensystems(J_REF, C_REF)
    rate = systems[7].rates[0]
    assert rate == pytest.approx(21.69e3, rel=1e-3)
    vals = propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [1.0 / rate],
                     [(7, 0)])
    assert abs(vals[0, 0]) == pytest.approx(0.5 / np.e, rel=1e-12)
    assert 1.0 / rate == pytest.approx(46.10e-6, rel=1e-3)


def test_propagate_noon_reference_shape():
    times = np.linspace(0.0, 1e-3, 60)
    traj = propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, times,
                     ALL_PAIRS)
    assert traj.shape == (60, 64) and traj.dtype == complex
    traj = traj.reshape(-1, 8, 8)
    assert traj.shape == (60, 8, 8)
    rho11 = traj[:, 0, 0].real
    rho88 = traj[:, 7, 7].real
    rho81 = np.abs(traj[:, 7, 0])
    assert rho11[0] == pytest.approx(0.5) and rho11[-1] > 0.95
    assert rho88[-1] < 0.05 and rho81[-1] < 1e-6
    # the coherence dies faster than the slowest population mode (4.13 kHz)
    slow = np.exp(-4.13e3 * times[1:])
    assert np.all(rho81[1:] / 0.5 < slow)
    # monotone decay of the top coherence
    assert np.all(np.diff(rho81) < 0)


def test_propagate_fixed_point():
    eq = DensityState.pure_top()
    traj = propagate(eq, eq, J_REF, C_REF, np.linspace(0, 1.0, 5), ALL_PAIRS).reshape(-1, 8, 8)
    for m in traj:
        np.testing.assert_allclose(m, eq.matrix, atol=1e-12)


def test_propagate_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(2)
    rho0 = random_hermitian_state(rng)
    eq = DensityState.uniform()
    traj = propagate(rho0, eq, J_REF, C_REF, np.logspace(-6, 0, 10), ALL_PAIRS).reshape(-1, 8, 8)
    np.testing.assert_allclose(traj, np.conj(np.swapaxes(traj, 1, 2)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.trace(traj, axis1=1, axis2=2).real, 1.0, rtol=0, atol=1e-10)


def test_propagate_is_the_per_order_scalar_assembly():
    # the sector solve agrees with the mode sum eq + w_bar (exp(-R t) o (w dev)) of
    # each order on the canonical numeric eigensystems, one time at a time
    eq = DensityState.pure_top()
    times = np.linspace(0.0, 2e-4, 25)
    systems = all_eigensystems(J_REF, C_REF)
    for state in ("noon", "pure_top", "uniform", "random"):
        rho0 = (random_hermitian_state(np.random.default_rng(6)) if state == "random"
                else getattr(DensityState, state)())
        want = np.zeros((times.size, 8, 8), dtype=complex)
        for k, t in enumerate(times):
            for q, es in systems.items():
                eq_q = eq.coherence_vector(q)
                amps = es.w @ (rho0.coherence_vector(q) - eq_q)
                for n, v in enumerate(eq_q + es.w_bar @ (np.exp(-es.rates * t) * amps)):
                    want[k, q + n, n] = v
                    if q > 0:
                        want[k, n, q + n] = np.conj(v)
        got = propagate(rho0, eq, J_REF, C_REF, times, ALL_PAIRS).reshape(-1, 8, 8)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        if state != "random":
            # every exact zero keeps its sign: the written trajectory prints them
            for part in (np.real, np.imag):
                zero = part(want) == 0
                assert np.array_equal(part(got)[zero].view(np.uint64),
                                      part(want)[zero].view(np.uint64)), state


@pytest.mark.parametrize("state", ["noon", "uniform", "random"])
def test_propagate_subset_is_bitwise_the_full_columns(state):
    rho0 = (random_hermitian_state(np.random.default_rng(7)) if state == "random"
            else getattr(DensityState, state)())
    eq = DensityState.pure_top()
    times = np.linspace(0.0, 2e-4, 30)
    full = propagate(rho0, eq, J_REF, C_REF, times, ALL_PAIRS)
    for pairs in (CLI_PAIRS, [(0, 7), (3, 3), (2, 5), (5, 2), (0, 7)], [(6, 1)]):
        got = propagate(rho0, eq, J_REF, C_REF, times, pairs)
        want = np.ascontiguousarray(full[:, [8 * row + col for row, col in pairs]])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_propagate_solves_only_the_orders_of_its_elements(monkeypatch):
    orders = []

    def counting(qs, weights):
        orders.extend(qs)
        return sector_modes(qs, weights)

    monkeypatch.setattr(evolution, "sector_modes", counting)
    propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [0.0, 1e-4],
              [(2, 5), (1, 1), (5, 2), (4, 4)])
    assert sorted(orders) == [0, 3]
    orders.clear()
    propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [0.0, 1e-4],
              ALL_PAIRS)
    assert sorted(orders) == list(range(8))


@pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (8, 0), (0, 8), (-8, -8)])
def test_propagate_rejects_element_outside_the_matrix(pair):
    # without the check, (-1, 0) would read element (7, 0) through negative indexing
    with pytest.raises(ValueError, match="outside 0..7"):
        propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [0.0],
                  [(0, 0), pair])


def test_propagate_rejects_unsorted_times():
    with pytest.raises(ValueError):
        propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [1e-3, 1e-4],
                  CLI_PAIRS)


def test_propagate_rejects_negative_time():
    with pytest.raises(ValueError, match="non-negative"):
        propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [-1e-6, 0.0],
                  CLI_PAIRS)


def test_propagate_starts_exactly_at_rho0():
    # the propagator at t = 0 is the identity: every element of rho0, zeros included
    rho0 = random_hermitian_state(np.random.default_rng(8))
    traj = propagate(rho0, DensityState.pure_top(), J_REF, C_REF, [0.0, 0.0, 1e-4],
                     ALL_PAIRS).reshape(-1, 8, 8)
    lower = np.tril(rho0.matrix)
    want = lower + np.tril(lower, -1).conj().T
    assert np.array_equal(traj[0], want) and np.array_equal(traj[1], want)
    noon = propagate(DensityState.noon(), DensityState.pure_top(), J_REF, C_REF, [0.0],
                     ALL_PAIRS).reshape(8, 8)
    assert np.array_equal(noon, DensityState.noon().matrix)


#: forward-workload physics: Lorentzian J at omega0 tau_c from 1e-3 to 1e2, and the
#: corners J1 = J2 and J0/J2 up to 1e5 built on a Lorentzian J
_LARMOR = st.floats(np.log10(20e6), np.log10(200e6)).map(lambda e: 10.0 ** e)
_W0_TAU = st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e)
_LORENTZIAN = st.tuples(_LARMOR, _W0_TAU).map(
    lambda x: lorentzian_spectral_densities(x[0], x[1] / (2 * np.pi * x[0])))
_FORWARD_J = st.one_of(
    _LORENTZIAN,
    _LORENTZIAN.map(lambda j: SpectralDensities(j.j0, j.j1, j.j1)),
    st.tuples(_LORENTZIAN, st.floats(0.0, 5.0)).map(
        lambda x: SpectralDensities(x[0].j2 * 10.0 ** x[1], x[0].j1, x[0].j2)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(_FORWARD_J, st.floats(np.log10(5e3), np.log10(500e3)).map(lambda e: 10.0 ** e),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["pure_top", "uniform"]))
def test_propagate_matches_the_liouville_exponential(j, quad_freq, fractions, seed, eq_name):
    # every element against expm(C L t) of the full 64 x 64 superoperator, at times up
    # to 20 q = 7 relaxation times
    c = quadrupolar_constant_simplified(quad_freq)
    times = np.sort(fractions) * 20.0 / (c.c * (21 * j.j1 + 7 * j.j2))
    rho0, eq = random_hermitian_state(np.random.default_rng(seed)), getattr(DensityState, eq_name)()
    generator = c.c * liouville_superoperator(make_quadrupole_operators(SpinSystem(7)), j)
    got = propagate(rho0, eq, j, c, times, ALL_PAIRS).reshape(-1, 8, 8)
    dev = (rho0.matrix - eq.matrix).reshape(-1)
    for t, traj in zip(times, got):
        want = eq.matrix + (expm(generator * t) @ dev).reshape(8, 8)
        np.testing.assert_allclose(traj, want, rtol=0, atol=1e-12)


def test_propagate_rejects_other_dimensions():
    with pytest.raises(ValueError, match="8x8"):
        propagate(DensityState.noon(6), DensityState.pure_top(6), J_REF, C_REF, [0.0],
                  CLI_PAIRS)


def test_eigen_sum_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    times = (0.0, 1e-13, 5e-13, 2e-12)
    for _ in range(5):
        j = SpectralDensities(rng.uniform(0.5, 5), rng.uniform(0.1, 0.5), rng.uniform(0.01, 0.1))
        rho0 = random_hermitian_state(rng)
        eq = DensityState.uniform()
        traj = propagate(rho0, eq, j, C_REF, times, ALL_PAIRS).reshape(-1, 8, 8)
        for q in range(8):
            blk = assemble_block(q, j).matrix
            dev = rho0.coherence_vector(q) - eq.coherence_vector(q)
            n = np.arange(8 - q)
            for t, got in zip(times, traj):
                oracle = eq.coherence_vector(q) + expm(C_REF.c * blk * t) @ dev
                np.testing.assert_allclose(got[q + n, n], oracle, atol=1e-9)


def test_deviation_dynamics_superpose():
    rng = np.random.default_rng(4)
    eq = DensityState.uniform()
    s1 = random_hermitian_state(rng)
    s2 = random_hermitian_state(rng)
    a, b = 0.3, 0.7
    mixed = DensityState(a * s1.matrix + b * s2.matrix)
    times = np.logspace(-5, -2, 4)
    traj_mixed, traj_1, traj_2 = (propagate(s, eq, J_REF, C_REF, times, ALL_PAIRS).reshape(-1, 8, 8)
                                  for s in (mixed, s1, s2))
    for tm, t1, t2 in zip(traj_mixed, traj_1, traj_2):
        dev_mixed = tm - eq.matrix
        dev_sum = a * (t1 - eq.matrix) + b * (t2 - eq.matrix)
        np.testing.assert_allclose(dev_mixed, dev_sum, atol=1e-10)


# -- magnetization models -----------------------------------------------------

def eigensystems_at_scales(scales):
    es0 = numeric_eigensystem(CoherenceBlock(0, evaluate_block(0, scales)))
    es1 = numeric_eigensystem(CoherenceBlock(1, evaluate_block(1, scales)))
    return es0, es1


def test_longitudinal_reference_modes():
    # four active modes with the published times and amplitudes (the published
    # amplitude columns include the overall scale)
    es0, _ = eigensystems_at_scales(TABLE2_SCALES)
    model = build_longitudinal_model(es0, scale=0.0230, prep_efficiency=1.00)
    amps = model.scale * model.amplitudes
    times = np.where(model.rates > 0, 1.0 / np.maximum(model.rates, 1e-300), np.inf)
    active = np.abs(amps) > 1e-6
    assert active.sum() == 4
    got = sorted(zip(times[active], amps[active]))
    want = [(4.6e-3, -2.6e-3), (11.5e-3, -67e-3), (38e-3, -223e-3), (310e-3, -1672e-3)]
    for (t_got, a_got), (t_want, a_want) in zip(got, want):
        assert t_got == pytest.approx(t_want, rel=0.05)
        assert a_got == pytest.approx(a_want, rel=0.05)
    assert model.equilibrium_term == pytest.approx(42.0, rel=1e-12)


def test_longitudinal_inactive_mode_times():
    # the zero-amplitude partners sit at the published times as well
    es0, _ = eigensystems_at_scales(TABLE2_SCALES)
    model = build_longitudinal_model(es0, 0.0230, 1.00)
    times_ms = np.where(model.rates > 0, 1e3 / np.maximum(model.rates, 1e-300), np.inf)
    inactive = np.abs(model.amplitudes) <= 1e-4
    finite = sorted(t for t in times_ms[inactive] if np.isfinite(t))
    for got, want in zip(finite, (4.6, 11.2, 37.0)):
        assert got == pytest.approx(want, rel=0.05)
    assert np.isinf(times_ms[inactive]).sum() == 1


def test_longitudinal_equilibrium_preparation_is_static():
    es0, _ = eigensystems_at_scales(TABLE2_SCALES)
    # preparing exactly at the (negated) equilibrium deviation kills every mode
    model = build_longitudinal_model(es0, 1.0, prep_efficiency=-1.0)
    np.testing.assert_allclose(model.amplitudes, 0.0, atol=1e-12)


def test_longitudinal_t0_value():
    es0, _ = eigensystems_at_scales(TABLE2_SCALES)
    a1, a2 = 0.0230, 1.00
    model = build_longitudinal_model(es0, a1, a2)
    total = model.evaluate(np.array([0.0]))[0]
    # t = 0 signal equals a1 * tr(Iz rho_prep) with rho_prep = -a2 Iz
    assert total == pytest.approx(a1 * (-a2 * 42.0), rel=1e-10)
    assert np.sum(model.amplitudes) == pytest.approx(-(1 + a2) * 42.0, rel=1e-10)


def test_transverse_reference_times():
    _, es1 = eigensystems_at_scales(TABLE2_SCALES)
    model = build_transverse_model(es1, scale=0.019, prep_efficiency=0.99)
    times_ms = 1e3 / model.rates
    active = np.abs(model.amplitudes) > 1e-4
    assert active.sum() == 4
    got = sorted(times_ms[active])
    # slowest active mode: see the acceptance notes on the published 49 ms
    for got_t, want_t in zip(got[:3], (1.15, 2.3, 7.7)):
        assert got_t == pytest.approx(want_t, rel=0.05)
    assert got[3] == pytest.approx(39.6, rel=0.02)
    inactive = sorted(times_ms[~active])
    for got_t, want_t in zip(inactive, (1.15, 2.3, 7.3)):
        assert got_t == pytest.approx(want_t, rel=0.05)


def test_transverse_t0_value_and_decay():
    _, es1 = eigensystems_at_scales(TABLE2_SCALES)
    a1, a2 = 0.019, 0.99
    model = build_transverse_model(es1, a1, a2)
    t0 = model.evaluate(np.array([0.0]))[0]
    # equals a1 * tr(Ix rho_prep) with rho_prep = a2 Ix
    assert t0 == pytest.approx(a1 * a2 * 42.0, rel=1e-10)
    late = model.evaluate(np.array([5.0]))[0]
    assert abs(late) < 1e-12
    assert model.equilibrium_term == 0.0


def test_model_evaluate_gives_both_signals():
    es0, es1 = eigensystems_at_scales(TABLE2_SCALES)
    times = np.linspace(1e-3, 1.0, 20)
    sz = build_longitudinal_model(es0, 0.023, 1.0).evaluate(times)
    sx = build_transverse_model(es1, 0.019, 0.99).evaluate(times)
    assert sz.shape == sx.shape == (20,)
    assert sz[-1] > 0.9  # recovered toward +a1*42
    assert sx[-1] < 1e-4


def test_cached_observables_are_read_only():
    iz = longitudinal_observable()
    weights, elements = transverse_observable()
    assert iz is longitudinal_observable()
    assert transverse_observable()[0] is weights
    for arr in (iz, weights, elements):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    np.testing.assert_array_equal(iz, np.arange(3.5, -4, -1))


def test_model_requires_matching_order():
    es0, es1 = eigensystems_at_scales(TABLE2_SCALES)
    with pytest.raises(ValueError):
        build_longitudinal_model(es1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_transverse_model(es0, 1.0, 1.0)
