from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm_frechet
from scipy.optimize import least_squares

from quadrelax import analysis
from quadrelax.analysis import (
    FIT_NAMES,
    PARAM_NAMES,
    _exp_divided_differences,
    _joint_jacobian,
    _joint_signals,
    fit_bloch_longitudinal,
    fit_bloch_transverse,
    fit_redfield_joint,
    ilt,
    joint_model_curves,
    joint_models,
    residual_spectrum,
)
from quadrelax.curves import DecayCurve, read_curve
from quadrelax.evolution import (build_longitudinal_model, build_transverse_model,
                                 longitudinal_observable, transverse_observable)
from quadrelax.redfield_core import (CoherenceBlock, coefficient_matrices, evaluate_block,
                                     numeric_eigensystem)
from quadrelax.phys_params import quadrupolar_constant_simplified

TABLE2 = dict(a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99, b0=83.0, b1=3.8, b2=0.18)
C_EXP = quadrupolar_constant_simplified(5969.0)
DATA_DIR = Path(__file__).resolve().parents[1] / "data"


# -- joint fit -----------------------------------------------------------------

def make_joint_curves(noise=0.0, seed=0, n_long=24, n_trans=265):
    times_long = np.logspace(np.log10(2e-3), np.log10(1.5), n_long)
    times_trans = np.arange(1, n_trans + 1) / 5969.0
    sz, sx = joint_model_curves(TABLE2, times_long, times_trans)
    if noise:
        rng = np.random.default_rng(seed)
        sz = sz + noise * rng.standard_normal(sz.size)
        sx = sx + noise * rng.standard_normal(sx.size)
    return DecayCurve(times_long, sz), DecayCurve(times_trans, sx)


def test_joint_fit_noiseless_self_consistency():
    long_curve, trans_curve = make_joint_curves()
    init = dict(TABLE2, b0=100.0, b1=3.0, b2=0.3, a1z=0.03)
    result = fit_redfield_joint(long_curve, trans_curve, init, restarts=1)
    assert result.residual_norm < 1e-8
    for name in ("a1z", "a2z", "b0", "b1", "b2"):
        assert result.params[name] == pytest.approx(TABLE2[name], rel=1e-3), name
    # the transverse scale and efficiency only enter through their product
    assert (result.params["a1x"] * result.params["a2x"]
            == pytest.approx(TABLE2["a1x"] * TABLE2["a2x"], rel=1e-3))


def test_joint_fit_objective_mode_order_invariance():
    # permuting fit parameters that only relabel modes cannot change the model
    times = np.linspace(1e-3, 0.5, 50)
    sz1, sx1 = joint_model_curves(TABLE2, times, times)
    sz2, sx2 = joint_model_curves(dict(TABLE2), times, times)
    np.testing.assert_allclose(sz1, sz2, atol=1e-15)
    np.testing.assert_allclose(sx1, sx2, atol=1e-15)


def test_joint_models_are_the_hand_built_pair():
    scales = (TABLE2["b0"], TABLE2["b1"], TABLE2["b2"])
    es0 = numeric_eigensystem(CoherenceBlock(0, evaluate_block(0, scales)))
    es1 = numeric_eigensystem(CoherenceBlock(1, evaluate_block(1, scales)))
    want = (build_longitudinal_model(es0, TABLE2["a1z"], TABLE2["a2z"]),
            build_transverse_model(es1, TABLE2["a1x"], TABLE2["a2x"]))
    times = np.linspace(1e-3, 0.5, 50)
    for got, ref in zip(joint_models(TABLE2), want):
        np.testing.assert_array_equal(got.rates, ref.rates)
        np.testing.assert_array_equal(got.amplitudes, ref.amplitudes)
        np.testing.assert_array_equal(got.evaluate(times), ref.evaluate(times))


def test_joint_fit_noiseless_from_2x_starts():
    # the multi-start budget reaches the noiseless optimum from starts
    # anywhere within a factor 2 of the truth
    long_curve, trans_curve = make_joint_curves(n_long=20, n_trans=80)
    rng = np.random.default_rng(9)
    factors = 2.0 ** rng.uniform(-1, 1, size=7)
    init = {k: v * f for (k, v), f in zip(TABLE2.items(), factors)}
    result = fit_redfield_joint(long_curve, trans_curve, init, restarts=16, seed=1)
    assert result.residual_norm < 1e-8


def test_joint_fit_on_bundled_pair():
    # Reference values: the earlier seven-parameter simplex fit of the bundled
    # pair (CLI default start, 2 restarts, seed 0) and its finite-difference
    # Hessian sigmas.  The transverse amplitude is the product a1x*a2x.
    long_curve = read_curve(DATA_DIR / "synthetic_longitudinal.csv")
    trans_curve = read_curve(DATA_DIR / "synthetic_transverse.csv")
    init = dict(a1z=0.03, a2z=1.0, a1x=0.03, a2x=1.0, b0=100.0, b1=5.0, b2=0.3)
    result = fit_redfield_joint(long_curve, trans_curve, init, restarts=2, seed=0)
    assert result.converged
    assert result.residual_norm <= 0.17195044894744235 * (1 + 1e-9)
    want = dict(a1z=0.022947548279665032, a2z=1.0036859704440562,
                a1x=0.025749871985092827 * 0.7241455880690828,
                b0=82.12737843477655, b1=3.8548640520548254, b2=0.17841333744729146)
    for name, value in want.items():
        assert result.params[name] == pytest.approx(value, rel=1e-7), name
    assert result.params["a2x"] == 1.0
    hessian_sigmas = dict(a1z=0.00018314152022146768, a2z=0.008625952791992512,
                          b0=1.827824799840802, b1=0.07241869075220071,
                          b2=0.0031492682580083428)
    for name, sigma in hessian_sigmas.items():
        assert result.uncertainties[name] == pytest.approx(sigma, rel=0.01), name
    assert set(result.uncertainties) == set(FIT_NAMES)


def _bundled_optimum():
    """The bundled pair and the fitted vector x over FIT_NAMES at its optimum."""
    long_curve = read_curve(DATA_DIR / "synthetic_longitudinal.csv")
    trans_curve = read_curve(DATA_DIR / "synthetic_transverse.csv")
    x = np.array([0.022947547471213102, 1.0036860101321903, 0.018646656136968105,
                  82.12738082301736, 3.854863992572635, 0.1784133462949915])
    return long_curve, trans_curve, x


def _frechet_b_columns(x, times_long, times_trans):
    """The B columns of both signals' Jacobians from the full 8x8 and 7x7 blocks.

    d/dB_k of c^T exp(M t) d is c^T L_exp(M t, A_k t) d; scipy's expm_frechet
    computes L by scaling and squaring, independently of any eigensolve.
    """
    a1z, a2z, a1x = x[:3]
    iz = longitudinal_observable()
    columns = []
    for q, obs, dev, times, scale in ((0, iz, -iz, times_long, a1z * (1 + a2z)),
                                      (1, *transverse_observable(), times_trans, a1x)):
        m = evaluate_block(q, tuple(x[3:]))
        columns.append(np.array([[scale * obs @ expm_frechet(m * t, a * t, compute_expm=False)
                                  @ dev for a in coefficient_matrices(q)] for t in times]))
    return columns


def _assert_b_columns_match_frechet(x, times_long, times_trans):
    jz, jx = _joint_jacobian(x, times_long, times_trans)
    for q, got, want in zip((0, 1), (jz, jx), _frechet_b_columns(x, times_long, times_trans)):
        np.testing.assert_allclose(got[:, 3:], want, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(want)), err_msg=f"q={q}")


def test_jacobian_b_columns_are_the_frechet_derivative_of_expm():
    long_curve, trans_curve, x = _bundled_optimum()
    _assert_b_columns_match_frechet(x, long_curve.times, trans_curve.times[::5])


@pytest.mark.parametrize("lam", [[-3.0, -1.0, -1.0, -0.2],          # an exact tie
                                 [-3.0, -1.0, -1.0 + 1e-12, -0.2],  # a tie within 1e-12
                                 [-4000.0, -1.0, -0.5, 0.0]])       # exp(4000 t) overflows
def test_exp_divided_differences_give_the_frechet_derivative(lam):
    # with M = Q diag(lam) Q^T, L_exp(M t, E t) = Q (G(t) o Q^T E Q) Q^T for any
    # symmetric E, the eigenvectors Q being exact here
    lam = np.array(lam)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    e = rng.standard_normal((4, 4))
    e = e + e.T
    times = np.array([0.0, 1e-3, 0.3, 1.5])
    g = _exp_divided_differences(lam, times)
    assert np.all(np.isfinite(g))
    for t, g_t in zip(times, g):
        want = expm_frechet(q @ np.diag(lam * t) @ q.T, e * t, compute_expm=False)
        np.testing.assert_allclose(q @ (g_t * (q.T @ e @ q)) @ q.T, want,
                                   rtol=1e-10, atol=1e-13 * max(1.0, np.max(np.abs(want))))
    # the tied limit is t exp(lam t), exactly on the diagonal
    np.testing.assert_array_equal(g[:, [0, 1, 2, 3], [0, 1, 2, 3]],
                                  times[:, None] * np.exp(np.outer(times, lam)))


def test_jacobian_matches_central_differences():
    long_curve, trans_curve, x = _bundled_optimum()
    jac = np.vstack(_joint_jacobian(x, long_curve.times, trans_curve.times))

    def signals(v):
        return np.concatenate(joint_model_curves(np.insert(v, 3, 1.0), long_curve.times,
                                                 trans_curve.times))

    for k, name in enumerate(FIT_NAMES):
        h = 1e-5 * abs(x[k])
        step = np.eye(x.size)[k] * h
        central = (signals(x + step) - signals(x - step)) / (2 * h)
        np.testing.assert_allclose(jac[:, k], central, rtol=0,
                                   atol=1e-7 * np.max(np.abs(central)), err_msg=name)


def test_residual_and_jacobian_share_one_eigensolve(monkeypatch):
    # each trial point solves the 4x4 odd q = 0 and even q = 1 sector once, and
    # the Jacobian at an accepted point reuses the residual's eigensystems
    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=3)
    sectors = []
    real = analysis.sector_eigensystem
    monkeypatch.setattr(analysis, "sector_eigensystem",
                        lambda q, odd, b: sectors.append((q, odd)) or real(q, odd, b))
    objective = []
    real_signals = analysis._joint_signals
    monkeypatch.setattr(analysis, "_joint_signals",
                        lambda *a: objective.append(1) or real_signals(*a))
    analysis._joint_eigensystems.cache_clear()
    result = fit_redfield_joint(long_curve, trans_curve, TABLE2, restarts=1)
    assert len(objective) == result.evaluations
    assert sectors == [(0, True), (1, False)] * result.evaluations
    es0, es1 = analysis._joint_eigensystems(*(result.params[k] for k in ("b0", "b1", "b2")))
    assert es0.w_bar.shape == es1.w_bar.shape == (4, 4)
    assert not es0.rates.flags.writeable and not es1.w.flags.writeable


def test_reduction_rests_on_reversal_symmetry():
    # every coefficient matrix commutes with the reversal m -> -m exactly;
    # <Iz> is odd under it and both arrays of the transverse observable are even
    for q in range(8):
        for k, a in enumerate(coefficient_matrices(q)):
            np.testing.assert_array_equal(a[::-1, ::-1], a, err_msg=f"q={q} A{k}")
    iz = longitudinal_observable()
    np.testing.assert_array_equal(iz[::-1], -iz)
    for arr in transverse_observable():
        np.testing.assert_array_equal(arr[::-1], arr)


_LOG_B = st.floats(-2.0, 2.0)
_B_POINTS = st.one_of(
    st.tuples(_LOG_B, _LOG_B, _LOG_B).map(lambda e: tuple(10.0 ** np.array(e))),
    st.tuples(_LOG_B, _LOG_B).map(lambda e: (10.0 ** e[0], 10.0 ** e[1], 10.0 ** e[1])),
    st.tuples(_LOG_B, _LOG_B).map(lambda e: (10.0 ** e[0], 10.0 ** e[1], 0.0)),
    st.tuples(st.floats(-2.0, 0.0), st.floats(3.0, 5.0), _LOG_B).map(
        lambda e: (10.0 ** (e[0] + e[1]), 10.0 ** e[2], 10.0 ** e[0])),
)
_TIMES_LONG = np.logspace(np.log10(2e-3), np.log10(1.5), 24)
_TIMES_TRANS = np.arange(1, 266) / 5969.0


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_B_POINTS)
def test_reduced_fit_core_matches_the_full_blocks(b):
    # ordinary points and the corners b1 = b2, b2 = 0 and b0/b2 from 1e3 to 1e5:
    # the signals agree to 1e-12 of each curve's largest value
    x = np.array([TABLE2["a1z"], TABLE2["a2z"], TABLE2["a1x"] * TABLE2["a2x"], *b])
    want = joint_model_curves(np.insert(x, 3, 1.0), _TIMES_LONG, _TIMES_TRANS)
    got = _joint_signals(x, _TIMES_LONG, _TIMES_TRANS)
    for g, ref in zip(got, want):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
    _assert_b_columns_match_frechet(x, _TIMES_LONG[::3], _TIMES_TRANS[::20])


@pytest.mark.parametrize("b", [(83.0, 3.8, 0.18), (1e5, 0.01, 1.0), (1e5, 100.0, 1.0)])
def test_reduced_signals_match_a_30_digit_eigensolve(b):
    # the mode sum of the full block from mpmath's 30-digit symmetric eigensolve,
    # against the reduced fit signals and against joint_model_curves, whose full
    # blocks are solved in their reversal-parity sectors (at b0 = 1e5 a full-block
    # eigh was off by up to 2e-12 of the transverse curve's largest value)
    mpmath = pytest.importorskip("mpmath", reason="the 30-digit reference needs mpmath")
    mpmath.mp.dps = 30
    es0, es1 = analysis._joint_eigensystems(*b)
    curves = joint_model_curves(dict(a1z=1.0, a2z=0.0, a1x=1.0, a2x=1.0, b0=b[0], b1=b[1],
                                     b2=b[2]), _TIMES_LONG, _TIMES_TRANS)
    iz = longitudinal_observable()
    for es, (obs, dev), times, offset, curve in (
            (es0, (iz, -iz), _TIMES_LONG, iz @ iz, curves[0]),
            (es1, transverse_observable(), _TIMES_TRANS, 0.0, curves[1])):
        lam, vec = mpmath.eigsy(mpmath.matrix(evaluate_block(es.q, b).tolist()))
        n = obs.size
        amps = [mpmath.fsum(obs[k] * vec[k, i] for k in range(n))
                * mpmath.fsum(vec[k, i] * dev[k] for k in range(n)) for i in range(n)]
        want = np.array([float(mpmath.fsum(a * mpmath.exp(lam[i] * t) for i, a in enumerate(amps)))
                         for t in times])
        np.testing.assert_allclose(analysis._reduced_signal(es, times), want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)), err_msg=f"q={es.q}")
        np.testing.assert_allclose(curve, offset + want, rtol=0,
                                   atol=1e-14 * np.max(np.abs(offset + want)),
                                   err_msg=f"joint_model_curves q={es.q}")


@pytest.mark.parametrize("seed", range(10))
def test_joint_fit_reaches_the_difference_jacobian_optimum(seed):
    # the fit with the exact Jacobian ends no higher than plain least_squares
    # with forward differences, from the CLI default start on criterion-7 noise
    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=100 + seed)
    init = dict(a1z=0.03, a2z=1.0, a1x=0.03, a2x=1.0, b0=100.0, b1=5.0, b2=0.3)
    result = fit_redfield_joint(long_curve, trans_curve, init, restarts=1)

    def residuals(x):
        sz, sx = joint_model_curves(np.insert(x, 3, 1.0), long_curve.times, trans_curve.times)
        return np.concatenate([sz - long_curve.amplitudes, sx - trans_curve.amplitudes])

    x0 = np.array([0.03, 1.0, 0.03, 100.0, 5.0, 0.3])
    reference = least_squares(residuals, x0, jac="2-point",
                              bounds=([-np.inf] * 3 + [0.0] * 3, np.inf))
    assert result.residual_norm ** 2 / 2 <= reference.cost * (1 + 1e-9)


def test_joint_fit_requires_enough_samples():
    t = np.array([0.1, 0.2, 0.3])
    curve = DecayCurve(t, np.zeros(3))
    with pytest.raises(ValueError):
        fit_redfield_joint(curve, curve, TABLE2)


# -- Bloch baselines -----------------------------------------------------------

def test_bloch_fits_need_minimum_samples():
    t3 = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_bloch_longitudinal(DecayCurve(t3, np.ones(3)))
    with pytest.raises(ValueError):
        fit_bloch_transverse(DecayCurve(t3[:2], np.ones(2)))


def test_bloch_longitudinal_round_trip():
    t = np.linspace(5e-3, 1.5, 40)
    truth = (0.04920, 0.92450, 0.29302)
    y = truth[0] + truth[1] * (1 - 2 * np.exp(-t / truth[2]))
    fit = fit_bloch_longitudinal(DecayCurve(t, y))
    assert fit.converged
    assert fit.a0 == pytest.approx(truth[0], rel=1e-4)
    assert fit.a1 == pytest.approx(truth[1], rel=1e-4)
    assert fit.t1 == pytest.approx(truth[2], rel=1e-4)


@pytest.mark.filterwarnings("ignore::scipy.optimize.OptimizeWarning")
def test_bloch_longitudinal_step_flagged():
    t = np.linspace(0.0, 1.0, 12)
    y = np.where(t > 0, 1.0, -1.0)  # T1 -> 0 limit, not fittable
    fit = fit_bloch_longitudinal(DecayCurve(t, y))
    assert not fit.converged or fit.t1 < 10 * (t[1] - t[0])


def test_bloch_transverse_round_trip():
    t = np.linspace(1e-4, 0.05, 50)
    truth = (0.89450, 9.7532e-3)
    y = truth[0] * np.exp(-t / truth[1])
    fit = fit_bloch_transverse(DecayCurve(t, y))
    assert fit.converged
    assert fit.a1 == pytest.approx(truth[0], rel=1e-4)
    assert fit.t2 == pytest.approx(truth[1], rel=1e-4)


def test_bloch_transverse_constant_curve():
    t = np.linspace(0, 1, 10)
    fit = fit_bloch_transverse(DecayCurve(t, np.full(10, 0.7)))
    assert not fit.converged and np.isinf(fit.t2)


def test_bloch_t1_on_multiexponential_curve():
    # linear 24-delay grid out to 2 s; the effective T1 sits near the slowest
    # strong mode (the published comparison point)
    t = np.linspace(0.05, 2.0, 24)
    sz, _ = joint_model_curves(TABLE2, t, t)
    fit = fit_bloch_longitudinal(DecayCurve(t, sz))
    assert fit.converged
    assert fit.t1 == pytest.approx(0.310, rel=0.10)


def test_bloch_t2_on_multiexponential_curve():
    t = np.arange(1, 101) / 5969.0
    _, sx = joint_model_curves(TABLE2, t, t)
    fit = fit_bloch_transverse(DecayCurve(t, sx))
    assert fit.converged
    assert fit.t2 == pytest.approx(7.7e-3, rel=0.30)


# -- inverse Laplace -----------------------------------------------------------

def test_ilt_single_exponential_localizes():
    rng = np.random.default_rng(5)
    t = np.logspace(-3, 0.3, 120)
    y = np.exp(-t / 0.1) + 1e-3 * rng.standard_normal(t.size)
    dist = ilt(DecayCurve(t, y), (1e-3, 10.0, 64), alpha=None)
    assert np.all(dist.weights >= 0)
    idx = np.argmin(np.abs(dist.grid - 0.1))
    near = dist.weights[max(idx - 1, 0):idx + 2].sum()
    assert near >= 0.9 * dist.weights.sum()


def test_ilt_two_exponentials_separate():
    t = np.logspace(-4, 0.2, 200)
    y = np.exp(-t / 5e-3) + np.exp(-t / 0.3)
    dist = ilt(DecayCurve(t, y), (1e-4, 3.0, 96), alpha=1e-8)
    fast = dist.weights[:dist.grid.searchsorted(0.04)].sum()
    slow = dist.weights[dist.grid.searchsorted(0.04):].sum()
    assert fast == pytest.approx(1.0, rel=0.2)
    assert slow == pytest.approx(1.0, rel=0.2)


def test_ilt_exact_inverse_regime():
    grid = np.logspace(-2, 0, 12)
    weights = np.zeros(12)
    weights[[3, 8]] = (0.5, 1.5)
    t = np.logspace(-2.5, 0.5, 12)  # square, comfortably conditioned
    kernel = np.exp(-np.outer(t, 1 / grid))
    y = kernel @ weights
    dist = ilt(DecayCurve(t, y), (1e-2, 1.0, 12), alpha=0.0)
    assert dist.residual < 1e-8


def test_ilt_recovery_kernel():
    t = np.linspace(1e-3, 2.0, 80)
    y = 1 - 2 * np.exp(-t / 0.3)
    dist = ilt(DecayCurve(t, y), (1e-2, 3.0, 48), alpha=1e-10, kernel="recovery")
    idx = np.argmax(dist.weights)
    assert dist.grid[idx] == pytest.approx(0.3, rel=0.15)


def test_ilt_residual_non_increasing_under_refinement():
    # nested log grids (n and 2n-1 points share every coarse node) can only
    # enlarge the feasible set at fixed alpha
    t = np.logspace(-3, 0, 90)
    y = np.exp(-t / 0.02) + 0.4 * np.exp(-t / 0.4)
    coarse = ilt(DecayCurve(t, y), (1e-3, 3.0, 33), alpha=1e-6)
    fine = ilt(DecayCurve(t, y), (1e-3, 3.0, 65), alpha=1e-6)
    assert fine.residual <= coarse.residual + 1e-12


def test_ilt_rejects_bad_grid():
    curve = DecayCurve(np.linspace(0.01, 1, 10), np.ones(10))
    with pytest.raises(ValueError):
        ilt(curve, (0.0, 1.0, 16), alpha=0.0)
    with pytest.raises(ValueError):
        ilt(curve, (1e-3, 1.0, 16), alpha=-1.0)


# -- residual spectrum ---------------------------------------------------------

def test_residual_spectrum_sinusoid_peak():
    # 20 us dwell as in the acquisition description; 5884 Hz is well below Nyquist
    n, dt, f0 = 4096, 20e-6, 5884.0
    t = np.arange(n) * dt + 1e-5
    data = DecayCurve(t, 0.01 * np.sin(2 * np.pi * f0 * t))
    model = DecayCurve(t, np.zeros(n))
    spec = residual_spectrum(data, model)
    peak = spec.frequencies[np.argmax(spec.magnitudes)]
    bin_width = spec.frequencies[1] - spec.frequencies[0]
    assert abs(peak - f0) <= bin_width + 1e-9
    assert not spec.resampled


def test_residual_spectrum_zero_residuals():
    t = np.linspace(0, 1, 64)
    y = np.sin(t)
    spec = residual_spectrum(DecayCurve(t, y), DecayCurve(t, y))
    np.testing.assert_allclose(spec.magnitudes, 0.0, atol=1e-12)


def test_residual_spectrum_white_noise_calibration():
    # no bin should tower over the median for plain white noise
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        t = np.linspace(0, 1, 256)
        resid = rng.standard_normal(256)
        spec = residual_spectrum(DecayCurve(t, resid), DecayCurve(t, np.zeros(256)))
        mags = spec.magnitudes[1:]  # DC reflects the sample mean
        if np.max(mags) <= 5 * np.median(mags):
            hits += 1
    assert hits >= 95


def test_residual_spectrum_resamples_nonuniform():
    t = np.logspace(-3, 0, 64)
    spec = residual_spectrum(DecayCurve(t, np.ones(64)), DecayCurve(t, np.zeros(64)))
    assert spec.resampled


def test_residual_spectrum_needs_samples():
    t = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        residual_spectrum(DecayCurve(t, np.ones(5)), DecayCurve(t, np.ones(5)))
