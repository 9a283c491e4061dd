import re
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
    fit_bloch_longitudinal,
    fit_bloch_transverse,
    fit_redfield_joint,
    ilt,
    joint_model_curves,
    joint_models,
    residual_spectrum,
)
from quadrelax.curves import DecayCurve, read_curve, write_curve
from quadrelax.evolution import (build_longitudinal_model, build_transverse_model,
                                 longitudinal_observable, transverse_observable)
from quadrelax.redfield_core import (CoherenceBlock, coefficient_matrices, evaluate_block,
                                     numeric_eigensystem, sector_modes)
from quadrelax.phys_params import quadrupolar_constant_simplified

TABLE2 = dict(a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99, b0=83.0, b1=3.8, b2=0.18)
#: the fit command's default start
CLI_START = dict(a1z=0.03, a2z=1.0, a1x=0.03, a2x=1.0, b0=100.0, b1=5.0, b2=0.3)
C_EXP = quadrupolar_constant_simplified(5969.0)
DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def _joint_signals(x: np.ndarray, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """The longitudinal and transverse signals at x over FIT_NAMES from the fit's
    parity-reduced eigensystems: a1z (Iz.Iz + (1 + a2z) s(t)) with s the response
    to the deviation -Iz, and a1x (the product a1x*a2x) times the response to Ix;
    joint_model_curves with a2x = 1."""
    a1z, a2z, a1x = x[:3]
    (_, sz), (_, sx) = analysis._reduced_signals(
        *analysis._joint_eigensystems(*(float(b) for b in x[3:])), (times_long, times_trans))
    iz = longitudinal_observable()
    return a1z * (iz @ iz + (1 + a2z) * sz), a1x * sx


def _joint_jacobian(x: np.ndarray, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """analysis._joint_jacobian at x from the fit's own signals and B-derivatives."""
    lam, vec = analysis._joint_eigensystems(*(float(b) for b in x[3:]))
    times = (times_long, times_trans)
    (ez, sz), (ex, sx) = analysis._reduced_signals(lam, vec, times)
    dsz, dsx = analysis._b_derivatives(lam, vec, times, (ez, ex))
    return analysis._joint_jacobian(x, sz, dsz, sx, dsx)


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
    # the same modes in the same order, from the sector eigensolves of joint_models;
    # an amplitude zero by symmetry is round-off in the hand-built pair
    for got, ref in zip(joint_models(TABLE2), want):
        np.testing.assert_allclose(got.rates, ref.rates, rtol=1e-14, atol=0)
        np.testing.assert_allclose(got.amplitudes, ref.amplitudes, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(ref.amplitudes)))
        assert (got.scale, got.equilibrium_term) == (ref.scale, ref.equilibrium_term)


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


def _exp_divided_differences(lam: np.ndarray, times: np.ndarray) -> np.ndarray:
    """G[t, i, j] = (exp(lam_i t) - exp(lam_j t)) / (lam_i - lam_j), shape (T, n, n),
    with the limit t exp(lam_i t) for a tie, each entry in the stable form
    exp(max(lam_i, lam_j) t) expm1(-|lam_i - lam_j| t) / -|lam_i - lam_j|."""
    t = np.asarray(times, dtype=float)[:, None, None]
    gap = -np.abs(np.subtract.outer(lam, lam))
    tied = gap == 0
    ratio = np.where(tied, t, np.expm1(gap * t) / np.where(tied, 1.0, gap))
    return np.exp(np.maximum.outer(lam, lam) * t) * ratio


def _tensor_b_derivatives(q, lam, vec, times):
    """The Daleckii-Krein B-derivatives of the order-q reduced signal through the
    whole (T, 4, 4) divided-difference tensor: c^T V (G(t) o V^T A_k V) V^T d."""
    mats, obs, dev = (arr[q] for arr in analysis._parity_subspace())
    weights = np.outer(obs @ vec, vec.T @ dev) * (vec.T @ mats @ vec)
    g = _exp_divided_differences(lam, times)
    return g.reshape(len(times), -1) @ weights.reshape(3, -1).T


_TIE_CASES = [[-3.0, -1.0, -1.0, -0.2],          # an exact tie
               [-3.0, -1.0, -1.0 + 1e-12, -0.2],  # a tie within 1e-12
               [-4000.0, -1.0, -0.5, 0.0]]        # exp(4000 t) overflows


@pytest.mark.parametrize("lam", _TIE_CASES)
def test_exp_divided_differences_give_the_frechet_derivative(lam):
    # the tensor oracle itself: with M = Q diag(lam) Q^T,
    # L_exp(M t, E t) = Q (G(t) o Q^T E Q) Q^T for any symmetric E, the
    # eigenvectors Q being exact here
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


# and a gap just above _GAP_RTOL max|lam| = 3e-6, which partial fractions take
@pytest.mark.parametrize("lam", [*_TIE_CASES, [-3.0, -1.0, -1.0 + 3.1e-6, -0.2]])
def test_b_derivatives_give_the_frechet_derivative(lam):
    # with M = Q diag(lam) Q^T, the derivative of c^T exp(M t) d along A_k is
    # c^T L_exp(M t, A_k t) d for any symmetric A_k, the eigenvectors Q being exact
    # here.  Partial fractions leave round-off of about eps max|lam| / gap of a
    # column's scale, so the bound is relative to each column's largest value.
    lam = np.array(lam)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    times = np.array([0.0, 1e-3, 0.3, 1.5])
    e = np.exp(np.outer(times, lam))
    # the same eigensystem in both sectors, with each sector's A_k, c and d
    derivatives = analysis._b_derivatives(np.stack([lam, lam]), np.stack([q, q]),
                                          (times, times), (e, e))
    m = q @ np.diag(lam) @ q.T
    for sector, (got, mats, obs, dev) in enumerate(zip(derivatives,
                                                       *analysis._parity_subspace())):
        assert np.all(np.isfinite(got))
        want = np.array([[obs @ expm_frechet(m * t, a * t, compute_expm=False) @ dev
                          for a in mats] for t in times])
        for k in range(3):
            np.testing.assert_allclose(got[:, k], want[:, k], rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(want[:, k])),
                                       err_msg=f"q={sector} A{k}")


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
    # the search calls the residual once per evaluation; each call solves both 4x4
    # sectors in one stacked eigh, and the Jacobian at that point reuses it (at the
    # end, the best point is solved once more if it was not the last one tried)
    import scipy.optimize

    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=3)
    calls, points = [], []
    real_eigh, real_least_squares = np.linalg.eigh, scipy.optimize.least_squares

    def eigh(a):
        calls.append("e")
        assert a.shape == (2, 4, 4)
        return real_eigh(a)

    def least_squares(fun, x0, jac, **kwargs):
        def counted(label, func):
            return lambda b: calls.append(label) or points.append((label, *b)) or func(b)
        return real_least_squares(counted("r", fun), x0, jac=counted("j", jac), **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(scipy.optimize, "least_squares", least_squares)
    analysis._joint_eigensystems.cache_clear()
    result = fit_redfield_joint(long_curve, trans_curve, TABLE2, restarts=1)
    sequence = "".join(calls)
    assert re.fullmatch("(rej?)+e?", sequence), sequence
    assert sequence.count("r") == result.evaluations
    for before, after in zip(points, points[1:]):
        if after[0] == "j":
            assert before == ("r", *after[1:])
    lam, vec = analysis._joint_eigensystems(*(result.params[k] for k in ("b0", "b1", "b2")))
    assert lam.shape == (2, 4) and vec.shape == (2, 4, 4)
    assert not lam.flags.writeable and not vec.flags.writeable


def test_covariance_reuses_the_last_jacobian_at_the_optimum(monkeypatch):
    # a single search ends on an accepted step, whose Jacobian is the last one taken;
    # the sigmas at that optimum then add no eigensolve and no B-derivatives
    import scipy.optimize

    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=3)
    calls, jacobian_points = [], []
    real_eigh, real_derivatives = np.linalg.eigh, analysis._b_derivatives
    real_least_squares = scipy.optimize.least_squares

    def least_squares(fun, x0, jac, **kwargs):
        def counted(b):
            jacobian_points.append(tuple(float(v) for v in b))
            return jac(b)
        result = real_least_squares(fun, x0, jac=counted, **kwargs)
        calls.append("end of search")
        return result

    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append("eigh") or real_eigh(a))
    monkeypatch.setattr(analysis, "_b_derivatives",
                        lambda *a: calls.append("derivatives") or real_derivatives(*a))
    monkeypatch.setattr(scipy.optimize, "least_squares", least_squares)
    analysis._joint_eigensystems.cache_clear()
    result = fit_redfield_joint(long_curve, trans_curve, TABLE2, restarts=1)
    assert jacobian_points[-1] == tuple(result.params[k] for k in ("b0", "b1", "b2"))
    assert calls.count("derivatives") == len(jacobian_points)
    assert calls[-1] == "end of search"
    assert set(result.uncertainties) == set(FIT_NAMES)


def test_fit_and_report_solve_the_same_sector_matrices():
    # the fit's q = 0 odd and q = 1 even sectors are weighted as sector_modes weights
    # them, so their eigenvalues are bit for bit those that joint_models builds on
    rng = np.random.default_rng(23)
    for b0, b1, b2 in rng.uniform(0.01, 100.0, (300, 3)).tolist():
        for b in ((b0, b1, b2), (b0, b1, b1), (b0, b1, 0.0)):
            lam, _ = analysis._joint_eigensystems(*b)
            modes = sector_modes((0, 1), b)
            # sector_modes lists each order's even sector first; both fitted ones are 4x4
            for got, want in ((lam[0], modes[0][0][4:]), (lam[1], modes[1][0][:4])):
                assert got.tobytes() == want.tobytes(), b


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


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.one_of(_B_POINTS, _LOG_B.map(lambda e: (10.0 ** e, 0.0, 0.0))))
def test_b_derivatives_match_the_divided_difference_tensor(b):
    # the partial fractions against the whole divided-difference tensor, at the
    # corners of _B_POINTS and at B = (b0, 0, 0), where the q = 0 sector is all 0
    # and every pair of its eigenvalues is tied
    lam, vec = analysis._joint_eigensystems(*b)
    times = (_TIMES_LONG, _TIMES_TRANS)
    e = [e_q for e_q, _ in analysis._reduced_signals(lam, vec, times)]
    for q, got in enumerate(analysis._b_derivatives(lam, vec, times, e)):
        want = _tensor_b_derivatives(q, lam[q], vec[q], times[q])
        for k in range(3):
            np.testing.assert_allclose(got[:, k], want[:, k], rtol=0,
                                       atol=1e-12 * np.max(np.abs(want[:, k])),
                                       err_msg=f"q={q} B{k}")


@pytest.mark.parametrize("b", [(83.0, 3.8, 0.18), (1e5, 0.01, 1.0), (1e5, 100.0, 1.0)])
def test_reduced_signals_match_a_30_digit_eigensolve(b):
    # the mode sum of the full block from mpmath's 30-digit symmetric eigensolve,
    # against the reduced fit signals and against joint_model_curves, whose full
    # blocks are solved in their reversal-parity sectors (at b0 = 1e5 a full-block
    # eigh was off by up to 2e-12 of the transverse curve's largest value)
    mpmath = pytest.importorskip("mpmath", reason="the 30-digit reference needs mpmath")
    mpmath.mp.dps = 30
    reduced = analysis._reduced_signals(*analysis._joint_eigensystems(*b),
                                        (_TIMES_LONG, _TIMES_TRANS))
    curves = joint_model_curves(dict(a1z=1.0, a2z=0.0, a1x=1.0, a2x=1.0, b0=b[0], b1=b[1],
                                     b2=b[2]), _TIMES_LONG, _TIMES_TRANS)
    iz = longitudinal_observable()
    for q, (obs, dev), times, offset, curve in (
            (0, (iz, -iz), _TIMES_LONG, iz @ iz, curves[0]),
            (1, transverse_observable(), _TIMES_TRANS, 0.0, curves[1])):
        lam, vec = mpmath.eigsy(mpmath.matrix(evaluate_block(q, b).tolist()))
        n = obs.size
        amps = [mpmath.fsum(obs[k] * vec[k, i] for k in range(n))
                * mpmath.fsum(vec[k, i] * dev[k] for k in range(n)) for i in range(n)]
        want = np.array([float(mpmath.fsum(a * mpmath.exp(lam[i] * t) for i, a in enumerate(amps)))
                         for t in times])
        np.testing.assert_allclose(reduced[q][1], want, rtol=0,
                                   atol=1e-13 * np.max(np.abs(want)), err_msg=f"q={q}")
        np.testing.assert_allclose(curve, offset + want, rtol=0,
                                   atol=1e-14 * np.max(np.abs(offset + want)),
                                   err_msg=f"joint_model_curves q={q}")


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


def _weighted_residuals(long_curve, trans_curve):
    """The weighted residuals over FIT_NAMES, from the full-block model curves."""
    def residuals(x):
        sz, sx = joint_model_curves(np.insert(x, 3, 1.0), long_curve.times, trans_curve.times)
        return np.concatenate([(sz - long_curve.amplitudes) / long_curve.sigmas,
                               (sx - trans_curve.amplitudes) / trans_curve.sigmas])
    return residuals


def test_weighted_joint_fit_reaches_the_difference_jacobian_optimum():
    # per-sample sigmas spread over a decade: the separable fit of the weighted
    # residuals ends no higher than plain least_squares over all six parameters
    rng = np.random.default_rng(21)
    curves = []
    for curve in make_joint_curves():
        sigmas = 0.01 * 10 ** rng.uniform(-0.5, 0.5, len(curve))
        curves.append(DecayCurve(curve.times,
                                 curve.amplitudes + sigmas * rng.standard_normal(len(curve)),
                                 sigmas))
    result = fit_redfield_joint(*curves, CLI_START, restarts=1)
    residuals = _weighted_residuals(*curves)
    x0 = np.array([0.03, 1.0, 0.03, 100.0, 5.0, 0.3])
    reference = least_squares(residuals, x0, jac="2-point",
                              bounds=([-np.inf] * 3 + [0.0] * 3, np.inf))
    assert result.residual_norm ** 2 / 2 <= reference.cost * (1 + 1e-9)
    # the reported parameters give the reported residual
    x = np.array([result.params[name] for name in FIT_NAMES])
    assert np.linalg.norm(residuals(x)) == pytest.approx(result.residual_norm, rel=1e-12)


def test_constant_sigma_file_gives_the_unweighted_fit(tmp_path):
    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=5)
    plain = fit_redfield_joint(long_curve, trans_curve, CLI_START, restarts=1)
    paths = (tmp_path / "long.csv", tmp_path / "trans.csv")
    for path, curve in zip(paths, (long_curve, trans_curve)):
        write_curve(path, DecayCurve(curve.times, curve.amplitudes, np.full(len(curve), 0.01)))
    weighted = fit_redfield_joint(*(read_curve(path) for path in paths), CLI_START, restarts=1)
    assert weighted.residual_norm == pytest.approx(plain.residual_norm / 0.01, rel=1e-9)
    for name in FIT_NAMES:
        assert weighted.params[name] == pytest.approx(plain.params[name], rel=1e-9), name
        assert (weighted.uncertainties[name]
                == pytest.approx(plain.uncertainties[name], rel=1e-9)), name


def test_joint_fit_ends_at_a_stationary_point_of_the_six_parameter_cost():
    # B is searched alone, but the returned point is stationary in all six parameters
    long_curve = read_curve(DATA_DIR / "synthetic_longitudinal.csv")
    trans_curve = read_curve(DATA_DIR / "synthetic_transverse.csv")
    result = fit_redfield_joint(long_curve, trans_curve, CLI_START)
    x = np.array([result.params[name] for name in FIT_NAMES])
    sz, sx = _joint_signals(x, long_curve.times, trans_curve.times)
    r = np.concatenate([sz - long_curve.amplitudes, sx - trans_curve.amplitudes])
    jac = np.vstack(_joint_jacobian(x, long_curve.times, trans_curve.times))
    assert np.linalg.norm(r) == pytest.approx(result.residual_norm, rel=1e-12)
    assert np.max(np.abs(jac.T @ r)) <= 1e-6 * np.linalg.norm(jac, 2) * np.linalg.norm(r)


def test_far_starts_reach_the_16_restart_optimum():
    # a regression guard on robustness, not a claim: 5 noisy criterion-7 pairs and
    # 6 single starts per pair, each B_k off by a factor 10^U(-1.5, 1.5); the count
    # of starts that reach the default 16-restart optimum is pinned (21 when all six
    # parameters were searched)
    rng = np.random.default_rng(12)
    truth = np.array([TABLE2["b0"], TABLE2["b1"], TABLE2["b2"]])
    reached = 0
    for pair in range(5):
        long_curve, trans_curve = make_joint_curves(noise=0.01, seed=200 + pair)
        best = fit_redfield_joint(long_curve, trans_curve, CLI_START).residual_norm
        for _ in range(6):
            b0, b1, b2 = truth * 10 ** rng.uniform(-1.5, 1.5, 3)
            result = fit_redfield_joint(long_curve, trans_curve,
                                        dict(CLI_START, b0=b0, b1=b1, b2=b2), restarts=1)
            reached += result.residual_norm ** 2 <= best ** 2 * (1 + 1e-6)
    assert reached == 23


def test_all_zero_longitudinal_curve_leaves_a2z_undetermined():
    # a1z = 0 fits the zero curve for every a2z: a2z is nan and has no sigma, and
    # the a1z column of the Jacobian, Iz.Iz on the longitudinal rows, is orthogonal
    # to the others, so sigma(a1z) = s / (Iz.Iz sqrt(n_z)) with s^2 = SSR/(n - 5)
    long_curve, trans_curve = make_joint_curves(noise=0.01, seed=4)
    zero = DecayCurve(long_curve.times, np.zeros(len(long_curve)))
    result = fit_redfield_joint(zero, trans_curve, CLI_START, restarts=2)
    assert result.params["a1z"] == 0 and np.isnan(result.params["a2z"])
    assert set(result.uncertainties) == set(FIT_NAMES) - {"a2z"}
    assert all(np.isfinite(s) and s > 0 for s in result.uncertainties.values())
    iz = longitudinal_observable()
    s = result.residual_norm / np.sqrt(len(zero) + len(trans_curve) - 5)
    assert result.uncertainties["a1z"] == pytest.approx(s / (iz @ iz) / np.sqrt(len(zero)),
                                                        rel=1e-12)
    assert result.params["b0"] == pytest.approx(TABLE2["b0"], rel=0.2)


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
