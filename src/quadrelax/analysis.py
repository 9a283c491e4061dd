"""Decay-curve analysis: the joint least-squares fit, Bloch baselines,
regularized inverse-Laplace time distributions, and residual diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .curves import DecayCurve
from .evolution import (MagnetizationModel, build_longitudinal_model, build_transverse_model,
                        longitudinal_observable, transverse_observable)
from .redfield_core import (BlockEigensystem, CoherenceBlock, coefficient_matrices,
                            evaluate_block, numeric_eigensystem)

PARAM_NAMES = ("a1z", "a2z", "a1x", "a2x", "b0", "b1", "b2")
#: the fitted parameters: a2x is held at 1, so a1x carries the product a1x*a2x
FIT_NAMES = ("a1z", "a2z", "a1x", "b0", "b1", "b2")


# ---------------------------------------------------------------------------
# joint Redfield fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    params: dict
    uncertainties: dict
    residual_norm: float
    evaluations: int
    converged: bool

    def scales(self) -> tuple[float, float, float]:
        """The fitted rate scales (b0, b1, b2) in Hz."""
        return self.params["b0"], self.params["b1"], self.params["b2"]


def _param_vector(params) -> np.ndarray:
    if isinstance(params, Mapping):
        return np.array([params[name] for name in PARAM_NAMES], dtype=float)
    vec = np.asarray(params, dtype=float)
    if vec.shape != (len(PARAM_NAMES),):
        raise ValueError(f"expected {len(PARAM_NAMES)} parameters {PARAM_NAMES}, got shape {vec.shape}")
    return vec


@lru_cache(maxsize=None)
def _parity_subspace(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fitted order-q signal c . exp(M t) d reduced to the parity subspace of c and d.

    Every coefficient matrix commutes with the reversal n -> dim-1-n (m -> -m),
    <Iz> is odd under it (q = 0, c = Iz, d = -Iz) and Ix's q = 1 weights and
    elements are even (c, d = transverse_observable()).  So exp(M t) keeps their
    subspace, spanned by the normalized columns e_n + s e_{dim-1-n}, n < dim/2, of
    P (for q = 1, dim 7 and s = +1, the last one is e_3), and the signal is
    (P^T c) . exp(P^T M P t) (P^T d) with 4 x 4 matrices for both orders.  Returns
    the stacked P^T A_k P, shape (3, 4, 4), P^T c and P^T d, all read-only.
    """
    if q == 0:
        obs = longitudinal_observable()
        dev, sign = -obs, -1.0
    else:
        obs, dev = transverse_observable()
        sign = 1.0
    dim = obs.size
    p = (np.eye(dim) + sign * np.eye(dim)[::-1])[:, :(dim + 1) // 2]
    p = p / np.linalg.norm(p, axis=0)
    mats = np.stack([p.T @ a @ p for a in coefficient_matrices(q)])
    reduced = ((mats + mats.transpose(0, 2, 1)) / 2, obs @ p, dev @ p)
    for arr in reduced:
        arr.flags.writeable = False
    return reduced


@lru_cache(maxsize=1)
def _joint_eigensystems(b0: float, b1: float,
                        b2: float) -> tuple[BlockEigensystem, BlockEigensystem]:
    """The q = 0 and q = 1 eigensystems of the parity-reduced 4 x 4 blocks at the rate
    scales B (see _parity_subspace), with read-only arrays.

    One entry: the fit's residual and Jacobian at a trial point share one
    eigensolve per order.
    """
    systems = []
    for q in (0, 1):
        a0, a1, a2 = _parity_subspace(q)[0]
        es = numeric_eigensystem(CoherenceBlock(q, b0 * a0 + b1 * a1 + b2 * a2))
        for arr in (es.eigenvalues, es.w, es.w_bar, es.rates):
            arr.flags.writeable = False
        systems.append(es)
    return tuple(systems)


def joint_models(params) -> tuple[MagnetizationModel, MagnetizationModel]:
    """Longitudinal and transverse magnetization models at a 7-parameter set,
    with every mode of the full q = 0 and q = 1 blocks.

    Rates come out in Hz directly because the blocks are evaluated at the
    rate scales B_k = C J_k (the C = 1 eigensystem convention).
    """
    a1z, a2z, a1x, a2x, b0, b1, b2 = _param_vector(params)
    es0, es1 = (numeric_eigensystem(CoherenceBlock(q, evaluate_block(q, (b0, b1, b2))))
                for q in (0, 1))
    return build_longitudinal_model(es0, a1z, a2z), build_transverse_model(es1, a1x, a2x)


def joint_model_curves(params, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """Model longitudinal and transverse signals at the given parameter set."""
    long_model, trans_model = joint_models(params)
    return long_model.evaluate(times_long), trans_model.evaluate(times_trans)


def _exp_divided_differences(lam: np.ndarray, times: np.ndarray) -> np.ndarray:
    """G[t, i, j] = (exp(lam_i t) - exp(lam_j t)) / (lam_i - lam_j), shape (T, n, n).

    A tied pair gets the limit t exp(lam_i t).  Each entry is evaluated as
    exp(max(lam_i, lam_j) t) expm1(-|lam_i - lam_j| t) / -|lam_i - lam_j|,
    which neither cancels for close eigenvalues nor overflows for distant ones.
    """
    t = np.asarray(times, dtype=float)[:, None, None]
    gap = -np.abs(np.subtract.outer(lam, lam))
    tied = gap == 0
    ratio = np.where(tied, t, np.expm1(gap * t) / np.where(tied, 1.0, gap))
    return np.exp(np.maximum.outer(lam, lam) * t) * ratio


def _reduced_signal(es: BlockEigensystem, times: np.ndarray) -> np.ndarray:
    """c . exp(M t) d over the times, shape (T,), from a parity-reduced eigensystem
    of _joint_eigensystems."""
    _, obs, dev = _parity_subspace(es.q)
    return np.exp(np.outer(times, -es.rates)) @ ((obs @ es.w_bar) * (es.w @ dev))


def _signal_and_b_derivatives(es: BlockEigensystem,
                              times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_reduced_signal and its derivatives by B, shape (T, 3).

    With M = sum_k B_k A_k = V diag(lam) V^T, the Daleckii-Krein form of the
    Frechet derivative of exp gives d/dB_k = c^T V (G(t) o V^T A_k V) V^T d.
    """
    mats, obs, dev = _parity_subspace(es.q)
    lam = -es.rates
    weights = np.outer(obs @ es.w_bar, es.w @ dev) * (es.w @ mats @ es.w_bar)
    g = _exp_divided_differences(lam, times)
    return _reduced_signal(es, times), g.reshape(len(times), -1) @ weights.reshape(3, -1).T


def _joint_signals(x: np.ndarray, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """The longitudinal and transverse signals at x over FIT_NAMES: a1z (Iz.Iz +
    (1 + a2z) s(t)) with s the response to the deviation -Iz, and a1x (the product
    a1x*a2x) times the response to Ix; joint_model_curves with a2x = 1."""
    a1z, a2z, a1x = x[:3]
    es0, es1 = _joint_eigensystems(*(float(b) for b in x[3:]))
    iz = longitudinal_observable()
    return (a1z * (iz @ iz + (1 + a2z) * _reduced_signal(es0, times_long)),
            a1x * _reduced_signal(es1, times_trans))


def _joint_jacobian(x: np.ndarray, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the signals of _joint_signals by the fitted FIT_NAMES.

    The signals are linear in a1z and a1x and affine in a2z, so every column but
    the B ones is closed-form.
    """
    a1z, a2z, a1x = x[:3]
    es0, es1 = _joint_eigensystems(*(float(b) for b in x[3:]))
    iz = longitudinal_observable()
    sz, dsz = _signal_and_b_derivatives(es0, times_long)
    sx, dsx = _signal_and_b_derivatives(es1, times_trans)
    zz, zx = np.zeros(sz.size), np.zeros(sx.size)
    jz = np.column_stack([iz @ iz + (1 + a2z) * sz, a1z * sz, zz, a1z * (1 + a2z) * dsz])
    jx = np.column_stack([zx, zx, sx, a1x * dsx])
    return jz, jx


def fit_redfield_joint(long_curve: DecayCurve, trans_curve: DecayCurve, init,
                       *, restarts: int = 16, seed: int = 0) -> FitResult:
    """Joint least-squares fit of both magnetization curves.

    The transverse signal depends on a1x and a2x only through their product,
    so six parameters are fitted: a1z, a2z, a1x*a2x (returned as a1x, with
    a2x = 1) and the rate scales b0, b1, b2 >= 0.  The residual and its exact
    Jacobian work in the 4-dimensional parity subspaces of the observables (see
    _parity_subspace) and share one eigensolve of each reduced block per trial point.
    The search restarts from ``restarts`` deterministic perturbations of the
    7-parameter initial guess (best residual wins).  Sigmas come from the
    Jacobian at the best restart, cov = SSR/(n - 6) (J^T J)^-1, as in
    ``curve_fit``.
    """
    from scipy.optimize import least_squares

    for curve, label in ((long_curve, "longitudinal"), (trans_curve, "transverse")):
        if len(curve) < 4:
            raise ValueError(f"{label} curve needs at least 4 samples for fitting")
    wz, wx = (1.0 / curve.sigmas if curve.sigmas is not None else np.ones(len(curve))
              for curve in (long_curve, trans_curve))

    def residuals(x: np.ndarray) -> np.ndarray:
        sz, sx = _joint_signals(x, long_curve.times, trans_curve.times)
        return np.concatenate([(sz - long_curve.amplitudes) * wz,
                               (sx - trans_curve.amplitudes) * wx])

    def jacobian(x: np.ndarray) -> np.ndarray:
        jz, jx = _joint_jacobian(x, long_curve.times, trans_curve.times)
        return np.vstack([jz * wz[:, None], jx * wx[:, None]])

    x_init = np.array(_param_vector(init))
    x_init[4:] = np.abs(x_init[4:])
    bounds = ([-np.inf] * 3 + [0.0] * 3, np.inf)
    rng = np.random.default_rng(seed)
    best = None
    evaluations = 0
    for attempt in range(max(1, restarts)):
        start = x_init if attempt == 0 else x_init * (1 + 0.3 * rng.standard_normal(x_init.size))
        x0 = np.concatenate([start[:2], [start[2] * start[3]], np.abs(start[4:])])
        result = least_squares(residuals, x0, jac=jacobian, bounds=bounds)
        evaluations += result.nfev
        if best is None or result.cost < best.cost:
            best = result
    ssr = float(best.fun @ best.fun)
    jac_pinv = np.linalg.pinv(best.jac)
    cov = ssr / (best.fun.size - best.x.size) * (jac_pinv @ jac_pinv.T)
    params = dict(zip(PARAM_NAMES, (float(v) for v in np.insert(best.x, 3, 1.0))))
    uncertainties = dict(zip(FIT_NAMES, (float(s) for s in np.sqrt(np.diag(cov)))))
    return FitResult(params=params, uncertainties=uncertainties,
                     residual_norm=float(np.sqrt(ssr)),
                     evaluations=evaluations, converged=best.status > 0)


def nelder_mead_minimize(objective, x0):
    """Simplex minimization: ``scipy.optimize.minimize`` with method Nelder-Mead.

    The joint fit does not use it.  It stays because ``bench/tracing.py``
    traces this name and ``bench/test_bench_stats.py`` requires every traced
    name to exist; it goes when the benchmark drops it.
    """
    from scipy.optimize import minimize

    return minimize(objective, x0, method="Nelder-Mead")


# ---------------------------------------------------------------------------
# Bloch mono-exponential baselines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlochLongitudinalFit:
    a0: float
    a1: float
    t1: float
    uncertainties: tuple[float, float, float]
    converged: bool


@dataclass(frozen=True)
class BlochTransverseFit:
    a1: float
    t2: float
    uncertainties: tuple[float, float]
    converged: bool


def fit_bloch_longitudinal(curve: DecayCurve) -> BlochLongitudinalFit:
    """Least-squares fit of the inversion-recovery model a0 + a1 (1 - 2 exp(-t/T1))."""
    from scipy.optimize import curve_fit

    if len(curve) < 4:
        raise ValueError("longitudinal Bloch fit needs at least 4 samples")
    t, y = curve.times, curve.amplitudes
    a1_guess = (y[-1] - y[0]) / 2 or 1.0
    a0_guess = (y[-1] + y[0]) / 2
    mid = np.argmax(y >= a0_guess) if y[-1] > y[0] else np.argmax(y <= a0_guess)
    t1_guess = t[mid] / np.log(2) if t[mid] > 0 else (t[-1] - t[0]) / 4
    try:
        popt, pcov = curve_fit(
            lambda tt, a0, a1, t1: a0 + a1 * (1 - 2 * np.exp(-tt / t1)),
            t, y, p0=(a0_guess, a1_guess, t1_guess),
            sigma=curve.sigmas, maxfev=20000)
    except (RuntimeError, ValueError):
        return BlochLongitudinalFit(np.nan, np.nan, np.nan, (np.nan,) * 3, converged=False)
    errs = tuple(np.sqrt(np.clip(np.diag(pcov), 0, None)))
    ok = bool(np.isfinite(popt).all() and popt[2] > 0)
    return BlochLongitudinalFit(float(popt[0]), float(popt[1]), float(popt[2]), errs, ok)


def fit_bloch_transverse(curve: DecayCurve) -> BlochTransverseFit:
    """Least-squares fit of the echo-decay model a1 exp(-t/T2)."""
    from scipy.optimize import curve_fit

    if len(curve) < 3:
        raise ValueError("transverse Bloch fit needs at least 3 samples")
    t, y = curve.times, curve.amplitudes
    if np.ptp(y) < 1e-12 * max(1.0, np.max(np.abs(y))):
        return BlochTransverseFit(float(np.mean(y)), np.inf, (np.nan, np.nan), converged=False)
    positive = y > 0
    if positive.sum() >= 2:
        slope = np.polyfit(t[positive], np.log(y[positive]), 1)[0]
        t2_guess = -1 / slope if slope < 0 else (t[-1] - t[0])
    else:
        t2_guess = (t[-1] - t[0]) / 2
    try:
        popt, pcov = curve_fit(lambda tt, a1, t2: a1 * np.exp(-tt / t2), t, y,
                               p0=(y[0], t2_guess), sigma=curve.sigmas, maxfev=20000)
    except (RuntimeError, ValueError):
        return BlochTransverseFit(np.nan, np.nan, (np.nan, np.nan), converged=False)
    errs = tuple(np.sqrt(np.clip(np.diag(pcov), 0, None)))
    ok = bool(np.isfinite(popt).all() and popt[0] > 0 and popt[1] > 0)
    return BlochTransverseFit(float(popt[0]), float(popt[1]), errs, ok)


# ---------------------------------------------------------------------------
# inverse Laplace transform (regularized NNLS)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeDistribution:
    grid: np.ndarray
    weights: np.ndarray
    alpha: float
    residual: float
    condition: float


def _ilt_kernel(times: np.ndarray, grid: np.ndarray, kernel: str) -> np.ndarray:
    ratio = np.outer(times, 1.0 / grid)
    if kernel == "decay":
        return np.exp(-ratio)
    if kernel == "recovery":
        return 1 - 2 * np.exp(-ratio)
    raise ValueError(f"unknown kernel {kernel!r} (use 'decay' or 'recovery')")


def _noise_estimate(curve: DecayCurve) -> float:
    if curve.sigmas is not None:
        return float(np.mean(curve.sigmas))
    if len(curve) < 4:
        return 1e-3 * max(1.0, float(np.max(np.abs(curve.amplitudes))))
    second = np.diff(curve.amplitudes, n=2)
    return float(np.median(np.abs(second)) / (0.6745 * np.sqrt(6)) + 1e-15)


def ilt(curve: DecayCurve, grid_spec: tuple[float, float, int], alpha: float | None,
        kernel: str = "decay") -> TimeDistribution:
    """Non-negative Tikhonov-regularized relaxation-time distribution.

    Solves min_w ||K w - y||^2 + alpha ||w||^2 with w >= 0 on a log-spaced
    grid via the active-set NNLS of the augmented system.  alpha=None picks
    the largest value on a log sweep whose misfit stays within the estimated
    noise floor (discrepancy principle).
    """
    from scipy.optimize import nnls

    t_min, t_max, points = grid_spec
    if not (t_min > 0 and t_max > t_min and points >= 2):
        raise ValueError(f"bad grid spec {grid_spec}")
    if alpha is not None and alpha < 0:
        raise ValueError("alpha must be non-negative")
    grid = np.logspace(np.log10(t_min), np.log10(t_max), int(points))
    kmat = _ilt_kernel(curve.times, grid, kernel)
    y = curve.amplitudes
    condition = float(np.linalg.cond(kmat))

    def solve(a: float) -> tuple[np.ndarray, float]:
        if a > 0:
            kaug = np.vstack([kmat, np.sqrt(a) * np.eye(grid.size)])
            yaug = np.concatenate([y, np.zeros(grid.size)])
        else:
            kaug, yaug = kmat, y
        w, _ = nnls(kaug, yaug)
        return w, float(np.linalg.norm(kmat @ w - y))

    if alpha is None:
        target = _noise_estimate(curve) * np.sqrt(len(curve))
        alpha = 0.0
        weights, residual = solve(0.0)
        for a in np.logspace(2, -12, 29):
            w, r = solve(a)
            if r <= target:
                alpha, weights, residual = float(a), w, r
                break
    else:
        weights, residual = solve(alpha)
    return TimeDistribution(grid=grid, weights=weights, alpha=float(alpha),
                            residual=residual, condition=condition)


# ---------------------------------------------------------------------------
# residual Fourier diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeSpectrum:
    frequencies: np.ndarray
    magnitudes: np.ndarray
    resampled: bool


def residual_spectrum(curve: DecayCurve, model_curve: DecayCurve) -> AmplitudeSpectrum:
    """Discrete Fourier magnitude spectrum of (data - model).

    Requires matching sample times; a non-uniform grid is linearly resampled
    onto a uniform one with the same span and count (flagged in the result).
    """
    if len(curve) < 8:
        raise ValueError("residual spectrum needs at least 8 samples")
    if len(curve) != len(model_curve) or not np.allclose(curve.times, model_curve.times):
        raise ValueError("data and model curves must share their time grid")
    t = curve.times
    residual = curve.amplitudes - model_curve.amplitudes
    steps = np.diff(t)
    resampled = bool(np.max(np.abs(steps - steps[0])) > 1e-9 * steps[0])
    if resampled:
        uniform = np.linspace(t[0], t[-1], t.size)
        residual = np.interp(uniform, t, residual)
        t = uniform
    dt = t[1] - t[0]
    mags = np.abs(np.fft.rfft(residual))
    freqs = np.fft.rfftfreq(t.size, d=dt)
    return AmplitudeSpectrum(frequencies=freqs, magnitudes=mags, resampled=resampled)
