"""Decay-curve analysis: the joint seven-parameter fit, Bloch baselines,
regularized inverse-Laplace time distributions, and residual diagnostics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.optimize import curve_fit, nnls

from .curves import DecayCurve
from .evolution import MagnetizationModel, build_longitudinal_model, build_transverse_model
from .phys_params import QuadrupolarConstant, densities_from_fit, FitScaleParams
from .redfield_core import CoherenceBlock, evaluate_block, numeric_eigensystem

PARAM_NAMES = ("a1z", "a2z", "a1x", "a2x", "b0", "b1", "b2")


# ---------------------------------------------------------------------------
# Nelder-Mead simplex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    iterations: int
    evaluations: int
    converged: bool
    reason: str


def nelder_mead_minimize(objective: Callable[[np.ndarray], float], x0,
                         *, max_iters: int = 5000, x_tol: float = 1e-10,
                         f_tol: float = 1e-12, initial_step=None) -> NelderMeadResult:
    """Derivative-free simplex minimization.

    Standard coefficients (reflection 1, expansion 2, contraction 0.5,
    shrink 0.5); terminates when the simplex diameter drops below x_tol, the
    value spread below f_tol, or at max_iters.  A non-finite objective value
    aborts the search and reports the best point seen so far.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if initial_step is None:
        step = np.where(np.abs(x0) > 1e-12, 0.05 * np.abs(x0), 2.5e-4)
    else:
        step = np.broadcast_to(np.asarray(initial_step, dtype=float), (n,)).copy()

    evaluations = 0

    def f(x):
        nonlocal evaluations
        evaluations += 1
        return float(objective(x))

    simplex = [x0] + [x0 + step[i] * np.eye(n)[i] for i in range(n)]
    values = []
    for point in simplex:
        v = f(point)
        if not np.isfinite(v):
            finite = [(vv, pp) for vv, pp in zip(values, simplex) if np.isfinite(vv)]
            best = min(finite, default=(np.inf, x0), key=lambda t: t[0])
            return NelderMeadResult(x=best[1], fun=best[0], iterations=0,
                                    evaluations=evaluations, converged=False,
                                    reason="non-finite objective")
        values.append(v)
    simplex = np.array(simplex)
    values = np.array(values)

    for iteration in range(1, max_iters + 1):
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        diameter = np.max(np.abs(simplex[1:] - simplex[0]))
        spread = values[-1] - values[0]
        if diameter < x_tol:
            return NelderMeadResult(simplex[0], values[0], iteration, evaluations, True, "x_tol")
        if spread < f_tol:
            return NelderMeadResult(simplex[0], values[0], iteration, evaluations, True, "f_tol")

        centroid = simplex[:-1].mean(axis=0)
        candidates = []

        def try_point(x):
            v = f(x)
            candidates.append((v, x))
            return v

        reflected = centroid + (centroid - simplex[-1])
        vr = try_point(reflected)
        if not np.isfinite(vr):
            return NelderMeadResult(simplex[0], values[0], iteration, evaluations,
                                    False, "non-finite objective")
        if vr < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            ve = try_point(expanded)
            if not np.isfinite(ve):
                return NelderMeadResult(simplex[0], values[0], iteration, evaluations,
                                        False, "non-finite objective")
            simplex[-1], values[-1] = (expanded, ve) if ve < vr else (reflected, vr)
        elif vr < values[-2]:
            simplex[-1], values[-1] = reflected, vr
        else:
            inside = vr >= values[-1]
            base = simplex[-1] if inside else reflected
            contracted = centroid + 0.5 * (base - centroid)
            vc = try_point(contracted)
            if not np.isfinite(vc):
                return NelderMeadResult(simplex[0], values[0], iteration, evaluations,
                                        False, "non-finite objective")
            if vc < min(values[-1], vr):
                simplex[-1], values[-1] = contracted, vc
            else:
                # shrink toward the best vertex
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])
                    if not np.isfinite(values[i]):
                        return NelderMeadResult(simplex[0], values[0], iteration,
                                                evaluations, False, "non-finite objective")
    order = np.argsort(values, kind="stable")
    return NelderMeadResult(simplex[order][0], values[order][0], max_iters,
                            evaluations, False, "max_iters")


# ---------------------------------------------------------------------------
# joint Redfield fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    params: dict
    uncertainties: dict
    residual_norm: float
    iterations: int
    converged: bool

    def scales(self) -> FitScaleParams:
        return FitScaleParams(self.params["b0"], self.params["b1"], self.params["b2"])


def _param_vector(params) -> np.ndarray:
    if isinstance(params, Mapping):
        return np.array([params[name] for name in PARAM_NAMES], dtype=float)
    vec = np.asarray(params, dtype=float)
    if vec.shape != (len(PARAM_NAMES),):
        raise ValueError(f"expected {len(PARAM_NAMES)} parameters {PARAM_NAMES}, got shape {vec.shape}")
    return vec


def joint_models(params, equilibrium_deviation: np.ndarray | None = None
                 ) -> tuple[MagnetizationModel, MagnetizationModel]:
    """Longitudinal and transverse magnetization models at a 7-parameter set.

    Rates come out in Hz directly because the blocks are evaluated at the
    rate scales B_k = C J_k (the C = 1 eigensystem convention).
    """
    a1z, a2z, a1x, a2x, b0, b1, b2 = _param_vector(params)
    weights = (b0, b1, b2)
    es0 = numeric_eigensystem(CoherenceBlock(0, evaluate_block(0, weights)))
    es1 = numeric_eigensystem(CoherenceBlock(1, evaluate_block(1, weights)))
    return (build_longitudinal_model(es0, a1z, a2z, equilibrium_deviation),
            build_transverse_model(es1, a1x, a2x))


def joint_model_curves(params, times_long, times_trans,
                       equilibrium_deviation: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Model longitudinal and transverse signals at the given parameter set."""
    long_model, trans_model = joint_models(params, equilibrium_deviation)
    return long_model.evaluate(times_long), trans_model.evaluate(times_trans)


def _joint_objective(long_curve: DecayCurve, trans_curve: DecayCurve,
                     equilibrium_deviation) -> Callable[[np.ndarray], float]:
    wz = 1.0 / long_curve.sigmas if long_curve.sigmas is not None else np.ones(len(long_curve))
    wx = 1.0 / trans_curve.sigmas if trans_curve.sigmas is not None else np.ones(len(trans_curve))

    def objective(x: np.ndarray) -> float:
        if np.any(x[4:] < 0):
            return 1e9 * (1.0 + float(np.sum(np.abs(x[4:][x[4:] < 0]))))
        sz, sx = joint_model_curves(x, long_curve.times, trans_curve.times,
                                    equilibrium_deviation)
        rz = (sz - long_curve.amplitudes) * wz
        rx = (sx - trans_curve.amplitudes) * wx
        return float(rz @ rz + rx @ rx)

    return objective


def _hessian_uncertainties(objective, x: np.ndarray, ssr: float, n_obs: int) -> np.ndarray:
    """Parameter sigmas from a finite-difference Hessian of the squared-residual
    objective (quadratic expansion around the optimum; an estimate only)."""
    n = x.size
    h = np.maximum(1e-5 * np.abs(x), 1e-9)
    hess = np.zeros((n, n))
    f0 = objective(x)
    for i in range(n):
        for k in range(i, n):
            ei = np.eye(n)[i] * h[i]
            ek = np.eye(n)[k] * h[k]
            if i == k:
                val = (objective(x + ei) - 2 * f0 + objective(x - ei)) / h[i] ** 2
            else:
                val = (objective(x + ei + ek) - objective(x + ei - ek)
                       - objective(x - ei + ek) + objective(x - ei - ek)) / (4 * h[i] * h[k])
            hess[i, k] = hess[k, i] = val
    dof = max(n_obs - n, 1)
    cov = 2.0 * (ssr / dof) * np.linalg.pinv(hess)
    diag = np.clip(np.diag(cov), 0.0, None)
    return np.sqrt(diag)


def fit_redfield_joint(long_curve: DecayCurve, trans_curve: DecayCurve,
                       c: QuadrupolarConstant, init,
                       *, equilibrium_deviation: np.ndarray | None = None,
                       restarts: int = 16, seed: int = 0,
                       max_iters: int = 20000, x_tol: float = 1e-10,
                       f_tol: float = 1e-14) -> FitResult:
    """Joint fit of both magnetization curves over the seven parameters.

    Every objective evaluation rebuilds both coherence blocks from the trial
    rate scales and rederives rates and mode amplitudes.  The simplex search
    restarts from ``restarts`` deterministic perturbations of the initial
    guess (best residual wins); the quadrupolar constant only enters when
    converting the fitted scales to spectral densities afterwards.
    """
    for curve, label in ((long_curve, "longitudinal"), (trans_curve, "transverse")):
        if len(curve) < 4:
            raise ValueError(f"{label} curve needs at least 4 samples for fitting")
    x_init = _param_vector(init)
    objective = _joint_objective(long_curve, trans_curve, equilibrium_deviation)
    rng = np.random.default_rng(seed)
    best: NelderMeadResult | None = None
    total_iterations = 0
    for attempt in range(max(1, restarts)):
        start = x_init if attempt == 0 else x_init * (1 + 0.3 * rng.standard_normal(x_init.size))
        start[4:] = np.abs(start[4:])
        result = nelder_mead_minimize(objective, start, max_iters=max_iters,
                                      x_tol=x_tol, f_tol=f_tol)
        total_iterations += result.iterations
        if best is None or result.fun < best.fun:
            best = result
    assert best is not None
    n_obs = len(long_curve) + len(trans_curve)
    sigmas = _hessian_uncertainties(objective, best.x, best.fun, n_obs)
    params = dict(zip(PARAM_NAMES, (float(v) for v in best.x)))
    uncertainties = dict(zip(PARAM_NAMES, (float(s) for s in sigmas)))
    return FitResult(params=params, uncertainties=uncertainties,
                     residual_norm=float(np.sqrt(best.fun)),
                     iterations=total_iterations, converged=best.converged)


def derived_densities(result: FitResult, c: QuadrupolarConstant):
    """Spectral densities J_k = B_k / C implied by a fit."""
    return densities_from_fit(result.scales(), c)


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
