"""Decay-curve analysis: the joint least-squares fit, Bloch baselines,
regularized inverse-Laplace time distributions, and residual diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .curves import DecayCurve
from .evolution import (MagnetizationModel, build_longitudinal_model, build_transverse_model,
                        longitudinal_observable, transverse_observable)
from .redfield_core import _canonical_eigensystem, sector_modes, sector_table
# the fit no longer calls it; bench/test_bench_stats.py calls it through analysis, so it
# stays imported until the benchmark changes
from .redfield_core import numeric_eigensystem  # noqa: F401

PARAM_NAMES = ("a1z", "a2z", "a1x", "a2x", "b0", "b1", "b2")
#: the fitted parameters: a2x is held at 1, so a1x carries the product a1x*a2x
FIT_NAMES = ("a1z", "a2z", "a1x", "b0", "b1", "b2")
#: eigenvalue pairs of a fitted sector closer than this times its largest |lambda| keep
#: their divided difference in _b_derivatives
_GAP_RTOL = 1e-6


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


@lru_cache(maxsize=1)
def _parity_subspace() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fitted signals c . exp(M t) d of q = 0 and q = 1 reduced to the
    reversal-parity sector of their c and d (see redfield_core.sector_table).

    <Iz> is odd under the reversal (q = 0, c = Iz, d = -Iz) and Ix's q = 1 weights
    and elements are even (c, d = transverse_observable()).  So exp(M t) keeps the
    odd q = 0 and the even q = 1 sector, and each signal is (P^T c) . exp(P^T M P t)
    (P^T d) with 4 x 4 matrices.  Returns both sectors' P^T A_k P, shape
    (2, 3, 4, 4), P^T c and P^T d, shape (2, 4), indexed by q and read-only.
    """
    iz = longitudinal_observable()
    parts = []
    for q, (obs, dev) in ((0, (iz, -iz)), (1, transverse_observable())):
        p, mats = sector_table()[q][q == 0]
        parts.append((mats, obs @ p, dev @ p))
    reduced = tuple(np.stack(arrays) for arrays in zip(*parts))
    for arr in reduced:
        arr.flags.writeable = False
    return reduced


@lru_cache(maxsize=1)
def _joint_eigensystems(b0: float, b1: float, b2: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues lam, shape (2, 4), and orthonormal eigenvectors V (columns),
    shape (2, 4, 4), of the two sectors of _parity_subspace at the rate scales B,
    indexed by q, from one stacked eigh; read-only.  One entry: the fit's residual
    and Jacobian at a trial point share one eigensolve.  The modes keep eigh's
    order and signs, which neither the signals nor their derivatives depend on.
    The matrices are weighted elementwise, as sector_modes weights them, so the fit
    and joint_models solve the same bits."""
    a = _parity_subspace()[0]
    lam, vec = np.linalg.eigh(b0 * a[:, 0] + b1 * a[:, 1] + b2 * a[:, 2])
    lam.flags.writeable = vec.flags.writeable = False
    return lam, vec


def joint_models(params) -> tuple[MagnetizationModel, MagnetizationModel]:
    """Longitudinal and transverse magnetization models at a 7-parameter set,
    with every mode of the full q = 0 and q = 1 blocks (both sectors of each), in
    numeric_eigensystem's order, from one sector_modes call.

    <Iz> is odd and the transverse observable even under the reversal (see
    _parity_subspace), so every mode of the q = 0 even and the q = 1 odd sector
    has an amplitude of exactly 0.  Rates come out in Hz directly because the
    blocks are evaluated at the rate scales B_k = C J_k (the C = 1 eigensystem
    convention).
    """
    a1z, a2z, a1x, a2x, b0, b1, b2 = _param_vector(params)
    modes = sector_modes((0, 1), (b0, b1, b2))
    models = []
    for q, build, scale, efficiency in ((0, build_longitudinal_model, a1z, a2z),
                                        (1, build_transverse_model, a1x, a2x)):
        es, order = _canonical_eigensystem(q, *modes[q], None)
        model = build(es, scale, efficiency)
        # sector_modes lists the even sector's modes first
        even = order < sector_table()[q][0][0].shape[1]
        excluded = even if q == 0 else ~even
        models.append(replace(model, amplitudes=np.where(excluded, 0.0, model.amplitudes)))
    return models[0], models[1]


def joint_model_curves(params, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """Model longitudinal and transverse signals at the given parameter set."""
    long_model, trans_model = joint_models(params)
    return long_model.evaluate(times_long), trans_model.evaluate(times_trans)


def _reduced_signals(lam: np.ndarray, vec: np.ndarray, times: tuple) -> list:
    """Per q = 0, 1, from the sectors' eigensystems (lam, vec) of _joint_eigensystems
    and that order's sample times: the mode exponentials E = exp(t lam), shape
    (T, 4), and the signal c . exp(M t) d = E ((c V) o (V^T d)), shape (T,)."""
    _, obs, dev = _parity_subspace()
    amps = (obs[:, None] @ vec)[:, 0] * (dev[:, None] @ vec)[:, 0]
    out = []
    for lam_q, amps_q, times_q in zip(lam, amps, times):
        e = np.exp(times_q[:, None] * lam_q)
        out.append((e, e @ amps_q))
    return out


def _b_derivatives(lam: np.ndarray, vec: np.ndarray, times: tuple, e: tuple) -> list:
    """Per q = 0, 1: the derivatives of _reduced_signals by B, shape (T, 3), from
    its mode exponentials e at the same eigensystems (lam, vec).

    With M = sum_k B_k A_k = V diag(lam) V^T, the Daleckii-Krein form of the
    Frechet derivative of exp gives d/dB_k = sum_ij W_kij G_ij(t), with
    W_kij = (c V)_i (V^T d)_j (V^T A_k V)_ij and the divided differences
    G_ij = (E_i - E_j) / (lam_i - lam_j), G_ii = t E_i.  In partial fractions
    (Najfeld and Havel, Adv. Appl. Math. 16:321, 1995) that is
    E u_k + (t E) diag(W_k) with u_ki = sum_{j != i} (W_kij + W_kji) / (lam_i - lam_j),
    which needs no (T, 4, 4) tensor; u and diag(W) of both sectors take one
    stacked pass.  A pair closer than _GAP_RTOL max|lam| of its sector would
    cancel there, so it keeps its divided difference, in the stable form
    exp(max(lam_i, lam_j) t) expm1(-|lam_i - lam_j| t) / -|lam_i - lam_j|, or the
    limit t exp(lam_i t) for an exact tie.
    """
    mats, obs, dev = _parity_subspace()
    cv, vd = (obs[:, None] @ vec)[:, 0], (dev[:, None] @ vec)[:, 0]
    a = vec.transpose(0, 2, 1)[:, None] @ mats @ vec[:, None]
    # W_kij + W_kji = (V^T A_k V)_ij pair_ij, V^T A_k V being symmetric
    pair = cv[:, :, None] * vd[:, None]
    pair = pair + pair.transpose(0, 2, 1)
    gap = lam[:, :, None] - lam[:, None]
    close = np.abs(gap) <= _GAP_RTOL * np.abs(lam).max(axis=1)[:, None, None]
    u = (a * (pair / np.where(close, np.inf, gap))[:, None]).sum(axis=3)
    diag = a.diagonal(axis1=2, axis2=3) * (cv * vd)[:, None]
    # a close pair besides the diagonal
    has_close = np.count_nonzero(close, axis=(1, 2)) > lam.shape[1]
    out = []
    for q, (times_q, e_q) in enumerate(zip(times, e)):
        ds = e_q @ u[q].T + times_q[:, None] * (e_q @ diag[q].T)
        if has_close[q]:
            i, j = np.nonzero(np.triu(close[q], 1))
            lam_q, t, dist = lam[q], times_q[:, None], np.abs(gap[q, i, j])
            tied = dist == 0
            ratio = np.where(tied, t, np.expm1(-dist * t) / np.where(tied, 1.0, -dist))
            ds += ((e_q[:, np.where(lam_q[i] >= lam_q[j], i, j)] * ratio)
                   @ (a[q][:, i, j] * pair[q, i, j]).T)
        out.append(ds)
    return out


def _joint_jacobian(x: np.ndarray, sz: np.ndarray, dsz: np.ndarray, sx: np.ndarray,
                    dsx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the longitudinal and transverse signals at x by the fitted
    FIT_NAMES, from the responses s_z, s_x of _reduced_signals and their
    B-derivatives of _b_derivatives at x's B.  The signals are
    a1z (Iz.Iz + (1 + a2z) s_z(t)), with s_z the response to the deviation -Iz,
    and a1x (the product a1x*a2x) times the response s_x to Ix: joint_model_curves
    with a2x = 1.

    The signals are linear in a1z and a1x and affine in a2z, so every column but
    the B ones is closed-form.
    """
    a1z, a2z, a1x = x[:3]
    iz = longitudinal_observable()
    zz, zx = np.zeros(sz.size), np.zeros(sx.size)
    jz = np.column_stack([iz @ iz + (1 + a2z) * sz, a1z * sz, zz, a1z * (1 + a2z) * dsz])
    jx = np.column_stack([zx, zx, sx, a1x * dsx])
    return jz, jx


def fit_redfield_joint(long_curve: DecayCurve, trans_curve: DecayCurve, init,
                       *, restarts: int = 16, seed: int = 0) -> FitResult:
    """Joint least-squares fit of both magnetization curves.

    The transverse signal depends on a1x and a2x only through their product,
    so six parameters are fitted: a1z, a2z, a1x*a2x (returned as a1x, with
    a2x = 1) and the rate scales b0, b1, b2 >= 0.  The signals (see _joint_jacobian)
    are linear in u = (a1z, a1z (1 + a2z), a1x), so the search runs over B alone
    by variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10:413,
    1973): at each trial B, u is the weighted linear least-squares solution, and
    the Jacobian is Kaufman's P_perp (dPhi/dB) u (BIT 15:49, 1975), with Phi the
    weighted design matrix of u.  The residual and the Jacobian at a trial point
    share one stacked eigensolve (see _joint_eigensystems), one set of mode
    exponentials and one projection of the signal columns, so the Jacobian adds
    only dPhi/dB (see _b_derivatives).

    ``init`` maps PARAM_NAMES to values, or is a vector in that order; only b0,
    b1 and b2 are read.  The search starts once from that B and once from each
    of ``restarts - 1`` perturbations of it drawn from ``seed``, each b_k times
    |1 + 0.3 N(0, 1)| (best residual wins).  Sigmas of all six parameters
    come from the full Jacobian of _joint_jacobian at the best restart,
    cov = SSR/(n - 6) (J^T J)^-1, as in ``curve_fit``; where the last Jacobian of the
    search was taken at the optimum, it reuses that Jacobian's signals and
    B-derivatives.  A fitted a1z of exactly 0 leaves a2z undetermined: it is
    returned as nan and without a sigma, and the other sigmas come from the
    Jacobian without the a2z column.
    """
    from scipy.optimize import least_squares

    for curve, label in ((long_curve, "longitudinal"), (trans_curve, "transverse")):
        if len(curve) < 4:
            raise ValueError(f"{label} curve needs at least 4 samples for fitting")
    wz, wx = (1.0 / curve.sigmas if curve.sigmas is not None else np.ones(len(curve))
              for curve in (long_curve, trans_curve))
    # Phi_z = [w Iz.Iz, w s_z] and Phi_x = [w s_x].  The QR of Phi_z starts with the
    # unit vector f along its B-free first column, which is projected out of the data
    # once, so that each curve is left with one B-dependent column to project on.
    times = (long_curve.times, trans_curve.times)
    curves = []
    for curve, w, fixed in ((long_curve, wz, True), (trans_curve, wx, False)):
        f = (w / np.linalg.norm(w))[:, None] if fixed else np.zeros((len(curve), 0))
        y = w * curve.amplitudes
        curves.append((w, f, y - f @ (f.T @ y)))

    @lru_cache(maxsize=1)
    def project(b0: float, b1: float, b2: float) -> list:
        """Per curve at B: its mode exponentials E and raw signal s (see
        _reduced_signals), the orthonormal basis [f, v_hat] of the curve's columns of
        Phi, with v_hat the unit column along the projected w s, the inverse norm of
        that column and the coefficient v_hat . y.  One entry: the Jacobian at a
        trial point reuses what its residual computed."""
        out = []
        for (e, s), (w, f, y) in zip(
                _reduced_signals(*_joint_eigensystems(b0, b1, b2), times), curves):
            v = w * s
            v -= f @ (f.T @ v)
            norm = math.sqrt(v @ v)
            inv = 1.0 / norm if norm > 0 else 0.0  # a zero column fits nothing
            basis = np.column_stack([f, v * inv])
            out.append((e, s, basis, inv, basis[:, -1] @ y))
        return out

    @lru_cache(maxsize=1)
    def derive(b0: float, b1: float, b2: float) -> list:
        """Per curve at B: project's entry and the raw derivatives of s by B.  One
        entry: the covariance at the optimum reuses the last Jacobian's."""
        entries = project(b0, b1, b2)
        derivatives = _b_derivatives(*_joint_eigensystems(b0, b1, b2), times,
                                     [e for e, *_ in entries])
        return [(*entry, ds) for entry, ds in zip(entries, derivatives)]

    def residuals(b: np.ndarray) -> np.ndarray:
        """Phi u - y for both curves, u the linear least-squares coefficients at B."""
        return np.concatenate([basis[:, -1] * coef - y for (*_, basis, _, coef), (*_, y)
                               in zip(project(*(float(v) for v in b)), curves)])

    def jacobian(b: np.ndarray) -> np.ndarray:
        """Kaufman's Jacobian of residuals by B."""
        blocks = []
        for (*_, basis, inv, coef, ds), (w, _, _) in zip(
                derive(*(float(v) for v in b)), curves):
            dv = w[:, None] * ds
            dv -= basis @ (basis.T @ dv)  # P_perp
            blocks.append(dv * (coef * inv))
        return np.vstack(blocks)

    b_init = np.abs(np.array([init[name] for name in PARAM_NAMES[4:]], dtype=float)
                    if isinstance(init, Mapping) else _param_vector(init)[4:])
    best = None
    evaluations = 0
    for attempt in range(max(1, restarts)):
        if attempt == 1:
            rng = np.random.default_rng(seed)  # built only when a second start needs it
        # seven normals per restart, the stream of the earlier seven-parameter starts
        start = b_init if attempt == 0 else np.abs(
            b_init * (1 + 0.3 * rng.standard_normal(len(PARAM_NAMES))[4:]))
        result = least_squares(residuals, start, jac=jacobian, bounds=(0.0, np.inf))
        evaluations += result.nfev
        if best is None or result.cost < best.cost:
            best = result
    (_, sz, _, inv2, coef2, dsz), (_, sx, _, inv3, coef3, dsx) = derive(
        *(float(v) for v in best.x))
    u2, u3 = coef2 * inv2, coef3 * inv3
    iz = longitudinal_observable()
    u1 = wz @ (wz * (long_curve.amplitudes - u2 * sz)) / ((iz @ iz) * (wz @ wz))
    undetermined = u1 == 0
    # with u1 = 0, u2 = a1z (1 + a2z) is 0 as well (all-zero longitudinal data), and
    # a2z = -1 makes the a1z column the derivative by u1
    x = np.array([u1, -1.0 if undetermined else u2 / u1 - 1, u3, *best.x])
    jz, jx = _joint_jacobian(x, sz, dsz, sx, dsx)
    jac = np.vstack([jz * wz[:, None], jx * wx[:, None]])
    names = list(FIT_NAMES)
    if undetermined:
        jac, x[1] = np.delete(jac, 1, axis=1), np.nan
        names.remove("a2z")
    ssr = float(best.fun @ best.fun)
    jac_pinv = np.linalg.pinv(jac)
    cov = ssr / (best.fun.size - jac.shape[1]) * (jac_pinv @ jac_pinv.T)
    params = dict(zip(PARAM_NAMES, (float(v) for v in np.insert(x, 3, 1.0))))
    uncertainties = dict(zip(names, (float(s) for s in np.sqrt(np.diag(cov)))))
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
