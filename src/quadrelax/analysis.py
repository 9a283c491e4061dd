"""Decay-curve analysis: the joint least-squares fit, Bloch baselines,
regularized inverse-Laplace time distributions, and residual diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .curves import DecayCurve
from .evolution import MagnetizationModel, longitudinal_observable, transverse_observable
from .redfield_core import _rates_from_eigenvalues, sector_table
# the fit no longer calls it; bench/test_bench_stats.py calls it through analysis, so it
# stays imported until the benchmark changes
from .redfield_core import numeric_eigensystem  # noqa: F401

PARAM_NAMES = ("a1z", "a2z", "a1x", "a2x", "b0", "b1", "b2")
#: the fitted parameters: a2x is held at 1, so a1x carries the product a1x*a2x
FIT_NAMES = ("a1z", "a2z", "a1x", "b0", "b1", "b2")
#: eigenvalue pairs of a fitted sector closer than this times its largest |lambda| keep
#: their divided difference in _fit_point: the partial fractions' error grows like
#: eps max|lambda| / gap, so this bounds it by about 100 eps of the derivative's scale
_GAP_RTOL = 1e-2
#: restarts whose SSR is within this of the lowest reached the same minimum, and the
#: earliest of them is reported.  Restarts that stop within xtol (1e-8) of one minimum
#: differ in SSR by up to 6.4e-12 relative (16 restarts on the bundled pair and on 60
#: noisy criterion-7 pairs); the next distinct minimum that a search reached had an
#: SSR at least 2.6 relative above the lowest (far single starts on 12 of those pairs,
#: 10^U(-1.5, 1.5) off in each b_k, two draws of 120).
#: Taking the strict lowest let round-off alone pick another restart and move B by up
#: to 3e-8.
_SAME_MINIMUM_RTOL = 1e-9


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
def _parity_subspace() -> tuple[np.ndarray, np.ndarray]:
    """The fitted signals c . exp(M t) d of q = 0 and q = 1 reduced to the
    reversal-parity sector of their c and d (see redfield_core.sector_table).

    <Iz> is odd under the reversal (q = 0, c = Iz, d = -Iz) and Ix's q = 1 weights
    and elements are even (c, d = transverse_observable()).  So exp(M t) keeps the
    odd q = 0 and the even q = 1 sector, and each signal is (P^T c) . exp(P^T M P t)
    (P^T d) with 4 x 4 matrices.  Returns both sectors' P^T A_k P indexed by k, then
    q, shape (3, 2, 4, 4), and their P^T c and P^T d indexed by q, shape (2, 2, 4),
    read-only.
    """
    iz = longitudinal_observable()
    mats, ends = [], []
    for q, (obs, dev) in ((0, (iz, -iz)), (1, transverse_observable())):
        p, a = sector_table()[q][q == 0]
        mats.append(a)
        ends.append((obs @ p, dev @ p))
    reduced = np.stack(mats, axis=1), np.array(ends)
    for arr in reduced:
        arr.flags.writeable = False
    return reduced


@lru_cache(maxsize=1)
def _joint_eigensystems(b0: float, b1: float, b2: float) -> tuple:
    """The modes of the two sectors of _parity_subspace at the rate scales B, indexed
    by q and read-only: the eigenvalues lam, shape (2, 4), the orthonormal
    eigenvectors V (columns), shape (2, 4, 4), and each mode's weights c V and V^T d,
    shape (2, 4), whose product is its signal amplitude.  One stacked eigh, one
    product for both weights and one entry: the fit's record at a trial point
    (_fit_point) solves nothing else, and joint_models at the fitted B reuses the
    last.  The modes keep eigh's order (ascending eigenvalue) and signs, which neither
    the signals, their derivatives nor the amplitudes depend on.  The matrices are
    weighted elementwise, as sector_modes weights them, so the fit solves the same
    bits as the full blocks' sector solves."""
    a, ends = _parity_subspace()
    lam, vec = np.linalg.eigh(b0 * a[0] + b1 * a[1] + b2 * a[2])
    weights = ends @ vec  # c V and V^T d by q
    for arr in (lam, vec, weights):
        arr.flags.writeable = False
    return lam, vec, weights[:, 0], weights[:, 1]


def joint_models(params) -> tuple[MagnetizationModel, MagnetizationModel]:
    """Longitudinal and transverse magnetization models at a 7-parameter set, each
    with its observable's four modes, in ascending rate.

    <Iz> is odd and the transverse observable even under the reversal (see
    _parity_subspace), so only the q = 0 odd and the q = 1 even sector carry
    amplitude; the other four and three modes of the full blocks, the q = 0 zero
    mode among them, have an amplitude of 0 by symmetry and are left out
    (build_longitudinal_model and build_transverse_model give all 8 and 7 modes).
    The modes are the fit's (_joint_eigensystems, so that after a fit the models at
    its B solve nothing), and each amplitude is the fit's (P^T c)V o V^T(P^T d) times
    the preparation efficiency.  Rates come out in Hz directly because the blocks are
    evaluated at the rate scales B_k = C J_k (the C = 1 eigensystem convention).
    """
    a1z, a2z, a1x, a2x, b0, b1, b2 = _param_vector(params)
    lam, _, cv, vd = _joint_eigensystems(float(b0), float(b1), float(b2))
    # eigh's ascending eigenvalues, reversed: ascending rates
    (amps_z, amps_x), (lam_z, lam_x) = (cv * vd)[:, ::-1], lam[:, ::-1]
    iz = longitudinal_observable()
    return (MagnetizationModel(scale=a1z, amplitudes=(1 + a2z) * amps_z,
                               equilibrium_term=float(iz @ iz),
                               rates=_rates_from_eigenvalues(lam_z, None)),
            MagnetizationModel(scale=a1x, amplitudes=a2x * amps_x, equilibrium_term=0.0,
                               rates=_rates_from_eigenvalues(lam_x, None)))


def joint_model_curves(params, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
    """Model longitudinal and transverse signals at the given parameter set."""
    long_model, trans_model = joint_models(params)
    return long_model.evaluate(times_long), trans_model.evaluate(times_trans)


class _FitRows(NamedTuple):
    """A curve pair's samples stacked as the fit's N rows: the longitudinal ones, whose
    signal lives in the q = 0 sector of _parity_subspace, then the transverse ones
    (q = 1).  The (8, N) arrays have a row per mode of both sectors, q = 0 first,
    and a column per sample, and are 0 where the mode is not in the sample's sector."""
    split: int            # the number of longitudinal rows
    times: np.ndarray     # (N,)
    times8: np.ndarray    # (8, N): the sample time in its own sector, else 0
    mask8: np.ndarray     # (8, N): 1 in its own sector, else 0
    weights: np.ndarray   # (2, N): each curve's 1/sigma (or 1) in its own rows, else 0
    frame: np.ndarray     # (4, N): f, the unit vector along the longitudinal weights
    #                       (Phi's B-free column), two zero rows for the curves' v, and
    #                       y, the weighted amplitudes with f projected out


def _fit_rows(long_curve: DecayCurve, trans_curve: DecayCurve) -> _FitRows:
    """The fit's stacked rows of a curve pair (see _FitRows), read-only.

    Phi_z = [w Iz.Iz, w s_z] and Phi_x = [w s_x].  The QR of Phi_z starts with the
    unit vector f along its B-free first column, which is projected out of the data
    once, so that each curve is left with one B-dependent column to project on."""
    split, n = len(long_curve), len(long_curve) + len(trans_curve)
    times = np.concatenate([long_curve.times, trans_curve.times])
    mask8, weights, frame = np.zeros((8, n)), np.zeros((2, n)), np.zeros((4, n))
    mask8[:4, :split] = mask8[4:, split:] = 1.0
    for w, curve in ((weights[0, :split], long_curve), (weights[1, split:], trans_curve)):
        w[:] = 1.0 / curve.sigmas if curve.sigmas is not None else 1.0
    f, y = frame[0], frame[3]
    np.divide(weights[0], math.sqrt(weights[0] @ weights[0]), out=f)
    np.multiply(weights[0] + weights[1],
                np.concatenate([long_curve.amplitudes, trans_curve.amplitudes]), out=y)
    y -= f * (f @ y)
    rows = _FitRows(split, times, mask8 * times, mask8, weights, frame)
    for arr in rows[1:]:
        arr.flags.writeable = False
    return rows


class _FitPoint(NamedTuple):
    """The fit at one rate-scale point B (_fit_point), over the N rows of _FitRows."""
    residual: np.ndarray     # (N,): Phi u - y, u the weighted least-squares solution
    jacobian: np.ndarray     # (N, 3): Kaufman's P_perp (dPhi/dB) u, by B
    signals: np.ndarray      # (N,): each row's raw signal c . exp(M t) d
    derivatives: np.ndarray  # (N, 3): the raw signals' derivatives by B
    u2: float                # the coefficient of the longitudinal signal column
    u3: float                # the coefficient of the transverse signal column


#: the pairs i < j of a sector's four modes
_PAIRS = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
#: added to a sector's eigenvalue gaps lam_i - lam_j, so that each mode's own term
#: drops out of the partial fractions
_SELF = np.diag(np.full(4, np.inf))
_SELF.flags.writeable = False


def _fit_point(modes: tuple, rows: _FitRows) -> _FitPoint:
    """The fit at the modes (lam, V, c V, V^T d) of _joint_eigensystems, in one pass
    over both sectors and both curves' rows.

    Each signal is c . exp(M t) d = E ((c V) o (V^T d)) with E = exp(t lam).  With
    M = sum_k B_k A_k = V diag(lam) V^T, the Daleckii-Krein form of the Frechet
    derivative of exp gives d/dB_k = sum_ij W_kij G_ij(t), with
    W_kij = (c V)_i (V^T d)_j (V^T A_k V)_ij and the divided differences
    G_ij = (E_i - E_j) / (lam_i - lam_j), G_ii = t E_i.  In partial fractions
    (Najfeld and Havel, Adv. Appl. Math. 16:321, 1995) that is
    E u_k + (t E) diag(W_k) with u_ki = sum_{j != i} (W_kij + W_kji) / (lam_i - lam_j),
    which needs no (T, 4, 4) tensor: one product of both sectors' coefficients with
    the rows' E gives the signals, E u_k and E diag(W_k).  A
    pair closer than _GAP_RTOL max|lam| of its sector would cancel there, so it
    keeps its divided difference, in the stable form
    exp(max(lam_i, lam_j) t) expm1(-|lam_i - lam_j| t) / -|lam_i - lam_j|, or the
    limit t exp(lam_i t) for an exact tie.

    Phi's B-dependent columns v are each curve's weighted signal, the longitudinal
    one with f projected out.  The rows b = [f, v_z, v_x] are orthogonal (the curves'
    rows are disjoint), so one product gives every b . b and b . y, u = (v . y) / |v|^2
    per curve, the residual is u2 v_z + u3 v_x - y, and P_perp = 1 - sum_b b b^T / |b|^2
    is applied to the derivative columns as rank-one updates.  The record's arrays
    are read-only.
    """
    lam, vec, cv, vd = modes
    # V^T A_k V by k, q; matmul takes a contiguous V^T faster than a transposed view
    a = np.ascontiguousarray(vec.mT) @ _parity_subspace()[0] @ vec
    # per mode of both sectors: the signal amplitude, u_k and diag(W_k)
    coefs = np.empty((7, 2, 4))
    amps = np.multiply(cv, vd, out=coefs[0])
    # W_kij + W_kji = (V^T A_k V)_ij pair_ij, V^T A_k V being symmetric
    pair = cv[:, :, None] * vd[:, None]
    pair = pair + pair.transpose(0, 2, 1)
    close = []
    for q, sector in enumerate(lam.tolist()):
        tol = _GAP_RTOL * max(map(abs, sector))
        close += [(q, i, j) for i, j in _PAIRS if abs(sector[i] - sector[j]) <= tol]
    gap = lam[:, :, None] - lam[:, None] + _SELF
    for q, i, j in close:
        gap[q, i, j] = gap[q, j, i] = np.inf
    np.add.reduce(a * (pair / gap), axis=3, out=coefs[1:4])
    np.multiply(a.diagonal(axis1=2, axis2=3), amps, out=coefs[4:])
    e = np.multiply(rows.times8, lam.reshape(8, 1))
    np.exp(e, out=e)
    e *= rows.mask8
    g = coefs.reshape(7, 8) @ e
    ds = g[4:] * rows.times
    ds += g[1:4]
    if close:
        q, i, j = np.array(close).T
        dist = np.abs(lam[q, i] - lam[q, j])[:, None]
        tied = dist == 0
        t = rows.times
        ratio = np.where(tied, t, np.expm1(-dist * t) / np.where(tied, 1.0, -dist))
        ds += ((a[:, q, i, j] * pair[q, i, j])
               @ (e[4 * q + np.where(lam[q, i] >= lam[q, j], i, j)] * ratio))
    # the rows [f, v_z, v_x, y]: f and the curves' weighted signals, v_z without f
    frame = rows.frame.copy()
    f, v, basis = frame[0], frame[1:3], frame[:3]
    np.multiply(g[0], rows.weights, out=v)
    v[0] -= (v[0] @ f) * f
    products = basis @ frame.T  # b . b' and b . y
    # 1/|b|^2 of each basis row; a zero row fits nothing
    inv2 = [1.0 / n2 if n2 > 0 else 0.0 for n2 in products.diagonal().tolist()]
    u = products[1:, 3] * inv2[1:]
    jac = ds * (u @ rows.weights)
    jac -= ((jac @ basis.T) * inv2) @ basis
    record = _FitPoint(u @ v - frame[3], jac.T, g[0], ds.T, *u.tolist())
    for arr in record[:4]:
        arr.flags.writeable = False
    return record


def _fit_jacobian(x: np.ndarray, rows: _FitRows, record: _FitPoint) -> np.ndarray:
    """The weighted derivatives (N, 6) of both curves' signals at x by the fitted
    FIT_NAMES over the stacked rows of _FitRows, from the raw signals s and their
    B-derivatives in the record of _fit_point at x's B.  The signals are
    a1z (Iz.Iz + (1 + a2z) s) on the longitudinal rows (s the response to -Iz) and
    a1x (the product a1x*a2x) s on the transverse ones (s the response to Ix):
    joint_model_curves with a2x = 1.  They are linear in a1z and a1x and affine in
    a2z, so every column but the B ones is closed-form.
    """
    a1z, a2z, a1x = x[:3].tolist()
    (wz, wx), s = rows.weights, record.signals
    iz = longitudinal_observable()
    jac = np.empty((6, len(s)))  # by column
    np.multiply(wz, iz @ iz + (1 + a2z) * s, out=jac[0])
    np.multiply(wz, a1z * s, out=jac[1])
    np.multiply(wx, s, out=jac[2])
    np.multiply(record.derivatives.T, a1z * (1 + a2z) * wz + a1x * wx, out=jac[3:])
    return jac.T


def fit_redfield_joint(long_curve: DecayCurve, trans_curve: DecayCurve, init,
                       *, restarts: int = 16, seed: int = 0) -> FitResult:
    """Joint least-squares fit of both magnetization curves.

    The transverse signal depends on a1x and a2x only through their product,
    so six parameters are fitted: a1z, a2z, a1x*a2x (returned as a1x, with
    a2x = 1) and the rate scales b0, b1, b2 >= 0.  The signals (see _fit_jacobian)
    are linear in u = (a1z, a1z (1 + a2z), a1x), so the search runs over B alone
    by variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10:413,
    1973): at each trial B, u is the weighted linear least-squares solution, and
    the Jacobian is Kaufman's P_perp (dPhi/dB) u (BIT 15:49, 1975), with Phi the
    weighted design matrix of u.  Each trial point takes one stacked eigensolve
    (see _joint_eigensystems) and one pass over both curves (see _fit_point) that
    gives its residual and its Jacobian together; the fit keeps that record of the
    last point, for the Jacobian and the sigmas to read.  The search is MINPACK's
    unbounded Levenberg-Marquardt lmder (More, LNM 630, 1978), called through ``leastsq``
    with the settings of ``least_squares(method="lm", x_scale="jac")``, over theta
    with B = |theta|, which keeps B >= 0 by reflection: the residual
    is taken at |theta| and each Jacobian column is multiplied by sign(theta_k),
    with sign(0) = +1.  The record is keyed on B, so theta and -theta share it.

    ``init`` maps PARAM_NAMES to values, or is a vector in that order; only b0,
    b1 and b2 are read.  The search starts once from that B and once from each
    of ``restarts - 1`` perturbations of it drawn from ``seed``, each b_k times
    |1 + 0.3 N(0, 1)| (the last three of seven normals), so a b_k of 0 stays 0 in
    every restart (the command line takes only positive starts).  The earliest
    restart whose SSR is within _SAME_MINIMUM_RTOL (1e-9) of the lowest wins.
    ``evaluations`` sums MINPACK's residual evaluations (nfev) over the restarts;
    the calls that check shapes at each start (the residual twice, the Jacobian
    once) are not among them.  ``converged`` is MINPACK's info 1-4 (a
    tolerance met) for the best restart, whose B = |theta| the fit reports.  Sigmas of
    all six parameters come from the weighted Jacobian J of _fit_jacobian there,
    cov = SSR/(n - 6) (J^T J)^-1 as in ``curve_fit``, through pinv of J with unit-norm
    columns; they read the record of the last residual when that was taken at the
    best point, and otherwise add one eigensolve and one record.
    A fitted a1z of exactly 0 leaves a2z undetermined: it is returned as nan and
    without a sigma, and the other sigmas come from the Jacobian without the a2z
    column.

    A curve of fewer than 4 samples, a non-finite start b_k or ``restarts`` below 1
    raises ValueError before any search (DecayCurve checks the samples themselves).
    """
    from scipy.optimize import leastsq

    for curve, label in ((long_curve, "longitudinal"), (trans_curve, "transverse")):
        if len(curve) < 4:
            raise ValueError(f"{label} curve needs at least 4 samples for fitting")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    rows = _fit_rows(long_curve, trans_curve)

    @lru_cache(maxsize=1)
    def point(b0: float, b1: float, b2: float) -> _FitPoint:
        """The fit's record at B.  One entry: the Jacobian at a trial point and the
        covariance at the optimum read what its residual computed."""
        return _fit_point(_joint_eigensystems(b0, b1, b2), rows)

    def residuals(theta: np.ndarray) -> np.ndarray:
        """Phi u - y for both curves, u the linear least-squares coefficients at
        B = |theta|."""
        return point(*map(abs, theta.tolist())).residual

    def jacobian(theta: np.ndarray) -> np.ndarray:
        """Kaufman's Jacobian of residuals by theta: by B at |theta|, times
        dB/dtheta = sign(theta), taken as +1 at 0."""
        values = theta.tolist()
        jac = point(*map(abs, values)).jacobian
        flips = [value < 0 for value in values]
        # the record's own (read-only) array when no sign flips, else a new one
        return jac * np.where(flips, -1.0, 1.0) if any(flips) else jac

    b_init = np.abs(np.array([init[name] for name in PARAM_NAMES[4:]], dtype=float)
                    if isinstance(init, Mapping) else _param_vector(init)[4:])
    for name, value in zip(PARAM_NAMES[4:], b_init):
        if not math.isfinite(value):
            raise ValueError(f"start {name} must be finite, got {value}")
    starts = [b_init]
    if restarts > 1:
        # seven normals per restart, the stream of the earlier seven-parameter starts
        normals = np.random.default_rng(seed).standard_normal((restarts - 1, len(PARAM_NAMES)))
        starts += list(np.abs(b_init * (1 + 0.3 * normals[:, 4:])))
    # least_squares(method="lm", x_scale="jac")'s lmder call: diag=None is
    # x_scale="jac", maxfev its 100 n, factor 100 and col_deriv False both defaults
    runs = [leastsq(residuals, start, Dfun=jacobian, full_output=True,
                    ftol=1e-8, xtol=1e-8, gtol=1e-8, maxfev=300) for start in starts]
    ssrs = [float(run[2]["fvec"] @ run[2]["fvec"]) for run in runs]
    same_minimum = min(ssrs) * (1 + _SAME_MINIMUM_RTOL)
    best = next(k for k, ssr in enumerate(ssrs) if ssr <= same_minimum)
    (theta, _, info, _, ier), ssr = runs[best], ssrs[best]
    b_best = np.abs(theta)
    record = point(*b_best.tolist())
    split, u2 = rows.split, record.u2
    wz, iz = rows.weights[0, :split], longitudinal_observable()
    u1 = wz @ (wz * (long_curve.amplitudes - u2 * record.signals[:split])) / ((iz @ iz) * (wz @ wz))
    undetermined = u1 == 0
    # with u1 = 0, u2 = a1z (1 + a2z) is 0 as well (all-zero longitudinal data), and
    # a2z = -1 makes the a1z column the derivative by u1
    x = np.array([u1, -1.0 if undetermined else u2 / u1 - 1, record.u3, *b_best])
    jac = _fit_jacobian(x, rows, record)
    names = list(FIT_NAMES)
    if undetermined:
        jac, x[1] = np.delete(jac, 1, axis=1), np.nan
        names.remove("a2z")
    # pinv of the columns scaled to unit norm, unscaled after: J^+ = D^-1 (J D^-1)^+
    # for J of full column rank, D the column norms; a zero column keeps a scale of 1
    norms = np.linalg.norm(jac, axis=0)
    norms[norms == 0] = 1.0
    sigmas = (math.sqrt(ssr / (len(jac) - len(names)))
              * np.linalg.norm(np.linalg.pinv(jac / norms), axis=1) / norms)
    values = x.tolist()
    values.insert(3, 1.0)  # a2x
    params = dict(zip(PARAM_NAMES, values))
    return FitResult(params=params, uncertainties=dict(zip(names, sigmas.tolist())),
                     residual_norm=float(np.sqrt(ssr)),
                     evaluations=sum(run[2]["nfev"] for run in runs), converged=1 <= ier <= 4)


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
    the largest value on the sweep ``np.logspace(2, -12, 29)`` whose misfit
    stays within the estimated noise floor times sqrt(n) (discrepancy
    principle), and 0 when none does; the floor is the mean sigma, or without
    sigmas a robust estimate from the second differences.
    """
    from scipy.optimize import nnls

    t_min, t_max, points = grid_spec
    if not (t_min > 0 and t_max > t_min and points >= 2):
        raise ValueError(f"bad grid spec {grid_spec}")
    if alpha is not None and alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha is not None and not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
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
