"""Relaxation superoperator blocks per coherence order and their eigensystems.

The generator acts on density-matrix elements rho_{q+n, n} (coherence order
q >= 0, basis |q+n><n| ordered by n) as

    d rho / dt = C * J(q) * rho_vec,

where J(q) is the (8-q)-dimensional block of the double commutator
-42 sum_p (-1)^p J_p [Q_p, [Q_{-p}, . ]] with Q_p = T(2, -p), the unit-norm
rank-2 tensors; with the paper's normalisation of C the q = 7 block is then
-21 J1 - 7 J2.  The block is linear in (J0, J1, J2), so the double
commutator runs once per unit density, on all 64 basis elements at once, and
every block is the weighted sum of its cached rows and columns
(coefficient_matrices).  Relaxation rates are R_p = -C * lambda_p.

A mode decomposition is stored as (w, w_bar) with J(q) = w_bar diag(lambda) w
and w w_bar = identity: the columns of w_bar are right eigenvectors, so that
element trajectories follow  rho(t) = w_bar exp(lambda C t) w rho(0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .phys_params import QuadrupolarConstant, SpectralDensities
from .spin_algebra import SpinSystem, make_quadrupole_operators

#: relative threshold below which an eigenvalue is treated as the exact zero mode
_ZERO_MODE_RTOL = 1e-12
#: the paper's normalisation of C: the blocks are 42 times the double commutator of the
#: unit-norm T(2, p), so that the q = 7 block is -21 J1 - 7 J2 (test_q7_normalization)
_DOUBLE_COMMUTATOR_SCALE = 42.0


class DegenerateSpectrumError(ValueError):
    """A closed form does not apply at these J; use numeric_eigensystem.

    Raised by analytic_eigensystem where a denominator of an eigenvalue or w_bar
    formula is within 1e-12 of zero (the q = 5 a1/b1 denominator, q = 4 J1 - J2,
    a q = 2 or 3 Cartesian vector's norm, a zero cubic root), where the q = 2 or
    3 companion roots come out complex, or where |det w_bar|, the product of |det E|
    and of its sector blocks' determinants, is <= 1e-12 (q = 2..5)."""


@dataclass(frozen=True)
class CoherenceBlock:
    """Evaluated relaxation matrix for one coherence order (dimension 8 - q)."""

    q: int
    matrix: np.ndarray


@dataclass(frozen=True)
class BlockEigensystem:
    """Mode decomposition of a coherence block.

    eigenvalues are the dimensionless-in-C lambda_p (units of seconds, being
    linear in the spectral densities); rates = -C lambda_p in Hz when a
    quadrupolar constant was supplied, else -lambda_p.  Modes are ordered by
    ascending rate; numeric construction fixes each w_bar column's sign so its
    first component of significant magnitude is positive, analytic
    construction keeps the published closed-form signs.
    """

    q: int
    eigenvalues: np.ndarray
    w: np.ndarray
    w_bar: np.ndarray
    rates: np.ndarray


def _double_commutator(quads, weights: tuple[float, float, float]) -> np.ndarray:
    """Unnormalized -sum_p (-1)^p weights[|p|] [Q_p, [Q_{-p}, . ]] on vectorized density
    matrices (basis |a><b|, index a*d+b), applied to all d^2 basis elements at once.
    A p of weight 0 is skipped: its term is all zeros."""
    d = quads[0].shape[0]
    basis = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    acc = np.zeros((d * d, d, d), dtype=complex)
    for p in (-2, -1, 0, 1, 2):
        if weights[abs(p)] == 0:
            continue
        inner = quads[-p] @ basis - basis @ quads[-p]
        acc -= (-1) ** p * weights[abs(p)] * (quads[p] @ inner - inner @ quads[p])
    return acc.real.reshape(d * d, d * d).T


@lru_cache(maxsize=1)
def _unit_double_commutators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_double_commutator of the spin-7/2 quadrupole operators at unit J0, J1 and J2."""
    quads = make_quadrupole_operators(SpinSystem(7))
    return tuple(_double_commutator(quads, pick) for pick in np.eye(3))


@lru_cache(maxsize=None)
def coefficient_matrices(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-density coefficient matrices (A0, A1, A2) with block = sum_k J_k A_k.

    Exact (the unit-density double commutators restricted to the rho_{q+n, n},
    index 8q + 9n) and cached; every block is built from them.  The matrices are
    read-only.
    """
    if not 0 <= q <= 7:
        raise ValueError(f"coherence order q={q} outside 0..7")
    rows = 8 * q + 9 * np.arange(8 - q)
    mats = tuple(_DOUBLE_COMMUTATOR_SCALE * unit[np.ix_(rows, rows)]
                 for unit in _unit_double_commutators())
    for m in mats:
        m.flags.writeable = False
    return mats


def evaluate_block(q: int, weights: tuple[float, float, float]) -> np.ndarray:
    """block-shaped matrix sum_k weights[k] * A_k; weights may be J's or B's."""
    a0, a1, a2 = coefficient_matrices(q)
    return weights[0] * a0 + weights[1] * a1 + weights[2] * a2


def assemble_block(q: int, j: SpectralDensities) -> CoherenceBlock:
    """The order-q relaxation block at the given spectral densities."""
    return CoherenceBlock(q=q, matrix=evaluate_block(q, j.as_tuple()))


def liouville_superoperator(quads, j: SpectralDensities) -> np.ndarray:
    """Full d^2 x d^2 action on vectorized density matrices (basis |a><b|, index a*d+b):
    42 times the double commutator that coefficient_matrices restricts, of the
    {p: Q_p} map quads that make_quadrupole_operators returns.

    Intended for structural checks; the per-order blocks are what production
    paths use.
    """
    return _DOUBLE_COMMUTATOR_SCALE * _double_commutator(quads, j.as_tuple())


def _rate_rule(c: QuadrupolarConstant | None, top: float) -> tuple[float, float]:
    """(-C, or -1 without a constant, and the zero-mode cut) of an order whose largest
    |lambda| is top; raises OverflowError where C top exceeds the largest float."""
    scale = -c.c if c is not None else -1.0
    if top * -scale > sys.float_info.max:  # on Python floats, so inf and no warning
        raise OverflowError(f"relaxation rates overflow: C = {-scale:g} Hz^2 times "
                            f"|lambda| = {top:g} s exceeds the largest float")
    return scale, _ZERO_MODE_RTOL * top


def _rates_from_eigenvalues(lam: np.ndarray, c: QuadrupolarConstant | None) -> np.ndarray:
    """-C lam, with an eigenvalue within _ZERO_MODE_RTOL of the largest |lam| set to 0."""
    mag = np.abs(lam)
    scale, cut = _rate_rule(c, float(mag.max()))
    rates = scale * lam
    rates[mag < cut] = 0.0
    return rates


# ---------------------------------------------------------------------------
# reversal-parity sectors and numeric eigensystems
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def sector_table() -> tuple:
    """The read-only reversal-parity sectors of q = 0..7 (README, "Reversal-parity
    sectors"): sector_table()[q] is ((P_e, P_e^T A_k P_e), (P_o, P_o^T A_k P_o)).
    Built on the first call; raises RuntimeError if some P_e^T A_k P_o is not 0."""
    sectors = []
    for q in range(8):
        dim, coefs, pair = 8 - q, coefficient_matrices(q), []
        for sign, k in ((1.0, (dim + 1) // 2), (-1.0, dim // 2)):
            p = (np.eye(dim) + sign * np.eye(dim)[::-1])[:, :k]
            pair.append(p / np.linalg.norm(p, axis=0))
        coupling = max(np.abs(pair[0].T @ a @ pair[1]).max(initial=0.0) for a in coefs)
        if not coupling <= 1e-12 * max(1.0, *(np.abs(a).max() for a in coefs)):
            raise RuntimeError(f"the q={q} A_k couple the sectors ({coupling:.2e})")
        mats = [np.stack([p.T @ a @ p for a in coefs]) for p in pair]
        sectors.append(tuple((p, (m + m.transpose(0, 2, 1)) / 2) for p, m in zip(pair, mats)))
    for arr in (a for pair in sectors for sector in pair for a in sector):
        arr.flags.writeable = False
    return tuple(sectors)


class _SectorPlan(NamedTuple):
    stacks: tuple    # per sector size, largest first: the (n, s, s, 3) P^T A_k P
    members: tuple   # per stack, the (q, P) of each of its n sectors
    labels: np.ndarray  # the order of each eigenvalue of the stacks, in stack order
    spans: dict      # {q: (start, stop)} among those eigenvalues once sorted by order


@lru_cache(maxsize=256)
def _mode_groups(orders: tuple) -> _SectorPlan:
    """The orders' sectors stacked by size, built once per tuple of orders and
    read-only; sector_spectra and sector_modes solve from it."""
    sectors = sector_table()
    # largest first, so that each order lists its even sector before its odd one
    groups = [[(q, p, mats) for q in orders for p, mats in sectors[q] if p.shape[1] == size]
              for size in (4, 3, 2, 1)]
    groups = [g for g in groups if g]
    stacks = tuple(np.stack([mats.transpose(1, 2, 0) for _, _, mats in g]) for g in groups)
    labels = np.array([q for g in groups for q, p, _ in g for _ in range(p.shape[1])])
    for arr in (*stacks, labels):
        arr.flags.writeable = False
    return _SectorPlan(stacks, tuple(tuple((q, p) for q, p, _ in g) for g in groups), labels,
                       {q: (int(np.sum(labels < q)), int(np.sum(labels <= q))) for q in orders})


def sector_spectra(weights: tuple[float, float, float], orders) -> dict:
    """{q: eigenvalues} of the blocks of the orders at the weights (J's or B's), each
    order's descending, from one eigvalsh call per sector size over just those orders'
    sectors, and no eigenvectors.  A sector's values do not depend on which other
    sectors share its stack, so every order's spectrum is the one the all-orders call
    gives."""
    plan = _mode_groups(tuple(orders))
    w = np.array(weights, dtype=float)
    lam = np.concatenate([(np.linalg.eigvalsh(m) if m.shape[-1] > 1 else m[..., 0]).ravel()
                          for m in (stack @ w for stack in plan.stacks)])
    lam = lam[np.lexsort((-lam, plan.labels))]
    return {q: lam[a:b] for q, (a, b) in plan.spans.items()}


def sector_modes(orders, weights: tuple[float, float, float]) -> dict:
    """{q: (lam, u)} for each order q in orders, with block(q) = u diag(lam) u^T at the
    weights (J's or B's) and u = [P_e V_e | P_o V_o]: one eigh call per sector size over
    just those orders' sectors.  The modes of an order are its even sector's and then
    its odd sector's, each ascending, with eigh's signs; the arrays are read-only."""
    plan = _mode_groups(tuple(orders))
    parts = {q: [] for q in orders}
    for a, members in zip(plan.stacks, plan.members):
        # elementwise, as evaluate_block, so that a sector's matrix does not depend on
        # which other sectors share its stack
        m = weights[0] * a[..., 0] + weights[1] * a[..., 1] + weights[2] * a[..., 2]
        lam, vec = np.linalg.eigh(m) if m.shape[-1] > 1 else (m[..., 0], np.ones_like(m))
        for (q, p), lam_s, vec_s in zip(members, lam, vec):
            parts[q].append((lam_s, p @ vec_s))
    modes = {}
    for q, pair in parts.items():
        lam, u = np.concatenate([lam for lam, _ in pair]), np.hstack([u for _, u in pair])
        lam.flags.writeable = u.flags.writeable = False
        modes[q] = (lam, u)
    return modes


def numeric_eigensystem(block: CoherenceBlock,
                        c: QuadrupolarConstant | None = None) -> BlockEigensystem:
    """Eigendecomposition of a symmetric block with the canonical ordering and signs.

    Every assembled block is real symmetric, so the symmetric solver applies
    and w = w_bar^T; a block whose asymmetry, or whose even-odd coupling
    P_e^T m P_o (see sector_table), exceeds 1e-12 of its largest entry (a
    defective matrix among them) raises np.linalg.LinAlgError.  Each sector is
    solved apart, w_bar = [P_e V_e | P_o V_o], and each w_bar column's first
    component of significant magnitude is made positive.
    Ordering is by descending eigenvalue (ascending rate); degenerate pairs are
    ordered lexicographically by their sign-fixed eigenvectors.  Without a
    quadrupolar constant the rates are -lambda (the C = 1 convention, handy
    when the block was evaluated directly at the rate scales B_k = C J_k).
    """
    m = block.matrix
    tol = 1e-12 * max(1.0, np.abs(m).max())
    asymmetry = np.abs(m - m.T).max()
    if not asymmetry <= tol:
        raise np.linalg.LinAlgError(
            f"block for q={block.q} is not symmetric (max |m - m^T| = {asymmetry:.2e})")
    (p_even, _), (p_odd, _) = sector_table()[block.q]
    k, p = p_even.shape[1], np.hstack([p_even, p_odd])
    r = p.T @ m @ p
    if not np.abs(r[:k, k:]).max(initial=0.0) <= tol:
        raise np.linalg.LinAlgError(f"block for q={block.q} couples the even and odd sectors "
                                    f"(max |P_e^T m P_o| = {np.abs(r[:k, k:]).max():.2e})")
    (lam_e, v_e), (lam_o, v_o) = np.linalg.eigh(r[:k, :k]), np.linalg.eigh(r[k:, k:])
    lam, vec = np.concatenate([lam_e, lam_o]), np.hstack([p_even @ v_e, p_odd @ v_o])
    mag = np.abs(vec)
    lead = np.argmax(mag > 1e-8 * mag.max(axis=0), axis=0)
    vec = vec * np.where(vec[lead, np.arange(lam.size)] < 0, -1.0, 1.0)
    order = np.lexsort((*vec[::-1], -lam))
    lam, w_bar = lam[order], vec[:, order]
    rates = _rates_from_eigenvalues(lam, c)
    for arr in (lam, w_bar, rates):
        arr.flags.writeable = False
    return BlockEigensystem(q=block.q, eigenvalues=lam, w=w_bar.T, w_bar=w_bar, rates=rates)


# ---------------------------------------------------------------------------
# closed forms (orders 2..7)
# ---------------------------------------------------------------------------

def _cubic_root(alpha: float, beta: float, gamma: float) -> float:
    """One real root of lambda^3 - alpha lambda^2 + beta lambda - gamma = 0.

    Cardano form as published; complex intermediates are required when all
    three roots are real (the generic case here).
    """
    disc = (alpha ** 3 * gamma / 27 - alpha ** 2 * beta ** 2 / 108
            - alpha * beta * gamma / 6 + beta ** 3 / 27 + gamma ** 2 / 4)
    base = -alpha ** 3 / 27 + beta * alpha / 6 - gamma / 2
    if disc >= 0:
        s = math.sqrt(disc)
        # np.cbrt, not math.cbrt: numpy's own cbrt differs from libm's in the last bits
        return float(alpha / 3 - np.cbrt(base + s) - np.cbrt(base - s))
    # three distinct real roots: the two cube roots are complex conjugates (numpy's
    # complex power, whose last bits differ from Python's complex **)
    z = (base + np.sqrt(complex(disc))) ** (1 / 3.0)
    return alpha / 3 - 2 * float(z.real)


def _companion_roots(alpha: float, beta: float, gamma: float, lam: float) -> tuple[float, float]:
    """The other two roots, given one root lam: iota (with +sqrt) and sigma (-sqrt)."""
    if lam == 0.0:
        raise DegenerateSpectrumError("zero cubic root; companion-root formula divides by it")
    half = -(lam - alpha) / 2
    square = half * half - gamma / lam
    # the real part of the principal complex square root: sqrt(square) above 0, +0 at
    # and below 0, and +nan for a nan
    if square < 0 and math.sqrt(-square) > 1e-8:
        raise DegenerateSpectrumError(
            f"companion roots came out complex: {complex(0.0, math.sqrt(-square))}")
    root = math.sqrt(square) if square > 0 else 0.0 if square <= 0 else math.nan
    return half + root, half - root


def _q3_cubic_coefficients(j0: float, j1: float, j2: float) -> tuple[float, float, float]:
    gamma = (-6804 * j0 ** 2 * j1 - 8748 * j0 ** 2 * j2 - 12573 * j0 * j1 ** 2
             - 35100 * j0 * j1 * j2 - 12303 * j0 * j2 ** 2 - 3653 * j1 ** 3
             - 16002 * j1 ** 2 * j2 - 13947 * j1 * j2 ** 2 - 2870 * j2 ** 3)
    beta = (324 * j0 ** 2 + 1818 * j0 * j1 + 1764 * j0 * j2 + 827 * j1 ** 2
            + 2140 * j1 * j2 + 767 * j2 ** 2)
    alpha = -45 * j0 - 55 * j1 - 58 * j2
    return alpha, beta, gamma


def _q2_cubic_coefficients(j0: float, j1: float, j2: float) -> tuple[tuple, tuple]:
    gamma_a = (-225 * j0 ** 3 - 4764 * j0 ** 2 * j1 - 7753 * j0 ** 2 * j2
               - 13188 * j0 * j1 ** 2 - 37020 * j0 * j1 * j2 - 15783 * j0 * j2 ** 2
               - 6048 * j1 ** 3 - 26292 * j1 ** 2 * j2 - 21552 * j1 * j2 ** 2
               - 4575 * j2 ** 3)
    beta_a = (259 * j0 ** 2 + 1368 * j0 * j1 + 1874 * j0 * j2 + 1092 * j1 ** 2
              + 2940 * j1 * j2 + 1287 * j2 ** 2)
    alpha_a = -35 * j0 - 60 * j1 - 73 * j2
    gamma_b = (-225 * j0 ** 3 - 2514 * j0 ** 2 * j1 - 7753 * j0 ** 2 * j2
               - 6048 * j0 * j1 ** 2 - 29240 * j0 * j1 * j2 - 15783 * j0 * j2 ** 2
               - 2688 * j1 ** 3 - 17472 * j1 ** 2 * j2 - 25702 * j1 * j2 ** 2
               - 4575 * j2 ** 3)
    beta_b = (259 * j0 ** 2 + 1028 * j0 * j1 + 1874 * j0 * j2 + 672 * j1 ** 2
              + 2520 * j1 * j2 + 1287 * j2 ** 2)
    alpha_b = -35 * j0 - 50 * j1 - 73 * j2
    return (alpha_a, beta_a, gamma_a), (alpha_b, beta_b, gamma_b)


def _q5_root(j0: float, j1: float, j2: float) -> float:
    """Square root of the q = 5 discriminant, shared by eigenvalues and eigenvectors.

    The discriminant is (25 J0 - 16 J1 - 5 J2)^2 + 2688 J1^2 >= 0; where round-off
    takes it below zero (J2 near 5 J0 with J1 << J0), the root is 0."""
    return math.sqrt(max(0.0, 625 * j0 ** 2 - 800 * j0 * j1 - 250 * j0 * j2
                         + 2944 * j1 ** 2 + 160 * j1 * j2 + 25 * j2 ** 2))


def _q4_roots(j0: float, j1: float, j2: float) -> tuple[float, float]:
    """Square roots of the two q = 4 discriminants, shared by eigenvalues and eigenvectors."""
    return (math.sqrt(256 * (j0 - j1) ** 2 + 105 * (j1 - j2) ** 2),
            math.sqrt(256 * j0 ** 2 + 105 * (j1 + j2) ** 2))


def analytic_eigenvalues(q: int, j: SpectralDensities) -> list[float]:
    """Closed-form eigenvalues for q in 2..7, as Python floats in the published index order."""
    return _closed_form_values(q, j)[0]


def _closed_form_values(q: int, j: SpectralDensities) -> tuple:
    """(analytic_eigenvalues, the q = 4 (sa, sb) or q = 5 s that w_bar shares, else None)."""
    j0, j1, j2 = map(float, j.as_tuple())
    if q == 7:
        return [-(21 * j1 + 7 * j2)], None
    if q == 6:
        return [-(9 * j0 + 8 * j1 + 11 * j2), -(9 * j0 + 50 * j1 + 11 * j2)], None
    if q == 5:
        s = _q5_root(j0, j1, j2)
        mid = -12.5 * j0 - 29 * j1 - 12.5 * j2
        return [mid - s / 2, -25 * j0 - 21 * j1 - 24 * j2, mid + s / 2], s
    if q == 4:
        sa, sb = _q4_roots(j0, j1, j2)
        return [-20 * j0 - 29 * j1 - 21 * j2 - sa, -20 * j0 - 29 * j1 - 21 * j2 + sa,
                -20 * j0 - 13 * j1 - 21 * j2 - sb, -20 * j0 - 13 * j1 - 21 * j2 + sb], (sa, sb)
    if q == 3:
        alpha, beta, gamma = _q3_cubic_coefficients(j0, j1, j2)
        lam3 = _cubic_root(alpha, beta, gamma)
        iota, sigma = _companion_roots(alpha, beta, gamma, lam3)
        return [iota, -(9 * j0 + 21 * j1 + 40 * j2), lam3,
                -(36 * j0 + 13 * j1 + 21 * j2), sigma], None
    if q == 2:
        set_a, set_b = _q2_cubic_coefficients(j0, j1, j2)
        lam2 = _cubic_root(*set_a)
        iota_a, sigma_a = _companion_roots(*set_a, lam2)
        lam4 = _cubic_root(*set_b)
        iota_b, sigma_b = _companion_roots(*set_b, lam4)
        return [iota_a, lam2, iota_b, lam4, sigma_a, sigma_b], None
    raise ValueError(f"no closed-form eigenvalues for q={q} (only 2..7)")


def _degenerate_guard(value: float, what: str, scale: float = 1.0) -> None:
    if abs(value) <= 1e-12 * abs(scale):
        raise DegenerateSpectrumError(f"{what} within 1e-12 of zero; fall back to numeric_eigensystem")


@lru_cache(maxsize=None)
def _constant_transformation(q: int) -> tuple[np.ndarray, np.ndarray]:
    """The published (w_bar, w = inv(w_bar)) of q = 6 or 7, which do not depend on J,
    as read-only arrays.  They are already in ascending-rate order: the q = 6
    eigenvalues differ by 42 J1 > 0, and a tie keeps the published order."""
    w_bar = np.array([[1.0]]) if q == 7 else np.array([[-1.0, 1.0], [1.0, 1.0]]) / math.sqrt(2)
    w = np.linalg.inv(w_bar)
    w_bar.flags.writeable = w.flags.writeable = False
    return w_bar, w


#: the published modes of each reversal-parity sector of q = 2..5, even first
_SECTORS = {2: ((0, 1, 4), (2, 3, 5)), 3: ((0, 2, 4), (1,), (3,)), 4: ((0, 1), (2, 3)), 5: ((0, 2), (1,))}


def _sector_blocks(q: int, j: SpectralDensities, lam: list, roots) -> list:
    """Per _SECTORS[q], the block X_s of w_bar = E blockdiag(X_s) (E = _constant_basis(q))
    as its modes' columns; lam and roots are _closed_form_values(q, j)."""
    j0, j1, j2 = map(float, j.as_tuple())
    sq = math.sqrt  # every argument is positive; as exact as np.sqrt and faster on scalars
    if q == 5:
        den = 10 * sq(42) * (-5 * j0 + 4 * j1 + j2)
        _degenerate_guard(den, "q=5 a1/b1 denominator", scale=j0)
        num = 25 * j0 + 656 * j1 - 5 * j2
        return [[[(sq(7) + sq(6) * a) / n / sq(26), (sq(12) - sq(14) * a) / n / sq(26)]
                 for a in ((num + 13 * s) / den for s in (-roots, roots))
                 for n in (sq(a ** 2 + 1),)], [[-sq(13) / sq(26)]]]
    if q == 4:
        _degenerate_guard(j1 - j2, "q=4 (J1 - J2)", scale=j1)
        even = [(16 * j0 - 16 * j1 + s) / (sq(105) * (j1 - j2)) for s in (roots[0], -roots[0])]
        odd = [(-16 * j0 + s) / (sq(105) * (j1 + j2)) for s in (roots[1], -roots[1])]
        return [[[a / n / sq(2), 1 / n / sq(2)] for a in even for n in (sq(a ** 2 + 1),)],
                [[-1 / n / sq(2), -a / n / sq(2)] for a in odd for n in (sq(a ** 2 + 1),)]]
    if q == 3:  # xi_1, xi_3, xi_4, xi_5
        xi = (-12 * j0 - 29 * j1 - 9 * j2, (-90 * j0 - 113 * j1 - 161 * j2) / 13,
              sq(208 / 11) * (-3 * j0 + 2 * j1 + j2), -sq(210 / 1859) * (27 * j0 + 4 * j1 - 31 * j2))
        return [_cartesian_vectors([lam[0], lam[2], lam[4]], xi, True), [[1.0]], [[1.0]]]
    # xi_1, xi_2, xi_4, xi_5 of the sets a (even) and b (odd)
    xi_a = (-(107 * j0 + 294 * j1 + 369 * j2) / 11, -(55 * j0 + 102 * j1 + 39 * j2) / 7,
            -56 / 11 * sq(2) * (j0 + j1 - 2 * j2), -4 / 7 * sq(55) * (2 * j0 - j1 - j2))
    xi_b = (-(51 * j0 + 32 * j1 + 67 * j2) / 3, -(45 * j0 + 168 * j1 + 151 * j2) / 13,
            -4 / 33 * sq(143) * (6 * j0 + j1 - 7 * j2), -24 / 143 * sq(770) * (j0 + 2 * j1 - 3 * j2))
    return [_cartesian_vectors([lam[0], lam[1], lam[4]], xi_a, False),
            _cartesian_vectors([lam[2], lam[3], lam[5]], xi_b, False)]


def _cartesian_vectors(lams: list, xi: tuple, q3: bool) -> list:
    """Published eigenvector patterns of a symmetric-subspace 3x3 system, as unit vectors."""
    xi1, mid, xi4, xi5 = xi
    vectors = []
    for lam in lams:
        a, b = lam - xi1, lam - mid
        v = (xi4 * b, a * b, xi5 * a) if q3 else (xi4 * b, xi5 * a, a * b)
        norm = math.hypot(*v)
        # components are products of two rate-scale quantities; guard relative to that
        _degenerate_guard(norm, "cartesian-parameter normalization",
                          scale=(abs(a) + abs(b) + abs(xi4) + abs(xi5)) ** 2)
        vectors.append([u / norm for u in v])
    return vectors


def _cofactors(cols: list) -> tuple[float, list]:
    """(det X, det X times X^-1 by rows) of the 1x1, 2x2 or 3x3 block X with columns cols."""
    if len(cols) == 1:
        return cols[0][0], [[1.0]]
    if len(cols) == 2:
        (a0, a1), (b0, b1) = cols
        return a0 * b1 - a1 * b0, [[b1, -b0], [-a1, a0]]
    a, b, c = cols  # row k of the cofactors is the cross product of the other two columns
    cof = [[y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0]
           for (y0, y1, y2), (z0, z1, z2) in ((b, c), (c, a), (a, b))]
    return a[0] * cof[0][0] + a[1] * cof[0][1] + a[2] * cof[0][2], cof


def _constant_basis(q: int) -> np.ndarray:
    """E, its columns spanning the _SECTORS[q] in turn: the published bases of q = 2, 3
    and the parity vectors of q = 4, 5; row dim-1-n is row n, odd columns negated."""
    sq = np.sqrt
    if q == 2:
        top = [[sq(5 / 66), 1 / sq(12), sq(15) / sq(44), -sq(35) / sq(132), -sq(3 / 286), -sq(35) / sq(156)],
               [-sq(21 / 66), sq(15) / sq(84), 1 / sq(308), -3 * sq(3) / sq(132), sq(35 / 286), 3 * sq(3) / sq(156)],
               [sq(7 / 66), 2 * sq(5) / sq(84), -4 * sq(3) / sq(308), -2 / sq(132), -sq(105 / 286), 4 / sq(156)]]
    elif q == 3:
        top = [[sq(462) / 66, sq(546) / 39, sq(715) / 143, 0.0, -1 / sq(2)],
               [sq(264) / 33, -sq(78) / 78, -sq(5005) / 143, -1 / sq(2), 0.0],
               [sq(330) / 33, -sq(390) / 39, sq(9009) / 143, 0.0, 0.0]]
    else:
        top = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]] if q == 4 else [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    top, even = np.array(top), len(_SECTORS[q][0])
    mirror = np.hstack([top[:, :even], 0.0 - top[:, even:]])  # 0.0 - x: no -0.0
    return np.vstack([top, mirror[(8 - q) // 2 - 1::-1]])


@lru_cache(maxsize=None)
def _sector_basis(q: int) -> tuple[np.ndarray, float]:
    """The read-only stack (E^T, E^+) of E = _constant_basis(q), and |det E|, built once;
    raises RuntimeError unless E^+ E = I to 1e-14."""
    e = _constant_basis(q)
    d2 = np.rint(np.sum(e * e, axis=0))  # 1 for the published bases, 2 or 1 for the parity vectors
    stack = np.stack([e.T, e.T / d2[:, None]])
    error = np.abs(stack[1] @ e - np.eye(len(e))).max()
    if not error <= 1e-14:
        raise RuntimeError(f"the q={q} closed-form basis is not orthogonal ({error:.2e})")
    stack.flags.writeable = False
    return stack, math.sqrt(math.prod(d2))


def analytic_eigensystem(q: int, j: SpectralDensities,
                         c: QuadrupolarConstant | None = None) -> BlockEigensystem:
    """Closed-form eigensystem for q in 2..7 with modes reordered by ascending rate.

    w_bar is the published closed form, with its published signs: for q = 2..5 a
    constant basis E times one block X_s of at most 3x3 per parity sector, with
    w = blockdiag(X_s^-1) E^+ by cofactors; for q = 6 and 7 read-only constants.  The
    w_bar columns are unit vectors, so |det w_bar| = |det E| prod |det X_s| <= 1e-12
    (coinciding modes) raises DegenerateSpectrumError, as does a vanishing denominator.
    Without a quadrupolar constant the rates are -lambda (the C = 1 convention).
    """
    values, roots = _closed_form_values(q, j)
    if q >= 6:
        w_bar, w = _constant_transformation(q)
    else:
        stack, det_e = _sector_basis(q)
        blocks = _sector_blocks(q, j, values, roots)
        inverses = [_cofactors(cols) for cols in blocks]
        _degenerate_guard(det_e * math.prod(det for det, _ in inverses), "transformation determinant")
        n, start, cols, rows = len(values), 0, {}, {}
        for modes, block, (det, cof) in zip(_SECTORS[q], blocks, inverses):
            pre, post = [0.0] * start, [0.0] * (n - start - len(block))
            start += len(block)
            for k, col, row in zip(modes, block, cof):  # in E's coordinates
                cols[k], rows[k] = pre + col + post, pre + [y / det for y in row] + post
        order = sorted(range(n), key=values.__getitem__, reverse=True)  # stable
        values = [values[k] for k in order]
        # one matmul gives w_bar^T = X^T E^T and w = X^-1 E^+, modes in descending order
        flat = chain.from_iterable([cols[k] for k in order] + [rows[k] for k in order])
        w_bar_t, w = np.fromiter(flat, float, 2 * n * n).reshape(2, n, n) @ stack
        w_bar = w_bar_t.T
    # _rates_from_eigenvalues on Python floats: the same rule, products and threshold
    scale, cut = _rate_rule(c, max(map(abs, values)))
    return BlockEigensystem(q=q, eigenvalues=np.array(values), w=w, w_bar=w_bar,
                            rates=np.array([0.0 if abs(v) < cut else scale * v for v in values]))


# ---------------------------------------------------------------------------
# conformance against the published tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableValidationReport:
    """Deviations between assembled blocks and the reference-table fixture at one J triple."""

    q0_max_rel: float
    q1_max_rel: float
    spectra_max_rel: tuple          # (q, rel_dev) pairs for q = 2..7
    printed_variant_max_abs: float  # distance of the five as-published q=1 cells

    @property
    def max_relative_deviation(self) -> float:
        return max(self.q0_max_rel, self.q1_max_rel, max(d for _, d in self.spectra_max_rel))


def validate_against_reference_tables(j: SpectralDensities) -> TableValidationReport:
    """Compare assembled blocks with the fixture tables and closed-form spectra.

    The q = 0 and q = 1 blocks are conjugated into the published intermediate
    basis (the constant transformations U, U-bar) before entrywise comparison;
    orders 2..7 are compared through their sorted spectra, all from one sector_spectra,
    which solves only the sector sizes that hold them.
    """
    from ._tables import load_reference_tables

    tables = load_reference_tables()
    t0, t1 = tables.j0_block.evaluate(j), tables.j1_block.evaluate(j)
    d0 = np.abs(tables.u0 @ evaluate_block(0, j.as_tuple()) @ tables.u0_bar - t0)
    basis1 = tables.u1 @ evaluate_block(1, j.as_tuple()) @ tables.u1_bar
    d1 = np.abs(basis1 - t1)
    cells = tables.printed_j1_variants.cells
    printed_dev = np.abs(basis1[cells] - tables.printed_j1_variants.evaluate(j)[cells]).max()

    spectra, numeric = [], sector_spectra(j.as_tuple(), range(2, 8))
    for q in range(2, 8):
        lam_num, lam_ana = sorted(numeric[q].tolist()), sorted(analytic_eigenvalues(q, j))
        dev = max(abs(a - b) for a, b in zip(lam_num, lam_ana)) / max(map(abs, lam_num))
        spectra.append((q, dev))

    return TableValidationReport(
        q0_max_rel=float(d0.max() / np.abs(t0).max()), q1_max_rel=float(d1.max() / np.abs(t1).max()),
        spectra_max_rel=tuple(spectra), printed_variant_max_abs=float(printed_dev),
    )
