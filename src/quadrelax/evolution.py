"""Multiexponential evolution of density-matrix elements and magnetization synthesis.

Element trajectories follow the per-order mode sum

    rho_{q+n, n}(t) = rho_eq_{q+n, n} + sum_p w_bar[n, p] exp(-R_p t) amp_p,
    amp_p           = sum_n w[p, n] (rho - rho_eq)_{q+n, n}(0),

i.e. the deviation from the supplied equilibrium is decomposed into modes,
each decaying at its own rate, and the equilibrium is added back.  For
coherence orders q >= 1 a diagonal equilibrium contributes nothing and the
deviation equals the raw elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .phys_params import QuadrupolarConstant, SpectralDensities
from .redfield_core import BlockEigensystem, _rates_from_eigenvalues, sector_modes
# propagate no longer calls it; bench/test_bench_stats.py still expects the tracer to
# patch this name in evolution's namespace, so it stays imported until the benchmark changes
from .redfield_core import numeric_eigensystem  # noqa: F401
from .spin_algebra import make_spin_operators

_HERM_TOL = 1e-12


@dataclass(frozen=True)
class DensityState:
    """8x8 Hermitian density matrix in the Zeeman basis (descending m).

    Element (q, n) of coherence order q sits at matrix[q + n, n] for
    n = 0..7-q (zero-based; the adjoint element is its conjugate).
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > _HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian within 1e-12")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def coherence_vector(self, q: int) -> np.ndarray:
        """Elements rho_{q+n, n} for n = 0..dim-1-q."""
        d = self.dim
        if not 0 <= q < d:
            raise ValueError(f"coherence order q={q} outside 0..{d - 1}")
        return np.array([self.matrix[q + n, n] for n in range(d - q)])

    # -- common preparations -------------------------------------------------
    @classmethod
    def pure_top(cls, dim: int = 8) -> "DensityState":
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = 1.0
        return cls(m)

    @classmethod
    def uniform(cls, dim: int = 8) -> "DensityState":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def noon(cls, dim: int = 8) -> "DensityState":
        """Equal superposition of the extreme Zeeman states: corner populations
        and the two highest-order coherences at 0.5."""
        m = np.zeros((dim, dim), dtype=complex)
        m[0, 0] = m[-1, -1] = m[0, -1] = m[-1, 0] = 0.5
        return cls(m)


@dataclass(frozen=True)
class MagnetizationModel:
    """Mode description of a normalized magnetization decay signal.

    signal(t) = scale * (equilibrium_term + sum_n amplitudes[n] exp(-rates[n] t))

    scale is the data-normalization factor; the pulse efficiency is absorbed
    into the amplitudes at construction.  The
    longitudinal flavour has 8 modes, one with zero rate; the transverse
    flavour has 7 and no equilibrium term.
    """

    scale: float
    amplitudes: np.ndarray
    equilibrium_term: float
    rates: np.ndarray

    def evaluate(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        decay = np.exp(-np.outer(times, self.rates)) @ self.amplitudes
        return self.scale * (self.equilibrium_term + decay)


def propagate(rho0: DensityState, rho_eq: DensityState, j: SpectralDensities,
              c: QuadrupolarConstant, times, elements) -> np.ndarray:
    """Trajectories of the zero-based (row, col) ``elements`` over sorted times, as a
    (T, len(elements)) complex array.

    Only the coherence orders |row - col| that the elements lie in are solved, all
    at once from their reversal-parity sectors (sector_modes), and only the requested
    elements are synthesised: element n of order q is
    eq[n] + sum_m u[n, m] exp(-R_m t) (u^T dev)_m, and at t = 0, where the propagator
    is the identity, exactly rho0's element.  An element on or below the diagonal is
    column ``col`` of its order; one above it is the conjugate of its mirror (the
    negative-order blocks are identical real matrices, so this loses nothing).
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if np.any(np.diff(times) < 0):
        raise ValueError("times must be sorted ascending")
    if rho0.dim != 8 or rho_eq.dim != 8:
        raise ValueError(f"spin 7/2 needs 8x8 density matrices, got {rho0.dim}x{rho0.dim} "
                         f"and {rho_eq.dim}x{rho_eq.dim}")
    for row, col in elements:
        if not (0 <= row < 8 and 0 <= col < 8):
            raise ValueError(f"element ({row}, {col}) outside 0..7")
    if times[0] < 0:
        raise ValueError(f"elapsed time must be non-negative, got {float(times[0])}")
    at_zero = np.searchsorted(times, 0.0, side="right")
    by_order = {}
    for k, (row, col) in enumerate(elements):
        by_order.setdefault(abs(row - col), []).append(k)
    modes = sector_modes(sorted(by_order), j.as_tuple())
    out = np.empty((times.size, len(elements)), dtype=complex)
    for q, ks in by_order.items():
        lam, u = modes[q]
        start, eq = rho0.coherence_vector(q), rho_eq.coherence_vector(q)
        decay = np.exp(-_rates_from_eigenvalues(lam, c) * times[:, None]) * ((start - eq) @ u)
        for k in ks:
            row, col = elements[k]
            n = min(row, col)
            vals = eq[n] + decay @ u[n]
            vals[:at_zero] = start[n]
            out[:, k] = vals if row >= col else vals.conj()
    return out


# -- magnetization models ----------------------------------------------------

@lru_cache(maxsize=1)
def longitudinal_observable() -> np.ndarray:
    """<Iz> over the q = 0 elements: the diagonal of Iz (descending m); read-only."""
    iz = np.diag(make_spin_operators(7).iz).real
    iz.flags.writeable = False
    return iz


@lru_cache(maxsize=1)
def transverse_observable() -> tuple[np.ndarray, np.ndarray]:
    """(weights, elements) of Ix over the q = 1 elements rho_{n+1, n}; read-only.

    <Ix> = weights . rho_q1 (the conjugate elements double it), and the
    elements are Ix's own, the unit transverse preparation.
    """
    ix = make_spin_operators(7).ix.real
    n = np.arange(7)
    weights, elements = 2 * ix[n, n + 1], ix[n + 1, n]
    for arr in (weights, elements):
        arr.flags.writeable = False
    return weights, elements


def _mode_amplitudes_for_observable(eigensystem: BlockEigensystem, weights: np.ndarray,
                                    dev: np.ndarray) -> np.ndarray:
    """Per-mode amplitude A_n = (w dev)_n * sum_k weights_k w_bar[k, n]."""
    return (eigensystem.w @ dev) * (weights @ eigensystem.w_bar)


def build_longitudinal_model(eigensystem: BlockEigensystem, scale: float,
                             prep_efficiency: float) -> MagnetizationModel:
    """Longitudinal (<Iz>) model from the q = 0 eigensystem.

    The preparation is the inverted equilibrium, -prep_efficiency * Iz, and the
    equilibrium deviation is +Iz (both in the traceless high-temperature
    convention; the overall polarization sits in ``scale``).
    """
    if eigensystem.q != 0:
        raise ValueError("longitudinal model requires the q=0 eigensystem")
    iz = longitudinal_observable()
    dev = -prep_efficiency * iz - iz
    amps = _mode_amplitudes_for_observable(eigensystem, iz, dev)
    return MagnetizationModel(scale=scale, amplitudes=amps, equilibrium_term=float(iz @ iz),
                              rates=eigensystem.rates)


def build_transverse_model(eigensystem: BlockEigensystem, scale: float,
                           prep_efficiency: float) -> MagnetizationModel:
    """Transverse (<Ix>) model from the q = 1 eigensystem; preparation is
    prep_efficiency * Ix and there is no equilibrium term."""
    if eigensystem.q != 1:
        raise ValueError("transverse model requires the q=1 eigensystem")
    weights, elements = transverse_observable()
    amps = _mode_amplitudes_for_observable(eigensystem, weights, prep_efficiency * elements)
    return MagnetizationModel(scale=scale, amplitudes=amps, equilibrium_term=0.0,
                              rates=eigensystem.rates)
