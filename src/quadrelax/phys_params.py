"""Physical inputs: spectral densities and the quadrupolar rate constant.

Units follow the source conventions: spectral densities J_p in seconds,
the quadrupolar constant C in Hz^2, and the fit scales B_k = C * J_k in Hz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralDensities:
    """Values of J(p * omega_0) at p = 0, 1, 2, in seconds."""

    j0: float
    j1: float
    j2: float

    def __post_init__(self):
        if not (self.j0 > 0 and self.j1 > 0 and self.j2 > 0):
            raise ValueError(f"spectral densities must be strictly positive, got {self}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.j0, self.j1, self.j2)


@dataclass(frozen=True)
class QuadrupolarConstant:
    """Overall relaxation rate scale C in Hz^2."""

    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"quadrupolar constant must be positive, got {self.c}")


def lorentzian_spectral_densities(larmor_freq: float, correlation_time: float) -> SpectralDensities:
    """Isotropic-motion spectral densities J_p = 2 tau_c / (1 + (p omega_0 tau_c)^2).

    larmor_freq is in Hz (omega_0 = 2 pi larmor_freq); correlation_time in
    seconds.  In the extreme narrowing limit all three values approach 2 tau_c.
    """
    if larmor_freq <= 0 or correlation_time <= 0:
        raise ValueError("larmor_freq and correlation_time must be positive")
    w0 = 2 * np.pi * larmor_freq
    vals = [2 * correlation_time / (1 + (p * w0 * correlation_time) ** 2) for p in (0, 1, 2)]
    return SpectralDensities(*vals)


def quadrupolar_constant_simplified(quad_freq: float) -> QuadrupolarConstant:
    """C = (2 pi nu_Q)^2 / 10: (9/10) (eQ Vzz / hbar)^2 (1 + eta^2/3) / (2I(2I-1))^2
    at I = 7/2 and eta = 0, with eQ Vzz / hbar = 2 pi * 14 nu_Q."""
    if quad_freq <= 0:
        raise ValueError(f"quadrupolar frequency must be positive, got {quad_freq}")
    return QuadrupolarConstant((2 * np.pi * quad_freq) ** 2 / 10)


def densities_from_fit(scales: tuple[float, float, float],
                       c: QuadrupolarConstant) -> SpectralDensities:
    """Invert B_k = C * J_k for the rate scales (b0, b1, b2)."""
    b0, b1, b2 = scales
    return SpectralDensities(b0 / c.c, b1 / c.c, b2 / c.c)
