"""Angular-momentum, irreducible tensor, and quadrupole operators for half-integer spins.

All operators are dense complex matrices in the Zeeman basis ordered by
descending magnetic quantum number, |I>, |I-1>, ..., |-I>.  The rank-1
tensor convention is fixed so that

    Iz = sqrt(42) * T(1, 0)        and
    Ix = (sqrt(84)/2) * (T(1,-1) - T(1,+1))

hold exactly for spin 7/2, which pins the phases to T(l, l) proportional
to (-1)**l * Iplus**l with unit Frobenius norm.  Under this convention
the conjugation rule is T(l, m)^dagger = (-1)**m * T(l, -m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class SpinSystem:
    """Spin quantum number stored as twice its value (two_i = 7 for I = 7/2)."""

    two_i: int

    def __post_init__(self):
        if self.two_i < 1:
            raise ValueError("two_i must be a positive integer (spin 0 has no relaxation structure)")

    @property
    def dim(self) -> int:
        return self.two_i + 1

    @property
    def spin(self) -> float:
        return self.two_i / 2.0


@dataclass(frozen=True)
class SpinOperators:
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray
    iplus: np.ndarray
    iminus: np.ndarray


@dataclass(frozen=True)
class QuadrupoleSet:
    """Second-rank quadrupole operators Q_p for p = -2..2.

    One sign s holds for every p in [Iz, Q_p] = s * p * Q_p, and the
    construction used here gives s = -1 (Q_{-2} is proportional to Iplus**2).
    Adjoint pairing carries a per-rank sign: Q_{-2}^dagger = Q_{+2} while
    Q_{-1}^dagger = -Q_{+1}, from the (-1)^m tensor conjugation entering once
    or twice.
    """

    q_minus2: np.ndarray
    q_minus1: np.ndarray
    q_zero: np.ndarray
    q_plus1: np.ndarray
    q_plus2: np.ndarray

    def __getitem__(self, p: int) -> np.ndarray:
        try:
            return {-2: self.q_minus2, -1: self.q_minus1, 0: self.q_zero,
                    1: self.q_plus1, 2: self.q_plus2}[p]
        except KeyError:
            raise KeyError(f"quadrupole order p={p} outside -2..2") from None


def make_spin_operators(two_i: int) -> SpinOperators:
    """Angular-momentum matrices for spin two_i/2.

    Iz is diagonal with entries I, I-1, ..., -I; Iplus/Iminus are the standard
    ladder matrices, Ix = (Iplus + Iminus)/2 and Iy = (Iplus - Iminus)/(2i).
    """
    system = SpinSystem(two_i)
    d = system.dim
    spin = system.spin
    m = spin - np.arange(d)
    iz = np.diag(m).astype(complex)
    iplus = np.zeros((d, d), dtype=complex)
    for col in range(1, d):
        mm = m[col]
        iplus[col - 1, col] = np.sqrt(spin * (spin + 1) - mm * (mm + 1))
    iminus = iplus.conj().T
    ix = (iplus + iminus) / 2
    iy = (iplus - iminus) / 2j
    return SpinOperators(ix=ix, iy=iy, iz=iz, iplus=iplus, iminus=iminus)


def make_irreducible_tensor(system: SpinSystem, l: int, m: int) -> np.ndarray:
    """Orthonormal irreducible tensor operator T(l, m).

    Built by repeated lowering from T(l, l) = (-1)**l * Iplus**l / ||Iplus**l||,
    using [Iminus, T(l, m)] = sqrt(l(l+1) - m(m-1)) * T(l, m-1).  The family
    satisfies trace(T(l,m)^dagger T(l',m')) = delta_ll' delta_mm' and
    [Iz, T(l,m)] = m T(l,m).
    """
    if not (0 <= l <= system.two_i):
        raise ValueError(f"rank l={l} outside 0..{system.two_i}")
    if not (-l <= m <= l):
        raise ValueError(f"projection m={m} outside -{l}..{l}")
    return _tensor_family(system.two_i, l)[m]


@lru_cache(maxsize=None)
def _tensor_family(two_i: int, l: int) -> dict:
    ops = make_spin_operators(two_i)
    top = np.linalg.matrix_power(ops.iplus, l) if l else np.eye(two_i + 1, dtype=complex)
    top = (-1) ** l * top / np.linalg.norm(top)
    family = {l: top}
    for mm in range(l, -l, -1):
        family[mm - 1] = ((ops.iminus @ family[mm] - family[mm] @ ops.iminus)
                          / np.sqrt(l * (l + 1) - mm * (mm - 1)))
    return family


def make_quadrupole_operators(system: SpinSystem) -> QuadrupoleSet:
    """The five second-rank quadrupole operators for spin 7/2.

    Q_{-/+2} = 42 sqrt(6) T(1,+/-1)^2
    Q_{-/+1} = -42 sqrt(3) (T(1,0) T(1,+/-1) + T(1,+/-1) T(1,0))
    Q_0      = 63 (2 T(1,0)^2 - (sqrt(7)/4) T(0,0))

    The numeric coefficients are specific to spin 7/2; other spins are rejected.
    """
    if system.two_i != 7:
        raise ValueError("quadrupole coefficients are defined for spin 7/2 only (two_i = 7)")
    t00 = make_irreducible_tensor(system, 0, 0)
    t10 = make_irreducible_tensor(system, 1, 0)
    t1p = make_irreducible_tensor(system, 1, 1)
    t1m = make_irreducible_tensor(system, 1, -1)
    return QuadrupoleSet(
        q_minus2=42 * np.sqrt(6) * (t1p @ t1p),
        q_plus2=42 * np.sqrt(6) * (t1m @ t1m),
        q_minus1=-42 * np.sqrt(3) * (t10 @ t1p + t1p @ t10),
        q_plus1=-42 * np.sqrt(3) * (t10 @ t1m + t1m @ t10),
        q_zero=63 * (2 * (t10 @ t10) - np.sqrt(7) / 4 * t00),
    )
