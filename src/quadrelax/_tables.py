"""Loader for the plain-text reference-table fixture.

The fixture encodes, per matrix entry, exact coefficients of the spectral
densities (or plain constants for the basis transformations) in the form
``value = COEFF * sqrt(RADICAND)`` with both tokens rational ``p/q``.
Lines prefixed PRINTED record as-published variants of J1T entries that are
inconsistent with the double-commutator assembly; they are kept for
documentation and loaded separately (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .phys_params import SpectralDensities

_TERMS = ("J0", "J1", "J2")


@dataclass(frozen=True)
class CoefficientTable:
    """One matrix linear in (J0, J1, J2): stack[k] holds the J_k coefficients, as
    one read-only (3, rows, cols) array; cells is the 0-based (rows, cols) index
    of the entries the fixture lists."""

    stack: np.ndarray
    cells: tuple

    def evaluate(self, j: SpectralDensities) -> np.ndarray:
        # every fixture entry lists its terms in J0, J1, J2 order, so this sums
        # each entry as the file lists it
        s = self.stack
        return j.j0 * s[0] + j.j1 * s[1] + j.j2 * s[2]


@dataclass(frozen=True)
class ReferenceTables:
    j0_block: CoefficientTable          # 8x8, zero-coherence superoperator
    j1_block: CoefficientTable          # 7x7, first-coherence superoperator
    u0: np.ndarray
    u0_bar: np.ndarray
    u1: np.ndarray
    u1_bar: np.ndarray
    printed_j1_variants: CoefficientTable


def _rational(tok: str) -> float:
    """A token -?p or -?p/q (p, q decimal digits) as int / int, which rounds correctly,
    as float(Fraction(tok)) does; any other token raises ValueError, q = 0 ZeroDivisionError."""
    num, slash, den = tok.partition("/")
    if not (num.removeprefix("-").isdecimal() and (den.isdecimal() or not slash)):
        raise ValueError(f"invalid rational {tok!r}")
    return int(num) / int(den or 1)


def _parse_value(coeff_tok: str, rad_tok: str) -> float:
    rad = _rational(rad_tok)
    if rad < 0:
        raise ValueError(f"negative radicand {rad_tok}")
    return _rational(coeff_tok) * math.sqrt(rad)


_SHAPES = {"J0T": (8, 8), "J1T": (7, 7), "U0": (8, 8), "U0BAR": (8, 8),
           "U1": (7, 7), "U1BAR": (7, 7)}
#: the terms each table's entries may carry; a CONST table loads as a plain matrix
_TABLE_TERMS = {name: _TERMS if name.startswith("J") else ("CONST",) for name in _SHAPES}


@lru_cache(maxsize=1)
def load_reference_tables() -> ReferenceTables:
    text = resources.files("quadrelax").joinpath("_table_data/reference_tables.txt").read_text()
    has_version = False
    stacks = {name: np.zeros((len(_TABLE_TERMS[name]), *shape)) for name, shape in _SHAPES.items()}
    stacks["J1T-printed"], listed = np.zeros((3, *_SHAPES["J1T"])), set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "version":
            has_version = True
            continue
        is_printed = parts[0] == "PRINTED"
        if is_printed:
            parts = parts[1:]
        if len(parts) != 6:
            raise ValueError(f"reference-table fixture line {lineno}: expected 6 fields, got {len(parts)}")
        name, row_s, col_s, term, coeff_tok, rad_tok = parts
        if name not in _SHAPES or (is_printed and name != "J1T"):
            raise ValueError(f"reference-table fixture line {lineno}: unknown table {name}")
        if term not in _TABLE_TERMS[name]:
            raise ValueError(f"reference-table fixture line {lineno}: unknown term {term}")
        r, c = int(row_s), int(col_s)
        nrows, ncols = _SHAPES[name]
        if not (1 <= r <= nrows and 1 <= c <= ncols):
            raise ValueError(f"reference-table fixture line {lineno}: index ({r},{c}) outside {name}")
        target = name + "-printed" if is_printed else name
        if (target, r - 1, c - 1, term) in listed and not is_printed:
            raise ValueError(f"reference-table fixture line {lineno}: duplicate {name}({r},{c}) {term}")
        listed.add((target, r - 1, c - 1, term))
        stacks[target][_TABLE_TERMS[name].index(term), r - 1, c - 1] = _parse_value(coeff_tok, rad_tok)
    if not has_version:
        raise ValueError("reference-table fixture missing version line")
    for arr in stacks.values():
        arr.flags.writeable = False

    def table(name: str) -> CoefficientTable:
        cells = sorted({(r, c) for target, r, c, _ in listed if target == name})
        return CoefficientTable(stacks[name], tuple(zip(*cells)))

    return ReferenceTables(
        j0_block=table("J0T"),
        j1_block=table("J1T"),
        u0=stacks["U0"][0],
        u0_bar=stacks["U0BAR"][0],
        u1=stacks["U1"][0],
        u1_bar=stacks["U1BAR"][0],
        printed_j1_variants=table("J1T-printed"),
    )
