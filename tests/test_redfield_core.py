import itertools
import math
import re
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrelax import redfield_core
from quadrelax._tables import load_reference_tables
from quadrelax.phys_params import (QuadrupolarConstant, SpectralDensities,
                                   lorentzian_spectral_densities,
                                   quadrupolar_constant_simplified)
from quadrelax.redfield_core import (
    CoherenceBlock,
    DegenerateSpectrumError,
    analytic_eigensystem,
    analytic_eigenvalues,
    assemble_block,
    coefficient_matrices,
    evaluate_block,
    liouville_superoperator,
    numeric_eigensystem,
    sector_modes,
    sector_spectra,
    validate_against_reference_tables,
)
from quadrelax.spin_algebra import (QuadrupoleSet, SpinSystem, make_irreducible_tensor,
                                   make_quadrupole_operators)


@pytest.fixture(scope="module")
def quads():
    return make_quadrupole_operators(SpinSystem(7))


@pytest.fixture(scope="module")
def j_ref():
    return lorentzian_spectral_densities(47.24e6, 4.1e-9)


@pytest.fixture(scope="module")
def c_ref():
    return quadrupolar_constant_simplified(266e3)


def random_j(rng):
    j0 = rng.uniform(0.5, 10.0)
    j1 = rng.uniform(0.1, j0)
    j2 = rng.uniform(0.05, j1)
    return SpectralDensities(j0, j1, j2)


def test_block_dimensions(j_ref):
    for q in range(8):
        assert assemble_block(q, j_ref).matrix.shape == (8 - q, 8 - q)


def test_q7_normalization():
    rng = np.random.default_rng(1)
    for _ in range(5):
        j = random_j(rng)
        blk = assemble_block(7, j).matrix
        assert blk[0, 0] == pytest.approx(-(21 * j.j1 + 7 * j.j2), rel=1e-12)


def test_q6_closed_form():
    rng = np.random.default_rng(2)
    j = random_j(rng)
    blk = assemble_block(6, j).matrix
    diag = -(9 * j.j0 + 29 * j.j1 + 11 * j.j2)
    want = np.array([[diag, -21 * j.j1], [-21 * j.j1, diag]])
    np.testing.assert_allclose(blk, want, rtol=1e-12)


def test_q0_table_entry_2_2():
    # transformed-basis entry (2,2) = (8/14) J1 - (85/14) J2
    tables = load_reference_tables()
    rng = np.random.default_rng(3)
    j = random_j(rng)
    basis0 = tables.u0 @ assemble_block(0, j).matrix @ tables.u0_bar
    assert basis0[1, 1] == pytest.approx(8 / 14 * j.j1 - 85 / 14 * j.j2, rel=1e-10)


def test_q1_table_entry_1_1():
    tables = load_reference_tables()
    rng = np.random.default_rng(4)
    j = random_j(rng)
    basis1 = tables.u1 @ assemble_block(1, j).matrix @ tables.u1_bar
    assert basis1[0, 0] == pytest.approx(-6 * j.j0 - 55 / 3 * j.j1 - 77 / 3 * j.j2, rel=1e-10)


def test_q0_table_row1_col1_zero():
    tables = load_reference_tables()
    rng = np.random.default_rng(5)
    j = random_j(rng)
    basis0 = tables.u0 @ assemble_block(0, j).matrix @ tables.u0_bar
    scale = np.max(np.abs(basis0))
    assert np.max(np.abs(basis0[0, :])) < 1e-12 * scale
    assert np.max(np.abs(basis0[:, 0])) < 1e-12 * scale


def test_transformations_are_inverse_pairs():
    tables = load_reference_tables()
    np.testing.assert_allclose(tables.u0 @ tables.u0_bar, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(tables.u1 @ tables.u1_bar, np.eye(7), atol=1e-12)


def test_liouvillian_block_structure(quads):
    rng = np.random.default_rng(6)
    j = random_j(rng)
    full = liouville_superoperator(quads, j)
    scale = np.max(np.abs(full))
    order = np.array([a - b for a in range(8) for b in range(8)])
    off_block = full[~np.equal.outer(order, order)]
    assert np.max(np.abs(off_block)) < 1e-12 * scale


def test_conjugate_order_blocks_equal(quads):
    rng = np.random.default_rng(7)
    j = random_j(rng)
    full = liouville_superoperator(quads, j)
    for q in range(1, 8):
        lower = [(q + n) * 8 + n for n in range(8 - q)]   # rho_{q+n, n}
        upper = [n * 8 + (q + n) for n in range(8 - q)]   # rho_{n, q+n}
        np.testing.assert_allclose(full[np.ix_(lower, lower)],
                                   full[np.ix_(upper, upper)], atol=1e-12 * np.max(np.abs(full)))
        np.testing.assert_allclose(full[np.ix_(lower, lower)],
                                   assemble_block(q, j).matrix,
                                   atol=1e-12 * np.max(np.abs(full)))


def test_blocks_are_symmetric():
    rng = np.random.default_rng(8)
    j = random_j(rng)
    for q in range(8):
        m = assemble_block(q, j).matrix
        np.testing.assert_allclose(m, m.T, atol=1e-12 * max(1.0, np.max(np.abs(m))))


def test_spectrum_real_nonpositive():
    rng = np.random.default_rng(9)
    for _ in range(20):
        j = random_j(rng)
        for q in range(8):
            lam = np.linalg.eigvals(assemble_block(q, j).matrix)
            scale = np.max(np.abs(lam))
            assert np.max(np.abs(lam.imag)) < 1e-10 * scale
            assert np.max(lam.real) <= 1e-12 * scale


def test_q0_zero_mode():
    rng = np.random.default_rng(10)
    j = random_j(rng)
    m = assemble_block(0, j).matrix
    lam = np.linalg.eigvalsh(m)
    scale = np.max(np.abs(m))
    assert np.sum(np.abs(lam) < 1e-12 * scale) == 1
    # trace conservation: the all-ones row is the left null vector
    assert np.max(np.abs(np.ones(8) @ m)) < 1e-12 * scale


def test_quadrupole_q1_sign_toggle_is_inert(quads, j_ref):
    # global sign of the p = +/-1 pair cancels in the double commutator
    flipped = QuadrupoleSet(q_minus2=quads.q_minus2, q_minus1=-quads.q_minus1,
                            q_zero=quads.q_zero, q_plus1=-quads.q_plus1,
                            q_plus2=quads.q_plus2)
    np.testing.assert_allclose(liouville_superoperator(flipped, j_ref),
                               liouville_superoperator(quads, j_ref), atol=1e-18)


def test_assemble_rejects_out_of_range(j_ref):
    with pytest.raises(ValueError):
        assemble_block(8, j_ref)
    with pytest.raises(ValueError):
        assemble_block(-1, j_ref)


def test_coefficient_matrices_match_assembly(quads):
    # the cached coefficient matrices against the full superoperator, restricted
    # to each order's rho_{q+n, n} elements
    rng = np.random.default_rng(11)
    j = random_j(rng)
    full = liouville_superoperator(quads, j)
    for q in range(8):
        lower = [(q + n) * 8 + n for n in range(8 - q)]
        np.testing.assert_allclose(evaluate_block(q, j.as_tuple()),
                                   full[np.ix_(lower, lower)], atol=1e-12)
        np.testing.assert_array_equal(assemble_block(q, j).matrix,
                                      evaluate_block(q, j.as_tuple()))


def _tensor_double_commutator(two_i, weights):
    """-sum_p (-1)^p J_|p| [T(2,p), [T(2,-p), .]] on vectorized density matrices (index
    a*d+b) from the unit-normalised rank-2 tensors: neither the quadrupole operators
    nor the normalization of redfield_core enter."""
    system = SpinSystem(two_i)
    d = system.dim
    t = {p: make_irreducible_tensor(system, 2, p) for p in range(-2, 3)}
    out = np.zeros((d * d, d * d))
    for col in range(d * d):
        rho = np.zeros(d * d, dtype=complex)
        rho[col] = 1.0
        rho = rho.reshape(d, d)
        acc = np.zeros((d, d), dtype=complex)
        for p in range(-2, 3):
            inner = t[-p] @ rho - rho @ t[-p]
            acc -= (-1) ** p * weights[abs(p)] * (t[p] @ inner - inner @ t[p])
        assert np.abs(acc.imag).max() == 0.0
        out[:, col] = acc.real.ravel()
    return out


def _order_block(full, d, q):
    rows = [(q + n) * d + n for n in range(d - q)]  # rho_{q+n, n}
    return full[np.ix_(rows, rows)]


def test_tensor_oracle_gives_hubbards_spin_3_2_rates():
    # Hubbard, J. Chem. Phys. 53, 985 (1970); Jaccard, Wimperis and Bodenhausen,
    # J. Chem. Phys. 85, 6282 (1986): the spin-3/2 rates in units of C
    rng = np.random.default_rng(42)
    for _ in range(200):
        j0, j1, j2 = rng.uniform(0.01, 10.0, 3)
        full = _tensor_double_commutator(3, (j0, j1, j2))
        want = {0: [0.0, 2 * j1, 2 * j2, 2 * (j1 + j2)],
                1: [j1 + j2, j0 + j1, j0 + j1 + 2 * j2]}
        for q, rates in want.items():
            block = _order_block(full, 4, q)
            np.testing.assert_array_equal(block, block.T)
            np.testing.assert_allclose(np.sort(-np.linalg.eigvalsh(block)), np.sort(rates),
                                       rtol=0, atol=1e-13 * max(j0, j1, j2))


def test_tensor_oracle_times_42_gives_the_coefficient_matrices():
    for k in range(3):
        unit = 42 * _tensor_double_commutator(7, np.eye(3)[k])
        tol = 1e-14 * max(np.abs(coefficient_matrices(q)[k]).max() for q in range(8))
        for q in range(8):
            np.testing.assert_allclose(coefficient_matrices(q)[k], _order_block(unit, 8, q),
                                       rtol=0, atol=tol, err_msg=f"q={q}, k={k}")


# -- numeric eigensystems -----------------------------------------------------

def test_numeric_eigensystem_invariants(c_ref):
    rng = np.random.default_rng(12)
    for _ in range(10):
        j = random_j(rng)
        for q in range(8):
            es = numeric_eigensystem(assemble_block(q, j), c_ref)
            np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), atol=1e-10)
            assert np.all(np.diff(es.rates) >= -1e-9 * np.max(es.rates))
            assert np.all(es.rates >= 0)
            decaying = es.eigenvalues < -1e-10 * np.max(np.abs(es.eigenvalues))
            np.testing.assert_allclose(es.rates[decaying],
                                       -c_ref.c * es.eigenvalues[decaying], rtol=1e-12)
            if q == 0:
                assert np.sum(es.rates == 0.0) == 1


def test_numeric_table1_rates(j_ref, c_ref):
    es = numeric_eigensystem(assemble_block(0, j_ref), c_ref)
    want = np.array([0.0, 4.13e3, 14.82e3, 15.85e3, 28.32e3, 34.04e3, 56.41e3, 56.98e3])
    assert es.rates[0] == 0.0
    np.testing.assert_allclose(es.rates[1:], want[1:], rtol=5e-3)
    es7 = numeric_eigensystem(assemble_block(7, j_ref), c_ref)
    assert es7.rates[0] == pytest.approx(21.69e3, rel=1e-3)


def test_numeric_rejects_defective_matrix(c_ref):
    jordan = CoherenceBlock(q=6, matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        numeric_eigensystem(jordan, c_ref)
    # diagonalizable with distinct real eigenvalues, but no block is asymmetric
    asymmetric = CoherenceBlock(q=6, matrix=np.array([[1.0, 2.0], [0.0, 3.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="not symmetric"):
        numeric_eigensystem(asymmetric, c_ref)


_DECADE = st.floats(-5.0, 5.0)
_J_TRIPLES = st.one_of(
    st.tuples(_DECADE, _DECADE, _DECADE).map(lambda e: tuple(10.0 ** np.array(e))),
    _DECADE.map(lambda e: (10.0 ** e,) * 3),
    st.tuples(_DECADE, _DECADE, st.floats(-1e-9, 1e-9)).map(
        lambda e: (10.0 ** e[0], 10.0 ** e[1], 10.0 ** e[1] * (1.0 + e[2]))),
    st.tuples(_DECADE, _DECADE).map(lambda e: (10.0 ** e[0], 10.0 ** e[1], 10.0 ** e[1])),
    st.tuples(_DECADE, _DECADE).map(lambda e: (10.0 ** e[0], 10.0 ** e[1], 0.0)),
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_J_TRIPLES)
def test_numeric_eigensystem_invariants_over_density_space(weights):
    # log-uniform J over +-5 decades and the corners J1 = J2, J0 = J1 = J2 and J2 = 0
    spectra = redfield_core.sector_spectra(weights, range(8))
    for q in range(8):
        m = evaluate_block(q, weights)
        es = numeric_eigensystem(CoherenceBlock(q, m))
        np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), rtol=0, atol=1e-10)
        np.testing.assert_array_equal(es.w, es.w_bar.T)
        assert np.all(np.diff(es.eigenvalues) <= 0)
        assert np.all(es.rates >= 0)
        if q == 0:
            # J2 = 0 cuts the population chain at m = +-1/2, whose Q_1 element vanishes,
            # and leaves one zero mode per half
            assert np.sum(es.rates == 0.0) == (1 if weights[2] > 0 else 2)
        else:
            assert np.all(es.rates > 0)
        # the sectors are solved apart, and a backward-stable solve moves each eigenvalue
        # by a small multiple of dim eps ||M||, so they agree with the full block to that
        full = np.linalg.eigvalsh(m)[::-1]
        bound = 4 * (8 - q) * np.finfo(float).eps * np.linalg.norm(m, 2)
        assert np.abs(es.eigenvalues - full).max() <= bound, q
        assert np.abs(spectra[q] - full).max() <= bound, q
        # every mode is exactly even or exactly odd under the reversal
        mirrored = es.w_bar[::-1]
        assert np.all((mirrored == es.w_bar).all(axis=0) | (mirrored == -es.w_bar).all(axis=0))
        rates = redfield_core._rates_from_eigenvalues(spectra[q], None)
        assert np.abs(rates - es.rates).max() <= 1e-14 * es.rates.max(), q
        assert np.array_equal(rates == 0, es.rates == 0), q


_SPECTRA_WEIGHTS = ((2.0, 1.0, 0.5), (1.0, 1.0, 1.0), (3.0, 1e-3, 1e-3), (83.0, 3.8, 0.18),
                    (4.1e-9, 2.2e-10, 5.6e-11), (0.0, 0.0, 0.0))


def test_sector_spectra_of_some_orders_are_those_of_all_orders():
    for weights in _SPECTRA_WEIGHTS:
        full = sector_spectra(weights, range(8))
        assert list(full) == list(range(8))
        for k in range(1, 9):
            for orders in itertools.combinations(range(8), k):
                for asked in (orders, orders[::-1]):
                    got = sector_spectra(weights, asked)
                    assert list(got) == list(asked)
                    for q in asked:
                        assert got[q].shape == (8 - q,)
                        assert got[q].tobytes() == full[q].tobytes(), (weights, asked, q)


def test_sector_spectra_of_orders_2_to_7_solve_no_size_4_sector(monkeypatch):
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def counting(m):
        shapes.append(m.shape)
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    sector_spectra((2.0, 1.0, 0.5), range(2, 8))
    assert shapes == [(3, 3, 3), (4, 2, 2)]
    shapes.clear()
    sector_spectra((2.0, 1.0, 0.5), (0, 7))
    assert shapes == [(2, 4, 4)]


def _uncached_sector_modes(orders, weights):
    """sector_modes as it was before its stacks were cached: grouped and stacked per call."""
    by_size = {}
    for q in orders:
        for p, mats in redfield_core.sector_table()[q]:
            if p.shape[1]:
                by_size.setdefault(p.shape[1], []).append((q, p, mats))
    parts = {q: [] for q in orders}
    for size, group in sorted(by_size.items(), reverse=True):
        a = np.stack([mats for _, _, mats in group])
        m = weights[0] * a[:, 0] + weights[1] * a[:, 1] + weights[2] * a[:, 2]
        lam, vec = np.linalg.eigh(m) if size > 1 else (m[..., 0], np.ones_like(m))
        for (q, p, _), lam_s, vec_s in zip(group, lam, vec):
            parts[q].append((lam_s, p @ vec_s))
    return {q: (np.concatenate([lam for lam, _ in pair]), np.hstack([u for _, u in pair]))
            for q, pair in parts.items()}


def test_sector_modes_cached_stacks_change_no_bit():
    redfield_core._mode_groups.cache_clear()
    for orders in ((0, 1), [0, 1], (0, 7), tuple(range(8)), (3,), (7, 2, 5), (6, 7)):
        for weights in _SPECTRA_WEIGHTS:
            for _ in range(2):  # the first call builds the stacks, the second reuses them
                got, want = sector_modes(orders, weights), _uncached_sector_modes(orders, weights)
                assert list(got) == list(want)
                for q, (lam, u) in want.items():
                    for a, b in zip(got[q], (lam, u)):
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (orders, q)
                        assert not a.flags.writeable
    plan = redfield_core._mode_groups((0, 1))
    assert plan is redfield_core._mode_groups((0, 1))
    assert [a.shape for a in plan.stacks] == [(3, 4, 4, 3), (1, 3, 3, 3)]
    assert all(not a.flags.writeable for a in (*plan.stacks, plan.labels))


def test_even_odd_tie_is_ordered_by_the_sign_fixed_vectors():
    # at J1 = 0 the q = 6 sectors are both 9 J0 + 11 J2 exactly; the tied modes are
    # ordered lexicographically by their embedded, sign-fixed columns: the odd
    # (1, -1)/sqrt(2) before the even (1, 1)/sqrt(2)
    es = numeric_eigensystem(CoherenceBlock(6, evaluate_block(6, (2.0, 0.0, 1.0))))
    assert es.eigenvalues[0] == es.eigenvalues[1] == pytest.approx(-29.0, rel=1e-14)
    np.testing.assert_allclose(es.w_bar, np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2),
                               rtol=0, atol=1e-16)
    # the q = 2 and q = 4 sectors are isospectral there too, to round-off
    for q in (2, 4):
        lam = numeric_eigensystem(CoherenceBlock(q, evaluate_block(q, (2.0, 0.0, 1.0)))).eigenvalues
        np.testing.assert_allclose(lam[::2], lam[1::2], rtol=1e-14)


def test_numeric_rejects_a_block_that_couples_the_sectors(c_ref):
    # symmetric, but it does not commute with the reversal m -> -m
    coupled = CoherenceBlock(q=6, matrix=np.array([[1.0, 2.0], [2.0, 5.0]]))
    with pytest.raises(np.linalg.LinAlgError, match="couples the even and odd sectors"):
        numeric_eigensystem(coupled, c_ref)


def test_sector_table_rejects_coefficients_that_couple_the_sectors(monkeypatch):
    real = redfield_core.coefficient_matrices

    def coupled(q):
        a0, a1, a2 = real(q)
        return a0, a1, a2 + 1e-6 * np.diag(np.arange(8.0 - q))  # not reversal-symmetric

    monkeypatch.setattr(redfield_core, "coefficient_matrices", coupled)
    with pytest.raises(RuntimeError, match="q=0 A_k couple the sectors"):
        redfield_core.sector_table.__wrapped__()


def test_sector_table_is_orthogonal_and_read_only():
    table = redfield_core.sector_table()
    for q, ((p_even, even), (p_odd, odd)) in enumerate(table):
        assert (p_even.shape[1], p_odd.shape[1]) == ((9 - q) // 2, (8 - q) // 2)
        p = np.hstack([p_even, p_odd])
        np.testing.assert_allclose(p.T @ p, np.eye(8 - q), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(p_even[::-1], p_even)
        np.testing.assert_array_equal(p_odd[::-1], -p_odd)
        for arr in (p_even, even, p_odd, odd):
            assert not arr.flags.writeable


def test_numeric_sign_convention(j_ref, c_ref):
    es = numeric_eigensystem(assemble_block(3, j_ref), c_ref)
    for col in es.w_bar.T:
        lead = np.flatnonzero(np.abs(col) > 1e-8 * np.max(np.abs(col)))[0]
        assert col[lead] > 0


@pytest.mark.filterwarnings("error")
def test_rates_beyond_the_largest_float_raise_before_they_overflow():
    j, c = SpectralDensities(1e300, 1e300, 1e300), QuadrupolarConstant(1e10)
    for q in (0, 7):
        with pytest.raises(OverflowError, match="relaxation rates overflow"):
            numeric_eigensystem(assemble_block(q, j), c)
    with pytest.raises(OverflowError, match="relaxation rates overflow"):
        analytic_eigensystem(7, j, c)
    # at the edge: C |lambda| just below the largest float stays finite
    es = analytic_eigensystem(7, SpectralDensities(1.0, 1.0, 1.0), QuadrupolarConstant(6e306))
    assert np.isfinite(es.rates).all()


def test_equal_j_degenerate_falls_back(c_ref):
    # closed-form transformations divide by quantities that vanish at equal J
    j = SpectralDensities(2.0, 2.0, 2.0)
    for q in (2, 3, 4, 5):
        with pytest.raises(DegenerateSpectrumError):
            analytic_eigensystem(q, j)
    for q in (6, 7):
        es = analytic_eigensystem(q, j)
        np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), rtol=0, atol=1e-12)
    # numeric path still works and matches the closed-form eigenvalue lists
    for q in range(2, 8):
        lam_num = np.sort(numeric_eigensystem(assemble_block(q, j), c_ref).eigenvalues)
        lam_ana = np.sort(analytic_eigenvalues(q, j))
        np.testing.assert_allclose(lam_num, lam_ana, rtol=1e-9)


def test_q5_discriminant_rounded_below_zero_is_a_double_root():
    # near J2 = 5 J0 with J1 << J0 the q = 5 discriminant, a sum of squares, rounds
    # below zero; its root is 0, not nan (a silently wrong eigensystem) or a math
    # domain error, and the two coinciding modes raise through the determinant
    j = SpectralDensities(3.062973780756768, 6.633918380418473e-09, 15.314868889723979)
    j0, j1, j2 = j.as_tuple()
    assert (625 * j0 ** 2 - 800 * j0 * j1 - 250 * j0 * j2
            + 2944 * j1 ** 2 + 160 * j1 * j2 + 25 * j2 ** 2) < 0
    lam = analytic_eigenvalues(5, j)
    assert lam[0] == lam[2]
    np.testing.assert_allclose(sorted(lam), np.linalg.eigvalsh(assemble_block(5, j).matrix),
                               rtol=1e-8)
    with pytest.raises(DegenerateSpectrumError, match="determinant"):
        analytic_eigensystem(5, j)


def test_equal_w_bar_columns_raise(j_ref, monkeypatch):
    # two coinciding modes give two equal w_bar columns; the determinant guard,
    # not np.linalg.inv, rejects the singular transformation (q = 2..5; the q = 6
    # and 7 transformations are constants)
    monkeypatch.setattr(redfield_core, "_analytic_w_bar", lambda q, j, lam: np.array(
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, np.sqrt(2)]]) / np.sqrt(2))
    with pytest.raises(DegenerateSpectrumError, match="determinant"):
        analytic_eigensystem(5, j_ref)


# -- analytic eigensystems ----------------------------------------------------

def test_analytic_eigenvalue_spot_values():
    rng = np.random.default_rng(13)
    j = random_j(rng)
    lam5 = analytic_eigenvalues(5, j)
    assert lam5[1] == pytest.approx(-(25 * j.j0 + 21 * j.j1 + 24 * j.j2), rel=1e-12)
    lam4 = analytic_eigenvalues(4, j)
    s = np.sqrt(256 * (j.j0 - j.j1) ** 2 + 105 * (j.j1 - j.j2) ** 2)
    base = -20 * j.j0 - 29 * j.j1 - 21 * j.j2
    assert lam4[0] == pytest.approx(base - s, rel=1e-12)
    assert lam4[1] == pytest.approx(base + s, rel=1e-12)
    lam3 = analytic_eigenvalues(3, j)
    assert lam3[1] == pytest.approx(-(9 * j.j0 + 21 * j.j1 + 40 * j.j2), rel=1e-12)


def test_analytic_eigenvalues_match_numeric():
    rng = np.random.default_rng(14)
    for _ in range(50):
        j = random_j(rng)
        for q in range(2, 8):
            lam_num = np.sort(np.linalg.eigvalsh(assemble_block(q, j).matrix))
            lam_ana = np.sort(analytic_eigenvalues(q, j))
            np.testing.assert_allclose(lam_num, lam_ana, rtol=1e-9, atol=0)


def test_analytic_rejects_untabled_orders(j_ref):
    for q in (0, 1):
        with pytest.raises(ValueError):
            analytic_eigenvalues(q, j_ref)
        with pytest.raises(ValueError):
            analytic_eigensystem(q, j_ref)


def test_analytic_q6_published_matrix(j_ref):
    es = analytic_eigensystem(6, j_ref)
    want = np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)
    np.testing.assert_allclose(es.w, want, atol=1e-15)
    np.testing.assert_allclose(es.w_bar, want, atol=1e-15)


def test_analytic_q5_matches_numeric_eigensystem(j_ref, c_ref):
    esa = analytic_eigensystem(5, j_ref, c_ref)
    esn = numeric_eigensystem(assemble_block(5, j_ref), c_ref)
    np.testing.assert_allclose(esa.eigenvalues, esn.eigenvalues, rtol=1e-10)
    np.testing.assert_allclose(esa.rates, esn.rates, rtol=1e-10)


def test_analytic_transformations_invert():
    rng = np.random.default_rng(15)
    for _ in range(100):
        j = random_j(rng)
        for q in range(2, 7):
            es = analytic_eigensystem(q, j)
            np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), atol=1e-12)


def test_analytic_transformations_diagonalize():
    rng = np.random.default_rng(16)
    for _ in range(20):
        j = random_j(rng)
        for q in range(2, 8):
            es = analytic_eigensystem(q, j)
            blk = assemble_block(q, j).matrix
            d = es.w @ blk @ es.w_bar
            scale = np.max(np.abs(d))
            np.testing.assert_allclose(np.diag(d), es.eigenvalues, rtol=1e-8)
            assert np.max(np.abs(d - np.diag(np.diag(d)))) < 1e-8 * scale


def test_published_w_bar_is_orthonormal():
    # w is computed as inv(w_bar), so a mistyped w_bar entry shows up here
    rng = np.random.default_rng(18)
    for _ in range(1000):
        j = random_j(rng)
        for q in range(2, 8):
            w_bar = analytic_eigensystem(q, j).w_bar
            np.testing.assert_allclose(w_bar.T @ w_bar, np.eye(8 - q), rtol=0, atol=1e-9)


def _sweep_draws(n, seed):
    """Criterion-3 triples, J1 = J2, J0/J2 up to 1e5, J0 = J1 = J2, and triples
    within 1e-12 to 1e-2 of it, in turn."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        j = random_j(rng)
        j0, j1, j2 = j.as_tuple()
        kind = i % 5
        if kind == 1:
            j2 = j1
        elif kind == 2:
            j2 = rng.uniform(0.05, 1.0)
            ratio = 10 ** rng.uniform(0.0, 5.0)
            j0, j1 = j2 * ratio, j2 * 10 ** rng.uniform(0.0, np.log10(ratio))
        elif kind == 3:
            j0 = j1 = j2
        elif kind == 4:
            d1, d2 = 10 ** rng.uniform(-12, -2, 2)
            j1 = j2 * (1 + d1)
            j0 = j1 * (1 + d2)
        yield SpectralDensities(float(j0), float(j1), float(j2))


def test_closed_form_sweep():
    # the eigenvalues are Python floats, the eigensystem orders exactly those
    # values by descending lambda (ties keep the published order), and w inverts
    # w_bar wherever no DegenerateSpectrumError is raised
    outcomes = {"raised": 0, "passed": 0}
    for j in _sweep_draws(500, seed=41):
        for q in range(2, 8):
            try:
                values = analytic_eigenvalues(q, j)
                es = analytic_eigensystem(q, j)
            except DegenerateSpectrumError:
                outcomes["raised"] += 1
                continue
            outcomes["passed"] += 1
            assert all(type(v) is float for v in values), (q, j)
            assert es.eigenvalues.tobytes() == np.array(sorted(values, reverse=True)).tobytes()
            np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), rtol=0, atol=1e-10)
    assert min(outcomes.values()) > 0, outcomes


def _closed_form_on_arrays(q, j, c):
    """(lam, w, w_bar, rates) of analytic_eigensystem as computed on numpy arrays
    before: the eigenvalues sorted into an array and _rates_from_eigenvalues on it."""
    values = analytic_eigenvalues(q, j)
    if q >= 6:
        w_bar, w = redfield_core._constant_transformation(q)
        lam = np.array(values)
    else:
        w_bar = redfield_core._analytic_w_bar(q, j, values)
        redfield_core._degenerate_guard(np.linalg.det(w_bar), "transformation determinant")
        order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
        lam, w_bar = np.array([values[k] for k in order]), w_bar[:, order]
        w = np.linalg.inv(w_bar)
    return lam, w, w_bar, redfield_core._rates_from_eigenvalues(lam, c)


_NEAR_EQUAL = st.floats(-7.0, -2.0).map(lambda e: 10.0 ** e)
#: criterion-3 triples (J0/J2 up to 1e5), J0 = J1 = J2, J1 = J2, and triples within
#: 1e-7 to 1e-2 of J0 = J1 = J2, each scaled by 10^-10 to 1
_CLOSED_FORM_TRIPLES = st.tuples(
    st.one_of(
        st.tuples(st.floats(0.5, 10.0), st.floats(-2.5, 0.0), st.floats(-2.5, 0.0)).map(
            lambda t: (t[0], t[0] * 10 ** t[1], t[0] * 10 ** (t[1] + t[2]))),
        st.floats(0.5, 10.0).map(lambda s: (s, s, s)),
        st.tuples(st.floats(0.5, 10.0), st.floats(-5.0, 0.0)).map(
            lambda t: (t[0], t[0] * 10 ** t[1], t[0] * 10 ** t[1])),
        st.tuples(st.floats(0.5, 10.0), _NEAR_EQUAL, _NEAR_EQUAL).map(
            lambda t: (t[0] * (1 + t[1]) * (1 + t[2]), t[0] * (1 + t[1]), t[0]))),
    st.floats(-10.0, 0.0)).map(lambda t: tuple(v * 10 ** t[1] for v in t[0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_CLOSED_FORM_TRIPLES, st.sampled_from([None, 1.0, 1.406e9]))
def test_closed_form_rates_on_floats_are_the_array_path_bit_for_bit(triple, c_value):
    j = SpectralDensities(*triple)
    c = None if c_value is None else QuadrupolarConstant(c_value)
    for q in range(2, 8):
        try:
            want = _closed_form_on_arrays(q, j, c)
        except DegenerateSpectrumError as exc:
            with pytest.raises(DegenerateSpectrumError, match=f"^{re.escape(str(exc))}$"):
                analytic_eigensystem(q, j, c)
            continue
        es = analytic_eigensystem(q, j, c)
        for got, ref in zip((es.eigenvalues, es.w, es.w_bar, es.rates), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (q, triple)
        rates = redfield_core._rates_from_eigenvalues(es.eigenvalues, c)
        assert es.rates.tobytes() == rates.tobytes()


# -- published-table conformance ---------------------------------------------

def test_validate_report():
    rng = np.random.default_rng(17)
    j = random_j(rng)
    report = validate_against_reference_tables(j)
    assert report.max_relative_deviation < 1e-10
    assert report.q0_max_rel < 1e-12
    assert report.q1_max_rel < 1e-12
    # the five as-published q=1 row-6 cells disagree with the assembly by a
    # finite amount (documented deviation, not a tolerance issue)
    assert report.printed_variant_max_abs > 0.1 * j.j1


def test_printed_variants_are_inconsistent_with_assembly():
    # the published J^(1) row-6 values cannot be reproduced by the defining
    # double-commutator assembly: entries (6,1..3) assemble to exactly zero
    # and the published (6,6)/(6,7) differ at the percent level
    tables = load_reference_tables()
    j = SpectralDensities(8.2, 3.3, 1.2)
    basis1 = tables.u1 @ assemble_block(1, j).matrix @ tables.u1_bar
    printed = tables.printed_j1_variants.evaluate(j)
    for (r, c) in ((6, 1), (6, 2), (6, 3)):
        assert abs(basis1[r - 1, c - 1]) < 1e-10
        assert abs(printed[r - 1, c - 1]) > 0.5
    assert basis1[5, 5] == pytest.approx(-12 / 13 * j.j0 - 209 / 13 * j.j1 - 11 * j.j2, rel=1e-10)
    assert abs(printed[5, 5] - (-6197 / 429 * j.j1)) < 1e-12


def _file_order_entries():
    """The J0T, J1T and PRINTED J1T entries of the fixture, each cell's terms in
    the order the file lists them; a PRINTED line overwrites an earlier one."""
    text = resources.files("quadrelax").joinpath("_table_data/reference_tables.txt").read_text()
    entries = {"J0T": {}, "J1T": {}, "J1T-printed": {}}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split()
        printed = parts[:1] == ["PRINTED"]
        parts = parts[printed:]
        if len(parts) == 6 and parts[0] in ("J0T", "J1T"):
            cell = entries[parts[0] + "-printed" * printed].setdefault(
                (int(parts[1]) - 1, int(parts[2]) - 1), {})
            cell[parts[3]] = float(Fraction(parts[4])) * math.sqrt(float(Fraction(parts[5])))
    return entries


def _file_order_sum(cells, shape, j):
    coeffs = {"J0": j.j0, "J1": j.j1, "J2": j.j2}
    out = np.zeros(shape)
    for (r, c), terms in cells.items():
        out[r, c] = sum(v * coeffs[t] for t, v in terms.items())
    return out


def _table_triples():
    """Criterion-3 triples scaled from 1e-10 to 1 (data/theoretical.cfg gives J near
    1e-9), and triples with J0/J2 up to 1e5."""
    rng = np.random.default_rng(23)
    for i in range(60):
        j0, j1, j2 = random_j(rng).as_tuple()
        if i % 3 == 2:
            j2 = rng.uniform(0.05, 1.0)
            j0, j1 = j2 * 10 ** rng.uniform(4.0, 5.0), j2 * 10 ** rng.uniform(0.0, 4.0)
        scale = 10 ** rng.uniform(-10.0, 0.0)
        yield SpectralDensities(j0 * scale, j1 * scale, j2 * scale)


def test_coefficient_stacks_sum_each_entry_in_file_order():
    # the stacked evaluation j0 S0 + j1 S1 + j2 S2 is bit-identical to summing each
    # entry's terms as the fixture lists them, J0T, J1T and the printed variants alike
    tables = load_reference_tables()
    entries = _file_order_entries()
    pairs = {"J0T": tables.j0_block, "J1T": tables.j1_block,
             "J1T-printed": tables.printed_j1_variants}
    for name, table in pairs.items():
        assert table.stack.shape[0] == 3 and not table.stack.flags.writeable
        assert set(zip(*table.cells)) == set(entries[name])
    for j in _table_triples():
        for name, table in pairs.items():
            want = _file_order_sum(entries[name], table.stack.shape[1:], j)
            assert table.evaluate(j).tobytes() == want.tobytes(), (name, j)


def test_validate_report_is_the_numpy_formula_bit_for_bit():
    tables = load_reference_tables()
    entries = _file_order_entries()
    for j in _table_triples():
        report = validate_against_reference_tables(j)
        t0 = _file_order_sum(entries["J0T"], (8, 8), j)
        t1 = _file_order_sum(entries["J1T"], (7, 7), j)
        d0 = np.abs(tables.u0 @ assemble_block(0, j).matrix @ tables.u0_bar - t0)
        assert report.q0_max_rel.hex() == float(np.max(d0) / np.max(np.abs(t0))).hex()
        basis1 = tables.u1 @ assemble_block(1, j).matrix @ tables.u1_bar
        d1 = np.abs(basis1 - t1)
        assert report.q1_max_rel.hex() == float(np.max(d1) / np.max(np.abs(t1))).hex()
        printed = _file_order_sum(entries["J1T-printed"], (7, 7), j)
        assert report.printed_variant_max_abs.hex() == float(max(
            abs(basis1[cell] - printed[cell]) for cell in entries["J1T-printed"])).hex()
        numeric, spectra = sector_spectra(j.as_tuple(), range(8)), []
        for q in range(2, 8):
            lam_num, lam_ana = np.sort(numeric[q]), np.sort(analytic_eigenvalues(q, j))
            spectra.append(
                (q, float(np.max(np.abs(lam_num - lam_ana)) / np.max(np.abs(lam_num))).hex()))
        assert [(q, d.hex()) for q, d in report.spectra_max_rel] == spectra
