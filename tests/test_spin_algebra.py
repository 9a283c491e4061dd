import itertools

import numpy as np
import pytest

from quadrelax.spin_algebra import (
    SpinSystem,
    make_irreducible_tensor,
    make_quadrupole_operators,
    make_spin_operators,
)


def commutator(a, b):
    return a @ b - b @ a


@pytest.fixture(scope="module")
def ops7():
    return make_spin_operators(7)


@pytest.fixture(scope="module")
def sys7():
    return SpinSystem(7)


@pytest.fixture(scope="module")
def quads(sys7):
    return make_quadrupole_operators(sys7)


def test_spin_half_iz():
    ops = make_spin_operators(1)
    np.testing.assert_allclose(ops.iz, np.diag([0.5, -0.5]))


def test_rejects_spin_zero():
    with pytest.raises(ValueError):
        make_spin_operators(0)


def test_ix_entries_spin72(ops7):
    # off-diagonal pattern behind the <Ix> expansion coefficients
    assert ops7.ix[0, 1] == pytest.approx(np.sqrt(7) / 2)
    assert ops7.ix[3, 4] == pytest.approx(2.0)


def test_iz_square_trace(ops7):
    assert np.trace(ops7.iz @ ops7.iz).real == pytest.approx(42.0)


def test_ladder_adjoints_and_hermiticity(ops7):
    np.testing.assert_allclose(ops7.iplus, ops7.iminus.conj().T)
    for op in (ops7.ix, ops7.iy, ops7.iz):
        np.testing.assert_allclose(op, op.conj().T, atol=1e-15)


def test_angular_momentum_algebra(ops7):
    np.testing.assert_allclose(commutator(ops7.iz, ops7.iplus), ops7.iplus, atol=1e-12)
    np.testing.assert_allclose(commutator(ops7.ix, ops7.iy), 1j * ops7.iz, atol=1e-12)
    np.testing.assert_allclose(commutator(ops7.ix, ops7.ix), 0 * ops7.ix, atol=1e-15)


def test_tensor_identity_element(sys7):
    np.testing.assert_allclose(make_irreducible_tensor(sys7, 0, 0),
                               np.eye(8) / np.sqrt(8), atol=1e-15)


def test_tensor_rank1_identities(sys7, ops7):
    t10 = make_irreducible_tensor(sys7, 1, 0)
    np.testing.assert_allclose(np.sqrt(42) * t10, ops7.iz, atol=1e-12)
    t1m = make_irreducible_tensor(sys7, 1, -1)
    t1p = make_irreducible_tensor(sys7, 1, 1)
    np.testing.assert_allclose(np.sqrt(84) / 2 * (t1m - t1p), ops7.ix, atol=1e-12)


def test_tensor_orthonormality(sys7):
    pairs = [(l, m) for l in range(4) for m in range(-l, l + 1)]
    for (l1, m1), (l2, m2) in itertools.product(pairs, repeat=2):
        t1 = make_irreducible_tensor(sys7, l1, m1)
        t2 = make_irreducible_tensor(sys7, l2, m2)
        want = 1.0 if (l1, m1) == (l2, m2) else 0.0
        got = np.trace(t1.conj().T @ t2)
        assert abs(got - want) < 1e-12, (l1, m1, l2, m2)


def test_tensor_coherence_grading(sys7, ops7):
    for l in range(4):
        for m in range(-l, l + 1):
            t = make_irreducible_tensor(sys7, l, m)
            np.testing.assert_allclose(commutator(ops7.iz, t), m * t, atol=1e-12)


def test_tensor_conjugation_rule(sys7):
    for l in range(4):
        for m in range(-l, l + 1):
            t = make_irreducible_tensor(sys7, l, m)
            t_conj = make_irreducible_tensor(sys7, l, -m)
            np.testing.assert_allclose(t.conj().T, (-1) ** m * t_conj, atol=1e-12)


def test_tensor_range_checks(sys7):
    with pytest.raises(ValueError):
        make_irreducible_tensor(sys7, 8, 0)
    with pytest.raises(ValueError):
        make_irreducible_tensor(sys7, 2, 3)


def test_ix_expansion_coefficients(ops7):
    want = [np.sqrt(7), np.sqrt(12), np.sqrt(15), 4.0, np.sqrt(15), np.sqrt(12), np.sqrt(7)]
    got = [2 * ops7.ix[k, k + 1].real for k in range(7)]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_quadrupole_zero_component_diagonal(quads, ops7):
    assert np.max(np.abs(quads[0] - np.diag(np.diag(quads[0])))) < 1e-12
    np.testing.assert_allclose(commutator(ops7.iz, quads[0]), 0 * ops7.iz, atol=1e-12)


def test_quadrupole_coherence_sign(quads, ops7):
    # one sign for every p: [Iz, Q_p] = -p Q_p
    for p in (-2, -1, 1, 2):
        np.testing.assert_allclose(commutator(ops7.iz, quads[p]), -p * quads[p], atol=1e-10)


def test_quadrupole_operators_are_the_rank2_tensors():
    # Q_p = T(2, -p) for any spin with a rank-2 tensor, Q_0 being the unit-norm
    # 3 Iz^2 - I(I+1) built from the spin operators alone; spin 1/2 has none
    for two_i in (3, 7):
        system = SpinSystem(two_i)
        quads = make_quadrupole_operators(system)
        assert sorted(quads) == [-2, -1, 0, 1, 2]
        for p in range(-2, 3):
            np.testing.assert_array_equal(quads[p], make_irreducible_tensor(system, 2, -p))
        iz = make_spin_operators(two_i).iz
        spin = two_i / 2
        want = 3 * iz @ iz - spin * (spin + 1) * np.eye(two_i + 1)
        np.testing.assert_allclose(quads[0], want / np.linalg.norm(want), atol=1e-15)
    with pytest.raises(ValueError):
        make_quadrupole_operators(SpinSystem(1))


def test_quadrupole_adjoint_pairing(quads):
    # adjoint signs fixed by the construction: Q_{-2}^+ = Q_{+2}, Q_{-1}^+ = -Q_{+1}
    # (T(2, m)^+ = (-1)^m T(2, -m))
    np.testing.assert_allclose(quads[-2].conj().T, quads[2], atol=1e-12)
    np.testing.assert_allclose(quads[-1].conj().T, -quads[1], atol=1e-12)


def test_quadrupole_getitem_range(quads):
    with pytest.raises(KeyError):
        quads[3]
