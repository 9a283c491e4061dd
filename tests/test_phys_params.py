import numpy as np
import pytest

from quadrelax.phys_params import (
    QuadrupolarConstant,
    SpectralDensities,
    densities_from_fit,
    lorentzian_spectral_densities,
    quadrupolar_constant_simplified,
)


def test_lorentzian_reference_values():
    # 47.24 MHz Larmor, 4.1 ns correlation time -> (8.2, 3.3, 1.2) ns within 2%
    j = lorentzian_spectral_densities(47.24e6, 4.1e-9)
    for got, want in zip(j.as_tuple(), (8.2e-9, 3.3e-9, 1.2e-9)):
        assert abs(got - want) / want < 0.02


def test_lorentzian_extreme_narrowing():
    j = lorentzian_spectral_densities(1.0, 1e-9)  # omega tau ~ 6e-9
    np.testing.assert_allclose(j.as_tuple(), 2e-9, rtol=1e-12)


def test_lorentzian_ratio():
    j = lorentzian_spectral_densities(47.24e6, 4.1e-9)
    w0tau = 2 * np.pi * 47.24e6 * 4.1e-9
    assert j.j1 / j.j0 == pytest.approx(1 / (1 + w0tau ** 2), rel=1e-12)
    assert j.j1 / j.j0 == pytest.approx(3.3 / 8.2, rel=0.02)


def test_lorentzian_monotone_in_p():
    for freq, tau in ((1e6, 1e-9), (500e6, 1e-7), (42e6, 3e-10)):
        j = lorentzian_spectral_densities(freq, tau)
        assert j.j0 >= j.j1 >= j.j2


def test_lorentzian_rejects_nonpositive():
    with pytest.raises(ValueError):
        lorentzian_spectral_densities(-1.0, 1e-9)
    with pytest.raises(ValueError):
        lorentzian_spectral_densities(1e6, 0.0)


def test_densities_reject_nonpositive():
    with pytest.raises(ValueError):
        SpectralDensities(1.0, 0.0, 1.0)


def test_simplified_constant_reference():
    c = quadrupolar_constant_simplified(266e3)
    assert c.c == pytest.approx(2.793e11, rel=1e-3)


def test_simplified_constant_experimental_value():
    # nu_Q = 5969 Hz; note the published 98.697e6 Hz^2 corresponds to
    # nu_Q = 5000 Hz and is inconsistent with the published derived J values
    c = quadrupolar_constant_simplified(5969.0)
    assert c.c == pytest.approx(1.4066e8, rel=1e-4)


def test_simplified_quadratic_scaling():
    assert quadrupolar_constant_simplified(10e3).c == pytest.approx(
        100 * quadrupolar_constant_simplified(1e3).c, rel=1e-12)


def test_full_matches_simplified_for_spin72():
    # C = (9/10) (eQ Vzz/hbar)^2 (1 + eta^2/3) / (2I(2I-1))^2 at eta = 0, with
    # coupling = 4 I (2I-1) omega_Q / 6 = 14 omega_Q and (2I(2I-1))^2 = 42^2 for I = 7/2
    nu_q = 266e3
    full = 0.9 * (2 * np.pi * 14 * nu_q) ** 2 / 42 ** 2
    assert full == pytest.approx(quadrupolar_constant_simplified(nu_q).c, rel=1e-12)


def test_densities_from_fit_reference():
    c = quadrupolar_constant_simplified(5969.0)
    j = densities_from_fit((83.0, 3.8, 0.18), c)
    assert j.j0 == pytest.approx(5.90e-7, rel=5e-3)
    assert j.j1 == pytest.approx(2.70e-8, rel=5e-3)
    assert j.j2 == pytest.approx(1.28e-9, rel=5e-3)


def test_densities_from_fit_rejects_all_zero():
    with pytest.raises(ValueError):
        densities_from_fit((0.0, 0.0, 0.0), QuadrupolarConstant(1.0))


def test_scale_density_round_trip():
    c = QuadrupolarConstant(3.7e8)
    j = SpectralDensities(5.9e-7, 2.7e-8, 1.28e-9)
    back = densities_from_fit(tuple(c.c * v for v in j.as_tuple()), c)
    np.testing.assert_allclose(back.as_tuple(), j.as_tuple(), rtol=1e-15)
