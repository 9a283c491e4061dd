"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Reference inputs: Larmor frequency 47.24 MHz, correlation time 4.1 ns and
quadrupolar frequency 266 kHz for the theoretical rate set; rate scales
B = (83, 3.8, 0.18) Hz with C from nu_Q = 5969 Hz for the experimental set.

Criterion 6 is split: the slowest published transverse time (49 +/- 2 ms)
cannot be reproduced from the defining block assembly at the published
parameters (the assembled q=1 block gives 39.6 ms; even the as-published
q=1 matrix variant gives 52.5 ms).  That sub-check is kept faithful and
marked as a strict expected failure; see README.md, 'Known deviations'.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import quadrelax as qr

NU_LARMOR = 47.24e6
TAU_C = 4.1e-9
NU_Q_THEO = 266e3
NU_Q_EXP = 5969.0
TABLE2 = dict(a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99, b0=83.0, b1=3.8, b2=0.18)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {verdict} ({self.elapsed:.2f} s) - {self.description}")
        return False


def random_j(rng):
    j0 = rng.uniform(0.5, 10.0)
    j1 = rng.uniform(0.1, j0)
    j2 = rng.uniform(0.05, j1)
    return qr.SpectralDensities(j0, j1, j2)


def reference_inputs():
    j = qr.lorentzian_spectral_densities(NU_LARMOR, TAU_C)
    c = qr.quadrupolar_constant_simplified(NU_Q_THEO)
    return j, c


def test_criterion_1_table1_rates():
    with criterion(1, "q=0 rate multiset and q=7 rate at the reference inputs") as check:
        j, c = reference_inputs()
        es0 = qr.numeric_eigensystem(qr.assemble_block(0, j), c)
        want = np.array([0.0, 4.13e3, 14.82e3, 15.85e3, 28.32e3, 34.04e3, 56.41e3, 56.98e3])
        got = np.sort(es0.rates)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], np.sort(want)[1:], rtol=5e-3)
        es7 = qr.numeric_eigensystem(qr.assemble_block(7, j), c)
        assert es7.rates[0] == pytest.approx(21.69e3, rel=1e-3)
        assert check.elapsed < 1.0


def test_criterion_2_spectral_density_reproduction():
    with criterion(2, "Lorentzian model reproduces the reference J triple within 2%"):
        j = qr.lorentzian_spectral_densities(NU_LARMOR, TAU_C)
        for got, want in zip(j.as_tuple(), (8.2e-9, 3.3e-9, 1.2e-9)):
            assert abs(got - want) / want < 0.02


def test_criterion_3_reference_table_conformance():
    with criterion(3, "table conformance over 1000 random J triples to 1e-9") as check:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            report = qr.validate_against_reference_tables(random_j(rng))
            worst = max(worst, report.max_relative_deviation)
        assert worst < 1e-9
        assert check.elapsed < 10.0


def test_criterion_4_transformation_validity():
    with criterion(4, "W W_bar = identity to 1e-10, analytic and numeric"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            j = random_j(rng)
            for q in range(2, 7):
                es = qr.analytic_eigensystem(q, j)
                np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), atol=1e-10)
            for q in range(8):
                es = qr.numeric_eigensystem(qr.assemble_block(q, j))
                np.testing.assert_allclose(es.w @ es.w_bar, np.eye(8 - q), atol=1e-10)


def test_criterion_5_oracle_equivalence():
    with criterion(5, "mode-sum evolution equals matrix-exponential integration"):
        rng = np.random.default_rng(11)
        _, c = reference_inputs()
        for _ in range(5):
            j = random_j(rng)
            scale = 1.0 / c.c  # keep rate * time of order one
            jj = qr.SpectralDensities(j.j0 * scale, j.j1 * scale, j.j2 * scale)
            raw = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            m = raw @ raw.conj().T
            rho0 = qr.DensityState(m / np.trace(m).real)
            eq = qr.DensityState.uniform()
            systems = {q: qr.numeric_eigensystem(qr.assemble_block(q, jj), c) for q in range(8)}
            for q in range(8):
                blk = qr.assemble_block(q, jj).matrix
                dev = rho0.coherence_vector(q) - eq.coherence_vector(q)
                for t in (0.0, 0.05, 0.3, 1.0):
                    got = qr.evolve_block(systems[q], rho0, eq, t)
                    want = eq.coherence_vector(q) + expm(c.c * blk * t) @ dev
                    np.testing.assert_allclose(got, want, atol=1e-9)
            pairs = [(row, col) for row in range(8) for col in range(8)]
            traj = qr.propagate(rho0, eq, jj, c, np.linspace(0.0, 1.0, 7), pairs).reshape(-1, 8, 8)
            trace = np.trace(traj, axis1=1, axis2=2)
            assert np.all(np.abs(trace.real - 1.0) <= 1e-10)
            herm = np.max(np.abs(traj - np.conj(np.swapaxes(traj, 1, 2))))
            assert herm < 1e-10


def _experimental_models():
    scales = (TABLE2["b0"], TABLE2["b1"], TABLE2["b2"])
    es0 = qr.numeric_eigensystem(qr.CoherenceBlock(0, qr.evaluate_block(0, scales)))
    es1 = qr.numeric_eigensystem(qr.CoherenceBlock(1, qr.evaluate_block(1, scales)))
    long_model = qr.build_longitudinal_model(es0, TABLE2["a1z"], TABLE2["a2z"])
    trans_model = qr.build_transverse_model(es1, TABLE2["a1x"], TABLE2["a2x"])
    return long_model, trans_model


def test_criterion_6_mode_structure():
    with criterion(6, "mode times at the experimental parameter set (attainable part)") as check:
        long_model, trans_model = _experimental_models()
        long_times = 1e3 / long_model.rates[long_model.rates > 0]
        for want in (4.6, 11.5, 38.0, 310.0):
            assert np.min(np.abs(long_times - want) / want) < 0.05, want
        trans_times = 1e3 / trans_model.rates
        for want in (1.15, 2.3, 7.7):
            assert np.min(np.abs(trans_times - want) / want) < 0.05, want
        assert check.elapsed < 1.0


@pytest.mark.xfail(strict=True,
                   reason="the 49 ms transverse component is not reproducible from the "
                          "defining block assembly at the published parameters "
                          "(assembled: 39.6 ms; as-published q=1 matrix variant: 52.5 ms); "
                          "see README.md, Known deviations")
def test_criterion_6_transverse_slow_mode():
    with criterion('6 (49 ms sub-check)', "slowest transverse time within 5% of 49 ms"):
        _, trans_model = _experimental_models()
        slowest_ms = 1e3 / np.min(trans_model.rates)
        assert abs(slowest_ms - 49.0) / 49.0 < 0.05, f"got {slowest_ms:.2f} ms"


def test_criterion_7_fit_round_trip():
    with criterion(7, "joint fit recovers the generating parameters through noise") as check:
        times_long = np.logspace(np.log10(2e-3), np.log10(1.5), 24)
        times_trans = np.arange(1, 266) / NU_Q_EXP
        sz, sx = qr.joint_model_curves(TABLE2, times_long, times_trans)
        rng = np.random.default_rng(42)
        long_curve = qr.DecayCurve(times_long, sz + 0.01 * rng.standard_normal(sz.size))
        trans_curve = qr.DecayCurve(times_trans, sx + 0.01 * rng.standard_normal(sx.size))
        c = qr.quadrupolar_constant_simplified(NU_Q_EXP)
        init = dict(a1z=0.04, a2z=1.5, a1x=0.03, a2x=1.5, b0=150.0, b1=2.0, b2=0.1)
        result = qr.fit_redfield_joint(long_curve, trans_curve, init, restarts=16, seed=0)
        assert abs(result.params["b0"] - TABLE2["b0"]) / TABLE2["b0"] < 0.05
        assert abs(result.params["b1"] - TABLE2["b1"]) / TABLE2["b1"] < 0.05
        assert abs(result.params["b2"] - TABLE2["b2"]) < 0.08
        j = qr.densities_from_fit(result.scales(), c)
        assert abs(j.j0 - 590e-9) < 50e-9
        assert abs(j.j1 - 27e-9) < 2e-9
        assert abs(j.j2 - 1.28e-9) < 0.05e-9
        assert check.elapsed < 60.0


def test_criterion_8_bloch_fits():
    with criterion(8, "Bloch baselines: synthetic recovery and Redfield comparison"):
        # own-model synthetic data, 4 significant digits
        t = np.linspace(5e-3, 1.5, 40)
        y = 0.04920 + 0.92450 * (1 - 2 * np.exp(-t / 0.29302))
        fit_l = qr.fit_bloch_longitudinal(qr.DecayCurve(t, y))
        assert fit_l.t1 == pytest.approx(0.29302, rel=5e-5)
        t2grid = np.linspace(1e-4, 0.05, 60)
        y2 = 0.89450 * np.exp(-t2grid / 9.7532e-3)
        fit_t = qr.fit_bloch_transverse(qr.DecayCurve(t2grid, y2))
        assert fit_t.t2 == pytest.approx(9.7532e-3, rel=5e-5)
        # multiexponential curve: effective T1 lands near the dominant mode
        t_ir = np.linspace(0.05, 2.0, 24)
        sz, _ = qr.joint_model_curves(TABLE2, t_ir, t_ir)
        fit_multi = qr.fit_bloch_longitudinal(qr.DecayCurve(t_ir, sz))
        assert abs(fit_multi.t1 - 0.310) / 0.310 < 0.10


def test_criterion_9_ilt_properties():
    with criterion(9, "non-negative weights; single-exponential localization"):
        rng = np.random.default_rng(3)
        for t_true in (0.01, 0.1, 0.5):
            t = np.logspace(-3, 0.5, 150)
            y = np.exp(-t / t_true) + 1e-3 * rng.standard_normal(t.size)
            dist = qr.ilt(qr.DecayCurve(t, y), (1e-3, 10.0, 64), alpha=None)
            assert np.all(dist.weights >= 0)
            idx = int(np.argmin(np.abs(dist.grid - t_true)))
            near = dist.weights[max(idx - 1, 0):idx + 2].sum()
            assert near >= 0.9 * dist.weights.sum()


def test_criterion_10_corner_state_trajectory():
    # The published per-mode amplitude columns sum to -/+7.0 for an initial
    # population deviation of -/+0.5 (a factor-14 inconsistency), so the shape
    # of the corner-state trajectory is checked instead of those columns.
    with criterion(10, "corner-state trajectory shape (amplitude-table substitute)"):
        j, c = reference_inputs()
        times = np.linspace(0.0, 1.5e-3, 120)
        traj = qr.propagate(qr.DensityState.noon(), qr.DensityState.pure_top(), j, c, times,
                            [(0, 0), (7, 7), (7, 0)])
        rho11 = traj[:, 0].real
        rho88 = traj[:, 1].real
        rho81 = np.abs(traj[:, 2])
        assert rho11[-1] > 0.97 and np.all(np.diff(rho11) > 0)
        assert rho88[-1] < 0.03 and rho81[-1] < 1e-9
        slowest_population_mode = np.exp(-4.13e3 * times[1:])
        assert np.all(rho81[1:] / rho81[0] < slowest_population_mode)
        # document the inconsistency: the true mode amplitudes of the
        # rho_11 element sum to the initial deviation, -0.5, not -7.0
        es0 = qr.numeric_eigensystem(qr.assemble_block(0, j), c)
        dev = (qr.DensityState.noon().coherence_vector(0)
               - qr.DensityState.pure_top().coherence_vector(0))
        contributions = es0.w_bar[0, :] * (es0.w @ dev)
        assert np.sum(contributions) == pytest.approx(-0.5, abs=1e-12)
        assert np.sum(contributions) * 14 == pytest.approx(-7.0, abs=1e-10)
