"""The three workloads: seeded inputs, one op each, and an output check per op.

Each workload makes op ``i``'s inputs from ``(seed, i)`` alone, as CSV files
or CLI flags, runs the op through the program's public entry points
(``quadrelax.cli.main`` in-process and named library functions), and checks
the outputs with a path other than the one under test.  ``make_input`` and
``check`` run outside the timed interval; ``run`` is the op.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from quadrelax import cli, redfield_core, spin_algebra
from quadrelax.phys_params import QuadrupolarConstant, SpectralDensities

from stats import OK, Tally, Verdict, failed, wrong

#: exact checks hold to this relative (rates) or absolute (unit-scale) tolerance
EXACT_TOL = 1e-9
BENCH = Path(__file__).resolve().parent


def run_cli(argv: list[str]) -> int:
    """Exit code of ``quadrelax.cli.main(argv)``; its console output is discarded,
    so that the benchmark's own standard output stays parseable."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def read_columns(path: Path) -> dict[str, np.ndarray]:
    """The benchmark's own reader for the CLI's ``# columns:`` tables."""
    columns, rows = None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# columns:"):
            columns = line[len("# columns:"):].split()
        elif line.strip() and not line.startswith("#"):
            rows.append([float(tok) for tok in line.split()])
    if columns is None or not rows:
        raise ValueError(f"{path.name}: no table")
    data = np.array(rows)
    return {name: data[:, k] for k, name in enumerate(columns)}


def read_report(path: Path) -> dict[str, str]:
    """``key = value`` lines of a CLI report (the part before any ``+/-`` or comment)."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, rest = line.partition(" = ")
        if sep and not line.startswith("#"):
            values[key.strip()] = rest.split("#", 1)[0].split("+/-", 1)[0].strip()
    return values


def lorentzian(larmor_hz: float, tau_c: float) -> tuple[float, float, float]:
    w0 = 2 * math.pi * larmor_hz
    return tuple(2 * tau_c / (1 + (p * w0 * tau_c) ** 2) for p in (0, 1, 2))


def simplified_c(quad_freq_hz: float) -> float:
    return (2 * math.pi * quad_freq_hz) ** 2 / 10


def _read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(times, amplitudes) of a ``t_seconds,amplitude`` CSV file."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1]


def _unlink(*paths: Path) -> None:
    for p in paths:
        p.unlink(missing_ok=True)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.root = root
        self.out = workdir / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def notes(self) -> dict:
        """Counts the checks kept beside the verdicts, for the results file."""
        return {}


# ---------------------------------------------------------------------------
# fit: the paper's joint analysis of both decay curves
# ---------------------------------------------------------------------------

class SignalOracle:
    """The joint model's two signals from ``expm`` of the full Liouville
    superoperator at the rate scales B (the structural oracle), restricted to
    the populations for the longitudinal signal and to the q = +-1 elements
    for the transverse one; the superoperator keeps each set closed.

        Sz(t) = a1z Tr[Iz (Iz + exp(L t) (-a2z Iz - Iz))]
        Sx(t) = a1x Tr[Ix exp(L t) (a2x Ix)]
    """

    def __init__(self):
        ops = spin_algebra.make_spin_operators(7)
        self.quads = spin_algebra.make_quadrupole_operators(spin_algebra.SpinSystem(7))
        self.iz = ops.iz.real.reshape(-1)
        self.ix = ops.ix.real.reshape(-1)
        self.pop = np.flatnonzero(self.iz)
        self.coh = np.flatnonzero(self.ix)

    def curves(self, p: dict, times_long, times_trans) -> tuple[np.ndarray, np.ndarray]:
        gen = redfield_core.liouville_superoperator(
            self.quads, SpectralDensities(p["b0"], p["b1"], p["b2"]))
        lz, lx = gen[np.ix_(self.pop, self.pop)], gen[np.ix_(self.coh, self.coh)]
        iz, ix = self.iz[self.pop], self.ix[self.coh]
        dev_z, dev_x = -(p["a2z"] + 1) * iz, p["a2x"] * ix
        sz = [p["a1z"] * (iz @ iz + iz @ (expm(lz * t) @ dev_z)) for t in times_long]
        sx = [p["a1x"] * (ix @ (expm(lx * t) @ dev_x)) for t in times_trans]
        return np.array(sz), np.array(sx)

    def cost(self, p: dict, long, trans) -> float:
        """Unweighted sum of squared residuals of both curves, as the fit's objective."""
        sz, sx = self.curves(p, long[0], trans[0])
        return float(np.sum((sz - long[1]) ** 2) + np.sum((sx - trans[1]) ** 2))


class Fit(Workload):
    """CLI ``fit --raw`` on one curve pair: the bundled pair every
    ``BUNDLED_EVERY``-th op, otherwise a fresh 1%-noise realization of the
    criterion-7 curves (``data/generate.py``'s PARAMS, 24 inversion-recovery
    delays, 265 echoes at k/5969 s).  The noise-free curves are fixed files
    beside this module, so that the inputs do not depend on the program.

    The check asks what the fit must deliver on any data: a report whose
    ``residual_norm`` is the oracle's residual at the reported parameters, and
    a cost no higher than at the generating parameters, which are one point
    of the search space.  Whether B lands within criterion 7's bounds is a
    property of the noise realization, not of the program (a realization's
    least-squares optimum can lie outside them); it is counted and recorded,
    not failed.
    """

    name = "fit"
    PARAMS = dict(a1z=0.0230, a2z=1.00, a1x=0.019, a2x=0.99, b0=83.0, b1=3.8, b2=0.18)
    NOISE = 0.01
    NU_Q = 5969.0
    RESTARTS = 1
    BUNDLED_EVERY = 8

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.clean = [_read_curve(BENCH / f"criterion7_{kind}.csv")
                      for kind in ("longitudinal", "transverse")]
        self.report = self.out / "fit_report.txt"
        self.oracle = SignalOracle()
        self.outside_criterion7 = 0

    def record(self):
        return {"restarts": self.RESTARTS, "noise": self.NOISE, "nu_q_hz": self.NU_Q,
                "params": self.PARAMS, "bundled_pair_every": self.BUNDLED_EVERY,
                "samples": [t.size for t, _ in self.clean], "initial_guess": "CLI defaults"}

    def notes(self) -> dict:
        return {"b_outside_criterion7": self.outside_criterion7}

    def _write_curve(self, path: Path, times, values) -> None:
        lines = ["t_seconds,amplitude"] + [f"{t!r},{v!r}" for t, v in zip(times.tolist(), values.tolist())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def make_input(self, i: int):
        _unlink(self.report)
        if i % self.BUNDLED_EVERY == 0:
            return (str(self.root / "data" / "synthetic_longitudinal.csv"),
                    str(self.root / "data" / "synthetic_transverse.csv"))
        rng = self.rng(i)
        paths = (self.out / "long.csv", self.out / "trans.csv")
        for path, (times, values) in zip(paths, self.clean):
            self._write_curve(path, times, values + self.NOISE * rng.standard_normal(values.size))
        return tuple(str(p) for p in paths)

    def run(self, inp):
        long_path, trans_path = inp
        return run_cli(["fit", "--raw", "--quad-freq", repr(self.NU_Q), "--long", long_path,
                        "--trans", trans_path, "--restarts", str(self.RESTARTS),
                        "--out", str(self.out)])

    def check(self, inp, code: int) -> Verdict:
        if code != 0:
            return failed(f"fit exit {code}")
        try:
            report = read_report(self.report)
            params = {k: float(report[k]) for k in self.PARAMS}
            residual = float(report["residual_norm"])
            restarts = int(report["restarts"])
        except (OSError, KeyError, ValueError):
            return wrong("fit report unreadable")
        b = [params[k] for k in ("b0", "b1", "b2")]
        if (restarts != self.RESTARTS or not all(math.isfinite(v) for v in params.values())
                or min(b) < 0):
            return wrong("fit report inconsistent")
        long, trans = (_read_curve(Path(p)) for p in inp)
        cost = self.oracle.cost(params, long, trans)
        if abs(residual ** 2 - cost) > EXACT_TOL * cost:
            return wrong("residual_norm differs from the expm oracle")
        if cost > (1 + EXACT_TOL) * self.oracle.cost(self.PARAMS, long, trans):
            return failed("fit cost above that of the generating parameters")
        p = self.PARAMS
        if not (abs(params["b0"] - p["b0"]) / p["b0"] < 0.05
                and abs(params["b1"] - p["b1"]) / p["b1"] < 0.05
                and abs(params["b2"] - p["b2"]) < 0.08):
            self.outside_criterion7 += 1
        return OK


# ---------------------------------------------------------------------------
# forward: rate table and trajectory at one physical configuration
# ---------------------------------------------------------------------------

class Forward(Workload):
    """CLI ``rates`` then ``evolve --points 500`` at a seeded Larmor frequency,
    quadrupolar frequency and correlation time (omega0 tau_c from 1e-3 to 1e2)."""

    name = "forward"
    LARMOR_HZ = (20e6, 200e6)
    QUAD_HZ = (5e3, 500e3)
    W0_TAU = (1e-3, 1e2)
    STATES = ("noon", "pure_top", "uniform")
    POINTS = 500
    T_MAX_PER_Q7_TIME = 20.0
    CHECK_ROWS = (0, 37, 166, 333, 499)
    ELEMENTS = ((0, 0), (7, 7), (7, 0))  # zero-based; the CLI's default 1,1;8,8;8,1

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.quads = spin_algebra.make_quadrupole_operators(spin_algebra.SpinSystem(7))
        self.rates_path = self.out / "rates.txt"
        self.traj_path = self.out / "trajectory.txt"

    def record(self):
        return {"larmor_hz": self.LARMOR_HZ, "quad_freq_hz": self.QUAD_HZ,
                "omega0_tau_c": self.W0_TAU, "states": self.STATES, "points": self.POINTS,
                "t_max": f"{self.T_MAX_PER_Q7_TIME} / (C (21 J1 + 7 J2))",
                "equilibrium": "pure_top (CLI default)"}

    def make_input(self, i: int) -> dict:
        _unlink(self.rates_path, self.traj_path)
        rng = self.rng(i)
        larmor = 10 ** rng.uniform(*np.log10(self.LARMOR_HZ))
        quad = 10 ** rng.uniform(*np.log10(self.QUAD_HZ))
        tau_c = 10 ** rng.uniform(*np.log10(self.W0_TAU)) / (2 * math.pi * larmor)
        j = lorentzian(larmor, tau_c)
        c = simplified_c(quad)
        rate7 = c * (21 * j[1] + 7 * j[2])
        return dict(larmor=larmor, quad=quad, tau_c=tau_c, j=j, c=c, rate7=rate7,
                    t_max=self.T_MAX_PER_Q7_TIME / rate7, state=self.STATES[i % len(self.STATES)])

    def run(self, inp):
        physics = ["--larmor-freq", repr(inp["larmor"]), "--quad-freq", repr(inp["quad"]),
                   "--tau-c", repr(inp["tau_c"]), "--out", str(self.out)]
        rates = run_cli(["rates", "--raw", *physics])
        evolve = run_cli(["evolve", "--state", inp["state"], "--t-max", repr(inp["t_max"]),
                          "--points", str(self.POINTS), *physics])
        return rates, evolve

    def _initial_state(self, name: str) -> np.ndarray:
        m = np.zeros((8, 8), dtype=complex)
        if name == "noon":
            m[0, 0] = m[7, 7] = m[0, 7] = m[7, 0] = 0.5
        elif name == "pure_top":
            m[0, 0] = 1.0
        else:
            m = np.eye(8, dtype=complex) / 8
        return m

    def check(self, inp, codes) -> Verdict:
        for label, code in zip(("rates", "evolve"), codes):
            if code != 0:
                return failed(f"{label} exit {code}")
        try:
            rates = read_columns(self.rates_path)
            traj = read_columns(self.traj_path)
        except (OSError, ValueError):
            return wrong("output table unreadable")
        q, r = rates["q"], rates["rate_hz"]
        top = r[q == 7]
        if top.size != 1 or abs(top[0] - inp["rate7"]) > EXACT_TOL * inp["rate7"]:
            return wrong("q=7 rate differs from C (21 J1 + 7 J2)")
        if np.count_nonzero(r[q == 0] == 0.0) != 1 or np.any(r < 0):
            return wrong("q=0 zero rate not unique, or a negative rate")
        if traj["t_seconds"].size != self.POINTS:
            return wrong("trajectory length")
        # structural oracle: expm of the full Liouville superoperator
        j = SpectralDensities(*inp["j"])
        generator = inp["c"] * redfield_core.liouville_superoperator(self.quads, j)
        rho0 = self._initial_state(inp["state"])
        rho_eq = self._initial_state("pure_top")
        for row in self.CHECK_ROWS:
            t = traj["t_seconds"][row]
            rho = rho_eq + (expm(generator * t) @ (rho0 - rho_eq).reshape(-1)).reshape(8, 8)
            for a, b in self.ELEMENTS:
                got = complex(traj[f"re_{a + 1}_{b + 1}"][row], traj[f"im_{a + 1}_{b + 1}"][row])
                if abs(got - rho[a, b]) > EXACT_TOL:
                    return wrong(f"trajectory differs from expm oracle at row {row}")
        return OK


# ---------------------------------------------------------------------------
# conformance: reference tables and closed forms at one J triple
# ---------------------------------------------------------------------------

class Conformance(Workload):
    """CLI ``validate --j0 --j1 --j2`` plus ``analytic_eigensystem(q, J, C)`` for
    q = 2..7.  Every ``CORNER_EVERY``-th op is a documented corner, alternating
    between J1 = J2 and J0/J2 up to 1e5; the rest follow the criterion-3
    distribution.  The corner J0 = J1 = J2, where ``validate`` fails at most
    scales, is measured apart from the ops by ``equal_j_probe``: a draw with
    all three within ``NEAR_EQUAL`` of each other is drawn again."""

    name = "conformance"
    CORNER_EVERY = 4
    CORNERS = ("j1_eq_j2", "ratio_up_to_1e5")
    NU_Q = 5969.0

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.c = QuadrupolarConstant(simplified_c(self.NU_Q))
        self.report = self.out / "validate_report.txt"

    def record(self):
        return {"corner_share": 1 / self.CORNER_EVERY, "corners": self.CORNERS,
                "criterion_3": "j0 ~ U(0.5, 10), j1 ~ U(0.1, j0), j2 ~ U(0.05, j1)",
                "analytic_orders": [2, 7], "c_from_nu_q_hz": self.NU_Q}

    def make_input(self, i: int) -> SpectralDensities:
        _unlink(self.report)
        rng = self.rng(i)
        while True:
            j = self._draw(rng, i)
            if j.j0 - j.j2 >= NEAR_EQUAL * j.j0:  # every draw has j0 >= j1 >= j2
                return j

    def _draw(self, rng: np.random.Generator, i: int) -> SpectralDensities:
        j0 = rng.uniform(0.5, 10.0)
        j1 = rng.uniform(0.1, j0)
        j2 = rng.uniform(0.05, j1)
        if i % self.CORNER_EVERY == self.CORNER_EVERY - 1:
            corner = self.CORNERS[(i // self.CORNER_EVERY) % len(self.CORNERS)]
            if corner == "j1_eq_j2":
                j2 = j1
            else:
                j2 = rng.uniform(0.05, 1.0)
                ratio = 10 ** rng.uniform(0.0, 5.0)
                j0 = j2 * ratio
                j1 = j2 * 10 ** rng.uniform(0.0, math.log10(ratio))
        return SpectralDensities(j0, j1, j2)

    def run(self, j: SpectralDensities):
        code = run_cli(["validate", "--j0", repr(j.j0), "--j1", repr(j.j1), "--j2", repr(j.j2),
                        "--out", str(self.out)])
        systems = {}
        for q in range(2, 8):
            try:
                systems[q] = redfield_core.analytic_eigensystem(q, j, self.c)
            except redfield_core.DegenerateSpectrumError:
                systems[q] = None
            except Exception as exc:  # reported by the check as a failed op
                systems[q] = exc
        return code, systems

    def check(self, j, outcome) -> Verdict:
        code, systems = outcome
        for q, es in systems.items():
            if es is None:  # DegenerateSpectrumError is the documented correct answer
                continue
            if isinstance(es, Exception):
                return failed(f"analytic q={q} raised {type(es).__name__}")
            block = redfield_core.CoherenceBlock(q, redfield_core.evaluate_block(q, j.as_tuple()))
            ref = redfield_core.numeric_eigensystem(block, self.c).rates
            if (es.rates.shape != ref.shape
                    or np.max(np.abs(es.rates - ref)) > EXACT_TOL * np.max(np.abs(ref))
                    or np.max(np.abs(es.w @ es.w_bar - np.eye(ref.size))) > EXACT_TOL):
                return wrong(f"analytic q={q} differs from numeric eigensystem")
        if code != 0:
            return failed(f"validate exit {code}")
        try:
            deviations = [float(v) for k, v in read_report(self.report).items() if k.endswith("_max_rel")]
        except (OSError, ValueError):
            return wrong("validate report unreadable")
        if not deviations or max(deviations) >= EXACT_TOL:
            return wrong("validate passed with a deviation >= 1e-9")
        return OK


#: J triples that ``equal_j_probe`` runs
EQUAL_J_TRIPLES = 24
#: relative width of the neighbourhood of J0 = J1 = J2 that only the probe
#: visits; at the seed commit ``validate`` fails within about 3e-4 of it
NEAR_EQUAL = 1e-2


def equal_j_probe(seed: int, workdir: Path, root: Path) -> Tally:
    """The conformance op at ``EQUAL_J_TRIPLES`` seeded triples outside the
    timed ops: J0 = J1 = J2 = s with s ~ U(0.5, 10) for even k, and for odd k
    J2 = s, J1 = s (1 + d1), J0 = J1 (1 + d2) with d1, d2 log-uniform from
    1e-7 to ``NEAR_EQUAL``.  At and near the triple root of the q = 2
    closed-form cubic, ``validate`` exits 1; this keeps that known defect
    measured (``redfield_core.equal_j_fail_frac``) while the workloads' ops
    stay free of failures."""
    workload = Conformance(seed, workdir / "equal_j", root)
    rng = np.random.default_rng([seed, 2 ** 40])
    tally = Tally()
    for k in range(EQUAL_J_TRIPLES):
        s = rng.uniform(0.5, 10.0)
        d1, d2 = (0.0, 0.0) if k % 2 == 0 else 10 ** rng.uniform(-7, math.log10(NEAR_EQUAL), 2)
        j = SpectralDensities(float(s * (1 + d1) * (1 + d2)), float(s * (1 + d1)), s)
        try:
            tally.record(workload.check(j, workload.run(j)))
        except Exception as exc:  # a raising op is a failed op, as in run.py
            tally.record(failed(f"op raised {type(exc).__name__}"))
    return tally


WORKLOADS = {w.name: w for w in (Fit, Forward, Conformance)}

#: ops per pass of a traced run; fixed so that per-op counts repeat exactly
TRACE_OPS = {"fit": 10, "forward": 100, "conformance": 1000}
