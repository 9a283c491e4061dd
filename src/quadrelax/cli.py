"""Batch command-line front end.

Subcommands: rates, evolve, fit, bloch, ilt, validate.  Physics inputs come
from a flat ``key = value`` config file and/or flags (flags win).  Exit codes:
0 success, 1 computation failure, 2 usage error, 3 malformed data file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, evolution
from .curves import (DataFormatError, DecayCurve, data_lines, format_table, number_format,
                     parse_finite, read_curve, write_text)
from .phys_params import (QuadrupolarConstant, SpectralDensities,
                          lorentzian_spectral_densities, densities_from_fit,
                          quadrupolar_constant_simplified)
from .redfield_core import (_rates_from_eigenvalues, sector_spectra,
                            validate_against_reference_tables)
# no subcommand calls it any more; bench/test_bench_stats.py still expects the tracer
# to patch this name in cli's namespace, so it stays imported until the benchmark changes
from .redfield_core import numeric_eigensystem  # noqa: F401

EXIT_OK, EXIT_COMPUTE, EXIT_USAGE, EXIT_DATA = 0, 1, 2, 3

_CONFIG_KEYS = ("larmor_freq", "quad_freq", "correlation_time",
                "j0", "j1", "j2", "c_override", "equilibrium", "out")
#: the inputs RunConfig.densities reads
_DENSITY_KEYS = ("larmor_freq", "correlation_time", "j0", "j1", "j2")


@dataclass
class RunConfig:
    larmor_freq: float | None = None
    quad_freq: float | None = None
    correlation_time: float | None = None
    j0: float | None = None
    j1: float | None = None
    j2: float | None = None
    c_override: float | None = None
    equilibrium: str = "pure_top"
    out: str = "."

    def densities(self) -> SpectralDensities:
        explicit = all(v is not None for v in (self.j0, self.j1, self.j2))
        from_tau = self.correlation_time is not None
        if explicit and from_tau:
            raise ValueError("give either correlation_time or explicit j0/j1/j2, not both")
        if explicit:
            return SpectralDensities(self.j0, self.j1, self.j2)
        if from_tau:
            if self.larmor_freq is None:
                raise ValueError("correlation_time needs larmor_freq as well")
            return lorentzian_spectral_densities(self.larmor_freq, self.correlation_time)
        raise ValueError("no spectral densities: set correlation_time (+larmor_freq) or j0/j1/j2")

    def constant(self) -> QuadrupolarConstant:
        if self.c_override is not None:
            return QuadrupolarConstant(self.c_override)
        if self.quad_freq is not None:
            return quadrupolar_constant_simplified(self.quad_freq)
        raise ValueError("no quadrupolar constant: set quad_freq or c_override")


_NAMED_STATES = {"noon": evolution.DensityState.noon,
                 "pure_top": evolution.DensityState.pure_top,
                 "uniform": evolution.DensityState.uniform}


def _state_name(*names: str):
    """An argparse type accepting one of ``names`` or file:PATH with a non-empty PATH."""
    def parse(text: str) -> str:
        if text in names or (text.startswith("file:") and len(text) > len("file:")):
            return text
        raise argparse.ArgumentTypeError(
            f"unknown state {text!r} ({', '.join(names)} or file:PATH)")
    return parse


#: --state takes every named preparation, --equilibrium (and the config key) the
#: diagonal ones
_initial_state_name = _state_name(*_NAMED_STATES)
_equilibrium_name = _state_name("pure_top", "uniform")


def _state(name: str) -> evolution.DensityState:
    """The state a checked name gives: a named preparation, or the diagonal
    populations of file:PATH."""
    if name in _NAMED_STATES:
        return _NAMED_STATES[name]()
    return _diagonal_state_from_file(Path(name[len("file:"):]))


def _diagonal_state_from_file(path: Path) -> evolution.DensityState:
    values = []
    for lineno, line in data_lines(path):
        for tok in line.replace(",", " ").split():
            values.append(parse_finite(tok, path, lineno))
            if values[-1] < 0:
                raise DataFormatError(f"{path}:{lineno}: negative population {tok!r}")
    if len(values) != 8:
        raise DataFormatError(f"{path}: expected 8 diagonal populations, got {len(values)}")
    diag = np.array(values)
    if abs(diag.sum() - 1.0) > 1e-9:
        raise DataFormatError(f"{path}: populations must sum to 1, got {diag.sum()!r}")
    return evolution.DensityState(np.diag(diag).astype(complex))


def load_config(path: Path) -> RunConfig:
    cfg = RunConfig()
    for lineno, line in data_lines(path):
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise DataFormatError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "equilibrium":
            try:
                cfg.equilibrium = _equilibrium_name(value)
            except argparse.ArgumentTypeError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
        elif key == "out":
            cfg.out = value
        else:
            setattr(cfg, key, parse_finite(value, path, lineno))
    return cfg


def _apply_flag_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """The config file's values with the flags applied; creates the output directory
    if it is missing."""
    cfg = load_config(Path(args.config)) if args.config else RunConfig()
    cfg = _apply_flag_overrides(cfg, args)
    out = Path(cfg.out)
    # one stat when it exists; mkdir(exist_ok=True) alone would first fail with EEXIST
    if not out.is_dir():
        out.mkdir(parents=True, exist_ok=True)
    return cfg


# ---------------------------------------------------------------------------
# table emission (the documented format)
# ---------------------------------------------------------------------------

def format_number(x: float, raw: bool) -> str:
    return number_format(raw) % float(x)


def _table_text(columns: list[str], rows, raw: bool, int_columns: int = 0) -> str:
    """The '# columns:' header line and one line per row, each value as format_number
    writes it and the first int_columns as integers; no final newline."""
    return format_table("# columns: " + " ".join(columns), rows, raw, int_columns=int_columns)


def write_table(path: Path, columns: list[str], rows, raw: bool = True,
                int_columns: int = 0) -> None:
    write_text(path, _table_text(columns, rows, raw, int_columns) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_rates(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    j = cfg.densities()
    c = cfg.constant()
    orders = range(8) if args.q == "all" else (int(args.q),)
    rows = [(q, p, rate, 1.0 / rate if rate > 0 else np.inf)
            for q, lam in sector_spectra(j.as_tuple(), orders).items()
            for p, rate in enumerate(_rates_from_eigenvalues(lam, c), start=1)]
    out = Path(cfg.out) / "rates.txt"
    write_table(out, ["q", "p", "rate_hz", "time_s"], rows, raw=args.raw, int_columns=2)
    print(f"wrote {out} ({len(rows)} modes; C = {format_number(c.c, args.raw)} Hz^2)")
    return EXIT_OK


def _parse_elements(spec: str) -> list[tuple[int, int]]:
    """The one-based (row, col) pairs of an --elements spec 'row,col;row,col', each in 1..8."""
    pairs = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            row, col = (int(bit) for bit in part.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad element {part!r} (use 'row,col;row,col')") from None
        if not (1 <= row <= 8 and 1 <= col <= 8):
            raise argparse.ArgumentTypeError(f"element ({row},{col}) outside 1..8")
        pairs.append((row, col))
    if not pairs:
        raise argparse.ArgumentTypeError(f"no elements in {spec!r}")
    return pairs


def _cmd_evolve(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    j = cfg.densities()
    c = cfg.constant()
    rho0, rho_eq = _state(args.state), _state(cfg.equilibrium)
    times = np.linspace(0.0, args.t_max, args.points)
    traj = evolution.propagate(rho0, rho_eq, j, c, times,
                               [(row - 1, col - 1) for row, col in args.elements])
    columns, values = ["t_seconds"], [times]
    for (row, col), v in zip(args.elements, traj.T):
        columns += [f"re_{row}_{col}", f"im_{row}_{col}"]
        values += [v.real, v.imag]
    out = Path(cfg.out) / "trajectory.txt"
    write_table(out, columns, np.column_stack(values), raw=True)
    print(f"wrote {out} ({len(times)} times, {len(args.elements)} elements)")
    return EXIT_OK


def _mode_table(model: evolution.MagnetizationModel) -> list[tuple[int, float, float]]:
    """(n, amplitude, time) per mode.  joint_models gives the amplitudes that are zero
    by symmetry as exact zeros; adding 0.0 prints a zero as 0, not -0, whatever the
    sign of the scale."""
    amps = model.scale * model.amplitudes + 0.0
    return [(n, amp, 1.0 / rate if rate > 0 else np.inf)
            for n, (amp, rate) in enumerate(zip(amps, model.rates), start=1)]


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    c = cfg.constant()
    paths = (args.long, args.trans)
    curves = [read_curve(path) for path in paths]
    if args.normalize:
        for k, (path, curve) in enumerate(zip(paths, curves)):
            peak = np.max(np.abs(curve.amplitudes))
            if peak == 0:
                raise DataFormatError(f"{path}: every amplitude is 0, so --normalize "
                                      "has no maximum to divide by")
            # the sigmas too, so that both curves keep their relative weights
            curves[k] = DecayCurve(curve.times, curve.amplitudes / peak,
                                   None if curve.sigmas is None else curve.sigmas / peak)
    long_curve, trans_curve = curves
    init = dict(b0=args.init_b0, b1=args.init_b1, b2=args.init_b2)
    result = analysis.fit_redfield_joint(long_curve, trans_curve, init,
                                         restarts=args.restarts, seed=args.seed)
    densities = densities_from_fit(result.scales(), c)
    # an undetermined a2z (nan) comes with a1z = 0, where the longitudinal model is 0
    # for every a2z
    long_model, trans_model = analysis.joint_models(
        dict(result.params, a2z=np.nan_to_num(result.params["a2z"])))

    out_dir = Path(cfg.out)
    report = [
        "# quadrelax joint fit report",
        f"converged = {str(result.converged).lower()}",
        f"evaluations = {result.evaluations}",
        f"residual_norm = {format_number(result.residual_norm, args.raw)}",
        f"seed = {args.seed}",
        f"restarts = {args.restarts}",
    ]
    for name in analysis.PARAM_NAMES:
        value = f"{name} = {format_number(result.params[name], args.raw)}"
        if np.isnan(result.params[name]):
            report.append(f"{name} = undetermined")
        elif name in result.uncertainties:
            report.append(f"{value} +/- {format_number(result.uncertainties[name], args.raw)}")
        else:
            report.append(f"{value}  # fixed: the data determine only a1x*a2x, reported as a1x")
    report.append(f"c_hz2 = {format_number(c.c, args.raw)}")
    for label, value in zip(("j0", "j1", "j2"), densities.as_tuple()):
        report.append(f"{label}_seconds = {format_number(value, args.raw)}")
    for label, scale, curve, model in (("longitudinal", "a1z", long_curve, long_model),
                                       ("transverse", "a1x", trans_curve, trans_model)):
        report += ["", f"[{label}_modes]  # amplitudes include the scale {scale}",
                   _table_text(["n", "amplitude", "time_seconds"], _mode_table(model),
                               args.raw, int_columns=1)]
        dense = np.linspace(curve.times[0], curve.times[-1], 500)
        write_table(out_dir / f"fit_{label}_model.txt", ["t_seconds", "model"],
                    np.column_stack([dense, model.evaluate(dense)]))
        fitted = model.evaluate(curve.times)
        write_table(out_dir / f"fit_{label}_data.txt", ["t_seconds", "data", "model", "residual"],
                    np.column_stack([curve.times, curve.amplitudes, fitted,
                                     curve.amplitudes - fitted]))
    report_path = out_dir / "fit_report.txt"
    write_text(report_path, "\n".join(report) + "\n")
    print(f"wrote {report_path} (residual_norm = {format_number(result.residual_norm, args.raw)})")
    print(f"B = ({format_number(result.params['b0'], args.raw)}, "
          f"{format_number(result.params['b1'], args.raw)}, "
          f"{format_number(result.params['b2'], args.raw)}) Hz")
    return EXIT_OK


def _cmd_bloch(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if not args.long and not args.trans:
        raise ValueError("bloch needs --long and/or --trans")
    lines = ["# quadrelax Bloch mono-exponential report"]
    if args.long:
        fit = analysis.fit_bloch_longitudinal(read_curve(args.long))
        lines += [f"longitudinal_converged = {str(fit.converged).lower()}",
                  f"a0z = {format_number(fit.a0, args.raw)} +/- {format_number(fit.uncertainties[0], args.raw)}",
                  f"a1z = {format_number(fit.a1, args.raw)} +/- {format_number(fit.uncertainties[1], args.raw)}",
                  f"t1_seconds = {format_number(fit.t1, args.raw)} +/- {format_number(fit.uncertainties[2], args.raw)}"]
    if args.trans:
        fit = analysis.fit_bloch_transverse(read_curve(args.trans))
        lines += [f"transverse_converged = {str(fit.converged).lower()}",
                  f"a1x = {format_number(fit.a1, args.raw)} +/- {format_number(fit.uncertainties[0], args.raw)}",
                  f"t2_seconds = {format_number(fit.t2, args.raw)} +/- {format_number(fit.uncertainties[1], args.raw)}"]
    out = Path(cfg.out) / "bloch_report.txt"
    write_text(out, "\n".join(lines) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_ilt(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    curve = read_curve(args.curve)
    dist = analysis.ilt(curve, (args.t_min, args.t_max, args.points), args.alpha,
                        kernel=args.kernel)
    out = Path(cfg.out) / "distribution.txt"
    write_table(out, ["time_seconds", "weight"],
                np.column_stack([dist.grid, dist.weights]))
    print(f"wrote {out} (alpha = {format_number(dist.alpha, args.raw)}, "
          f"residual = {format_number(dist.residual, args.raw)}, "
          f"condition = {format_number(dist.condition, args.raw)})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if any(getattr(cfg, key) is not None for key in _DENSITY_KEYS):
        j = cfg.densities()
    else:
        rng = np.random.default_rng(args.seed)
        j0 = rng.uniform(1.0, 10.0)
        j1 = rng.uniform(0.2, j0)
        j2 = rng.uniform(0.1, j1)
        j = SpectralDensities(j0, j1, j2)
        print(f"no densities configured; using seeded random triple "
              f"({j.j0:.6g}, {j.j1:.6g}, {j.j2:.6g})")
    report = validate_against_reference_tables(j)
    lines = [
        "# quadrelax reference-table conformance report",
        f"j0 = {j.j0!r}",
        f"j1 = {j.j1!r}",
        f"j2 = {j.j2!r}",
        f"q0_max_rel = {report.q0_max_rel!r}",
        f"q1_max_rel = {report.q1_max_rel!r}",
    ]
    for q, dev in report.spectra_max_rel:
        lines.append(f"q{q}_spectrum_max_rel = {dev!r}")
    lines.append(f"printed_variant_max_abs = {report.printed_variant_max_abs!r}"
                 "  # five as-published q=1 row-6 cells, see README")
    out = Path(cfg.out) / "validate_report.txt"
    write_text(out, "\n".join(lines) + "\n")
    ok = report.max_relative_deviation < 1e-10
    print(f"max relative deviation {'<' if ok else '>='} 1e-10 "
          f"({report.max_relative_deviation:.3e}); wrote {out}")
    return EXIT_OK if ok else EXIT_COMPUTE


# ---------------------------------------------------------------------------

def _int_at_least(minimum: int):
    """An argparse type: int(text); a non-integer or one below minimum is a usage
    error with one message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _float_or_nan(text: str) -> float:
    """float(text), or nan for a non-number, so that one check rejects both."""
    try:
        return float(text)
    except ValueError:
        return np.nan


def _positive_float(text: str) -> float:
    """float(text); a non-number, nan, +inf or a value <= 0 is a usage error with one message."""
    value = _float_or_nan(text)
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _finite_float(text: str) -> float:
    """float(text); a non-number, nan or +-inf is a usage error with one message."""
    value = _float_or_nan(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


#: the flags several subcommands share; each subcommand adds only those it reads
_SHARED_FLAGS = {
    "--config": dict(help="key = value config file"),
    "--out": dict(help="output directory (default '.')"),
    "--seed": dict(type=int, default=0, help="deterministic seed"),
    "--raw": dict(action="store_true", help="full-precision numbers in reports"),
    "--larmor-freq": dict(type=_finite_float, help="Hz"),
    "--tau-c": dict(type=_finite_float, dest="correlation_time", help="seconds"),
    "--j0": dict(type=_finite_float, help="seconds"),
    "--j1": dict(type=_finite_float, help="seconds"),
    "--j2": dict(type=_finite_float, help="seconds"),
    "--quad-freq": dict(type=_finite_float, help="Hz"),
    "--c": dict(type=_finite_float, dest="c_override", help="Hz^2"),
    "--equilibrium": dict(type=_equilibrium_name, help="pure_top | uniform | file:PATH"),
}
_DENSITY_FLAGS = ("--larmor-freq", "--tau-c", "--j0", "--j1", "--j2")
_CONSTANT_FLAGS = ("--quad-freq", "--c")


def build_parser() -> argparse.ArgumentParser:
    return _parser_and_commands()[0]


def _parser_and_commands() -> tuple[argparse.ArgumentParser, dict]:
    """A new parser and {name: subparser} of its subcommands."""
    parser = argparse.ArgumentParser(
        prog="quadrelax",
        description="Spin-7/2 quadrupolar relaxation: rates, trajectories, fits")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary, *shared):
        p = commands[name] = sub.add_parser(name, help=summary)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("rates", _cmd_rates, "per-order relaxation rate table",
                "--config", "--out", "--raw", *_DENSITY_FLAGS, *_CONSTANT_FLAGS)
    p.add_argument("--q", default="all", choices=("all", *map(str, range(8))),
                   help="coherence order or 'all'")

    p = command("evolve", _cmd_evolve, "density-matrix element trajectory",
                "--config", "--out", *_DENSITY_FLAGS, *_CONSTANT_FLAGS, "--equilibrium")
    p.add_argument("--state", type=_initial_state_name, default="noon",
                   help="noon | pure_top | uniform | file:PATH")
    p.add_argument("--t-max", type=_positive_float, required=True, help="seconds")
    p.add_argument("--points", type=_int_at_least(1), default=200)
    p.add_argument("--elements", type=_parse_elements, default="1,1;8,8;8,1",
                   help="semicolon-separated one-based 'row,col' pairs")

    p = command("fit", _cmd_fit, "joint least-squares fit of both curves",
                "--config", "--out", "--seed", "--raw", *_CONSTANT_FLAGS)
    p.add_argument("--long", required=True, help="longitudinal curve CSV")
    p.add_argument("--trans", required=True, help="transverse curve CSV")
    p.add_argument("--restarts", type=_int_at_least(1), default=16)
    p.add_argument("--normalize", action="store_true",
                   help="max-abs normalize both curves before fitting")
    p.add_argument("--init-b0", type=_finite_float, default=100.0)
    p.add_argument("--init-b1", type=_finite_float, default=5.0)
    p.add_argument("--init-b2", type=_finite_float, default=0.3)

    p = command("bloch", _cmd_bloch, "mono-exponential T1/T2 baselines",
                "--config", "--out", "--raw")
    p.add_argument("--long", help="longitudinal curve CSV")
    p.add_argument("--trans", help="transverse curve CSV")

    p = command("ilt", _cmd_ilt, "regularized relaxation-time distribution",
                "--config", "--out", "--raw")
    p.add_argument("--curve", required=True, help="curve CSV")
    p.add_argument("--t-min", type=_positive_float, required=True, help="seconds")
    p.add_argument("--t-max", type=_positive_float, required=True, help="seconds, above --t-min")
    p.add_argument("--points", type=_int_at_least(2), default=64)
    p.add_argument("--alpha", type=_finite_float, default=None,
                   help="Tikhonov weight (default: discrepancy principle)")
    p.add_argument("--kernel", choices=("decay", "recovery"), default="decay")

    command("validate", _cmd_validate, "reference-table conformance check",
            "--config", "--out", "--seed", *_DENSITY_FLAGS)

    return parser, commands


#: the parser main uses and its subcommands, built on its first call; argparse keeps
#: no state between parse_args calls, so one instance serves every call in the process
_parser = functools.lru_cache(maxsize=1)(_parser_and_commands)


def _parse_args(argv) -> argparse.Namespace:
    """parser.parse_args(argv), scanning the arguments once.  argparse hands everything
    after a known command name to its subparser, so that subparser parses them here
    directly; what it does not know is reported by the top-level parser, as
    parse_args does.  No command, -h or an unknown command goes to the top level."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.command == "ilt" and not args.t_max > args.t_min:
        _parser()[0].error(f"ilt: --t-max {args.t_max!r} must exceed --t-min {args.t_min!r}")
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # computation failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
