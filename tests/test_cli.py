from pathlib import Path

import numpy as np
import pytest

from quadrelax.cli import (EXIT_DATA, EXIT_OK, build_parser, load_config,
                           main, read_table)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
from quadrelax.curves import (DataFormatError, DecayCurve, read_curve,
                              write_curve)

THEO_CFG = """\
larmor_freq = 47.24e6
quad_freq = 266e3
correlation_time = 4.1e-9
equilibrium = pure_top
"""


@pytest.fixture()
def theo_cfg(tmp_path):
    path = tmp_path / "theo.cfg"
    path.write_text(THEO_CFG)
    return path


# -- curve file format ---------------------------------------------------------

def test_curve_round_trip(tmp_path):
    curve = DecayCurve(np.array([0.1, 0.2, 0.4]), np.array([1.0, 0.5, 0.25]),
                       np.array([0.01, 0.01, 0.02]))
    path = tmp_path / "c.csv"
    write_curve(path, curve)
    back = read_curve(path)
    np.testing.assert_array_equal(back.times, curve.times)
    np.testing.assert_array_equal(back.amplitudes, curve.amplitudes)
    np.testing.assert_array_equal(back.sigmas, curve.sigmas)


def test_curve_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n0.1,1.0\n")
    with pytest.raises(DataFormatError):
        read_curve(path)


def test_curve_rejects_non_increasing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_seconds,amplitude\n0.2,1.0\n0.1,0.5\n")
    with pytest.raises(DataFormatError):
        read_curve(path)


def test_curve_allows_comments(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# a comment\nt_seconds,amplitude\n0.1,1.0  # trailing\n0.2,0.5\n")
    curve = read_curve(path)
    assert len(curve) == 2 and curve.sigmas is None


# -- parsing -------------------------------------------------------------------

def test_parse_rates_command():
    args = build_parser().parse_args(["rates", "--config", "theo.cfg", "--q", "all"])
    assert args.command == "rates" and args.q == "all" and args.config == "theo.cfg"


def test_parse_evolve_command():
    args = build_parser().parse_args(
        ["evolve", "--state", "noon", "--t-max", "1e-3", "--points", "500"])
    assert args.command == "evolve" and args.state == "noon"
    assert args.t_max == 1e-3 and args.points == 500


def test_parse_fit_command():
    args = build_parser().parse_args(
        ["fit", "--long", "long.csv", "--trans", "trans.csv", "--quad-freq", "5969"])
    assert args.command == "fit" and args.quad_freq == 5969.0


def test_unknown_flag_exits_2(capsys):
    # spin 7/2 is fixed, so --spin is an unknown flag like any other; the fit
    # determines only a1x*a2x, so --init-a2x is gone too.  Impossible counts
    # and times are usage errors as well.
    fit = ["fit", "--long", "l.csv", "--trans", "t.csv"]
    for argv in (["rates", "--frobnicate"], ["rates", "--spin", "7"],
                 [*fit, "--init-a2x", "1"], [*fit, "--restarts", "0"],
                 ["evolve", "--t-max", "1e-3", "--points", "0"],
                 ["evolve", "--t-max", "-1"]):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([])
    assert err.value.code == 2


def test_config_parsing(tmp_path, theo_cfg):
    cfg = load_config(theo_cfg)
    assert cfg.quad_freq == 266e3
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    with pytest.raises(DataFormatError):
        load_config(bad)


def test_flags_override_config(tmp_path, theo_cfg):
    # same config, quadrupolar frequency doubled on the command line:
    # every rate scales by 4
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rates", "--config", str(theo_cfg), "--raw", "--out", str(out1)]) == EXIT_OK
    assert main(["rates", "--config", str(theo_cfg), "--quad-freq", "532e3",
                 "--raw", "--out", str(out2)]) == EXIT_OK
    r1 = read_table(out1 / "rates.txt")["rate_hz"]
    r2 = read_table(out2 / "rates.txt")["rate_hz"]
    np.testing.assert_allclose(r2, 4 * r1, rtol=1e-12)


# -- execution -----------------------------------------------------------------

def test_rates_reference_row(tmp_path, theo_cfg):
    out = tmp_path / "o"
    assert main(["rates", "--config", str(theo_cfg), "--out", str(out)]) == EXIT_OK
    table = read_table(out / "rates.txt")
    top = table["q"] == 7
    assert table["rate_hz"][top][0] == pytest.approx(21.69e3, rel=1e-3)
    assert table["time_s"][top][0] == pytest.approx(46.10e-6, rel=1e-3)
    assert len(table["q"]) == 36  # sum of (8-q) modes over q = 0..7


def test_rates_single_order_and_raw(tmp_path, theo_cfg):
    out = tmp_path / "o"
    assert main(["rates", "--config", str(theo_cfg), "--q", "7", "--raw",
                 "--out", str(out)]) == EXIT_OK
    table = read_table(out / "rates.txt")
    assert len(table["q"]) == 1


def test_evolve_trajectory(tmp_path, theo_cfg):
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(theo_cfg), "--state", "noon",
                 "--t-max", "1e-3", "--points", "50", "--out", str(out)]) == EXIT_OK
    table = read_table(out / "trajectory.txt")
    assert table["re_1_1"][0] == pytest.approx(0.5)
    assert table["re_1_1"][-1] > 0.95
    assert abs(table["re_8_1"][-1]) < 1e-6


def test_validate_command(tmp_path, theo_cfg, capsys):
    out = tmp_path / "o"
    assert main(["validate", "--config", str(theo_cfg), "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "max relative deviation < 1e-10" in stdout
    assert (out / "validate_report.txt").exists()


def test_bloch_command(tmp_path):
    t = np.linspace(1e-3, 0.05, 60)
    write_curve(tmp_path / "t.csv", DecayCurve(t, 0.89 * np.exp(-t / 9.75e-3)))
    out = tmp_path / "o"
    assert main(["bloch", "--trans", str(tmp_path / "t.csv"), "--out", str(out)]) == EXIT_OK
    text = (out / "bloch_report.txt").read_text()
    assert "t2_seconds = 0.00975" in text


def test_ilt_command(tmp_path):
    t = np.logspace(-3, 0, 80)
    write_curve(tmp_path / "c.csv", DecayCurve(t, np.exp(-t / 0.1)))
    out = tmp_path / "o"
    assert main(["ilt", "--curve", str(tmp_path / "c.csv"), "--t-min", "1e-3",
                 "--t-max", "3", "--points", "48", "--alpha", "1e-8",
                 "--out", str(out)]) == EXIT_OK
    table = read_table(out / "distribution.txt")
    assert np.all(table["weight"] >= 0)
    assert table["time_seconds"][np.argmax(table["weight"])] == pytest.approx(0.1, rel=0.15)


def test_fit_command_on_bundled_data(tmp_path):
    out = tmp_path / "o"
    code = main(["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                 "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--quad-freq", "5969", "--restarts", "2",
                 "--init-b0", "90", "--init-b1", "4", "--init-b2", "0.2",
                 "--init-a1z", "0.025", "--init-a1x", "0.02",
                 "--out", str(out)])
    assert code == EXIT_OK
    report = (out / "fit_report.txt").read_text()
    values = {}
    for line in report.splitlines():
        if "=" in line and "+/-" in line:
            key, rest = line.split("=", 1)
            values[key.strip()] = float(rest.split("+/-")[0])
    assert values["b0"] == pytest.approx(83.0, rel=0.10)
    assert values["b1"] == pytest.approx(3.8, rel=0.10)
    assert abs(values["b2"] - 0.18) < 0.08
    # a2x is held at 1 and printed without a meaningless +/-
    assert set(values) == {"a1z", "a2z", "a1x", "b0", "b1", "b2"}
    a2x_line = next(line for line in report.splitlines() if line.startswith("a2x ="))
    assert "+/-" not in a2x_line and "a1x*a2x" in a2x_line
    for name in ("fit_longitudinal_model.txt", "fit_transverse_model.txt",
                 "fit_longitudinal_data.txt", "fit_transverse_data.txt"):
        assert (out / name).exists()


def test_missing_curve_file_exits_3(tmp_path, capsys):
    assert main(["bloch", "--trans", str(tmp_path / "nope.csv")]) == EXIT_DATA


def test_malformed_curve_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    plain = "t_seconds,amplitude\n{}\n0.2,0.5\n0.3,0.2\n0.4,0.1\n"
    weighted = "t_seconds,amplitude,sigma\n{}\n0.2,0.5,0.1\n0.3,0.2,0.1\n0.4,0.1,0.1\n"
    cases = [plain.format(f"0.1,{value}") for value in ("abc", "nan", "inf")]
    # a negative time, a zero sigma and a negative sigma
    cases += [plain.format("-0.1,1.0"), weighted.format("0.1,1.0,0"),
              weighted.format("0.1,1.0,-0.1")]
    for text in cases:
        bad.write_text(text)
        assert main(["bloch", "--trans", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err


def test_missing_physics_exits_1(tmp_path, capsys):
    assert main(["rates", "--out", str(tmp_path)]) == 1
    # validate checks a random triple only when no density input is given at
    # all; an incomplete or conflicting set is an error, as for rates
    for physics in (["--tau-c", "4.1e-9"],
                    ["--j0", "8e-9", "--j1", "3e-9"],
                    ["--larmor-freq", "47.24e6", "--tau-c", "4.1e-9",
                     "--j0", "8e-9", "--j1", "3e-9", "--j2", "1e-9"]):
        assert main(["validate", *physics, "--out", str(tmp_path)]) == 1
        assert "random triple" not in capsys.readouterr().out


@pytest.mark.parametrize("line", ["spin = 7", "j0 = nan", "j0 = inf", "j0 = -inf"])
def test_bad_config_line_exits_3(tmp_path, capsys, line):
    # spin 7/2 is fixed, so 'spin' is an unknown key like any other
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(THEO_CFG + line + "\n")
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{cfg}:5:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--state", "--equilibrium"])
def test_non_finite_population_file_exits_3(tmp_path, theo_cfg, capsys, flag):
    pops = tmp_path / "pops.txt"
    pops.write_text("# populations\n1 0 0 0\n0 0 0 nan\n")
    assert main(["evolve", "--config", str(theo_cfg), flag, f"file:{pops}",
                 "--t-max", "1e-3", "--points", "5", "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{pops}:3: non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("state", ["noon", "pure_top", "uniform", "file"])
def test_evolve_state_names(tmp_path, theo_cfg, state):
    if state == "file":
        (tmp_path / "pops.txt").write_text("0.5 0.5 0 0 0 0 0 0\n")
        state = f"file:{tmp_path / 'pops.txt'}"
    assert main(["evolve", "--config", str(theo_cfg), "--state", state,
                 "--t-max", "1e-3", "--points", "5", "--out", str(tmp_path)]) == EXIT_OK


def test_evolve_rejects_unknown_state_and_element(tmp_path, theo_cfg, capsys):
    common = ["evolve", "--config", str(theo_cfg), "--t-max", "1e-3", "--points", "5",
              "--out", str(tmp_path)]
    assert main([*common, "--state", "bogus"]) == 1
    assert "unknown state 'bogus'" in capsys.readouterr().err
    assert main([*common, "--elements", "9,1"]) == 1
    assert "element (9,1) outside 1..8" in capsys.readouterr().err


def test_validate_without_densities_uses_seeded_triple(tmp_path, capsys):
    assert main(["validate", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    assert "using seeded random triple" in capsys.readouterr().out


def test_determinism(tmp_path, theo_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["rates", "--config", str(theo_cfg), "--seed", "5",
                     "--out", str(out)]) == EXIT_OK
        assert main(["evolve", "--config", str(theo_cfg), "--t-max", "1e-3",
                     "--points", "20", "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert (out1 / "rates.txt").read_bytes() == (out2 / "rates.txt").read_bytes()
    assert (out1 / "trajectory.txt").read_bytes() == (out2 / "trajectory.txt").read_bytes()


def test_fit_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                     "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                     "--quad-freq", "5969", "--restarts", "2", "--seed", "7",
                     "--init-b0", "90", "--init-b1", "4", "--init-b2", "0.2",
                     "--raw", "--out", str(out)]) == EXIT_OK
        outs.append((out / "fit_report.txt").read_bytes())
    assert outs[0] == outs[1]


def test_emitted_tables_round_trip(tmp_path, theo_cfg):
    out = tmp_path / "o"
    main(["rates", "--config", str(theo_cfg), "--raw", "--out", str(out)])
    table = read_table(out / "rates.txt")
    assert set(table) == {"q", "p", "rate_hz", "time_s"}
    assert np.isinf(table["time_s"]).sum() == 1  # the q=0 conserved mode
