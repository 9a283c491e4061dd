import argparse
import codecs
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrelax import analysis, cli, curves, evolution
from quadrelax.cli import EXIT_DATA, EXIT_OK, build_parser, format_number, load_config, main
from quadrelax.redfield_core import sector_modes

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
from quadrelax.curves import (DataFormatError, DecayCurve, format_table, read_curve,
                              write_curve, write_text)

THEO_CFG = """\
larmor_freq = 47.24e6
quad_freq = 266e3
correlation_time = 4.1e-9
equilibrium = pure_top
"""


def read_table(path: Path) -> dict[str, np.ndarray]:
    """The named columns of a table written by cli.write_table."""
    header, *rows = Path(path).read_text(encoding="utf-8").splitlines()
    assert header.startswith("# columns: ")
    columns = header.removeprefix("# columns: ").split()
    data = np.array([row.split() for row in rows], dtype=float).reshape(len(rows), len(columns))
    return dict(zip(columns, data.T))


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


@pytest.mark.parametrize("text", ["t_seconds,amplitude\n0.1,1.0\n0.2,0.5\n",
                                  "# saved as CSV UTF-8\nt_seconds,amplitude,sigma\n"
                                  "0.1,1.0,0.1\n0.2,0.5,0.1\n"])
def test_curve_skips_a_leading_byte_order_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want, got = read_curve(plain), read_curve(marked)
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.amplitudes, want.amplitudes)
    assert (got.sigmas is None) == (want.sigmas is None)


def test_non_utf8_error_after_a_byte_order_mark_names_the_file_offset(tmp_path):
    # the bad byte 0xff is byte 7 of the file, counting the 3-byte mark
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xef\xbb\xbf# a\n\xff\n")
    with pytest.raises(DataFormatError, match=r"bad\.csv:2: not UTF-8 \(.* at offset 7\)"):
        read_curve(path)


_PLAIN, _WEIGHTED = "t_seconds,amplitude", "t_seconds,amplitude,sigma"


@pytest.mark.parametrize("header, body, lineno, message", [
    # one bad line, in each way a body line can fail
    (_PLAIN, ["0.1,1.0", "0.2,0.5,0.1"], 4, "expected 2 fields, got 3"),
    (_WEIGHTED, ["0.1,1.0,0.1", "0.2,0.5"], 4, "expected 3 fields, got 2"),
    (_PLAIN, ["0.1,1.0", "0.2"], 4, "expected 2 fields, got 1"),
    (_PLAIN, ["0.1,1.0", "0.2, abc  # comment"], 4, "could not convert string to float: 'abc'"),
    (_PLAIN, ["0.1,1.0", "0.2,"], 4, "could not convert string to float: ''"),
    (_PLAIN, ["0.1,1.0", "0.2,nan"], 4, "non-finite value 'nan'"),
    (_PLAIN, ["0.1,1.0", "inf,0.5"], 4, "non-finite value 'inf'"),
    (_PLAIN, ["0.1,1.0", "0.2,-1e999"], 4, "non-finite value '-1e999'"),
    (_PLAIN, ["0.1,1.0", "-0.2,0.5"], 4, "negative time '-0.2'"),
    (_WEIGHTED, ["0.1,1.0,0.1", "0.2,0.5,0"], 4, "sigma must be positive, got '0'"),
    (_WEIGHTED, ["0.1,1.0,0.1", "0.2,0.5,-0.1"], 4, "sigma must be positive, got '-0.1'"),
    # within a line: the field count, then each token from the left, then the time,
    # then the sigma
    (_PLAIN, ["-0.1,abc,1"], 3, "expected 2 fields, got 3"),
    (_PLAIN, ["-0.1,abc"], 3, "could not convert string to float: 'abc'"),
    (_PLAIN, ["nan,abc"], 3, "non-finite value 'nan'"),
    (_WEIGHTED, ["0.1,abc,0"], 3, "could not convert string to float: 'abc'"),
    (_WEIGHTED, ["-0.1,1.0,0"], 3, "negative time '-0.1'"),
    # across lines: the first bad line in file order, whatever the later ones hold
    (_PLAIN, ["0.1,1.0", "-0.2,0.5", "0.3,abc"], 4, "negative time '-0.2'"),
    (_PLAIN, ["0.1,1.0", "0.2,abc", "0.3,0.2,0.1"], 4, "could not convert string to float: 'abc'"),
    (_PLAIN, ["0.1,1.0", "0.2", "0.3,nan"], 4, "expected 2 fields, got 1"),
    (_WEIGHTED, ["0.1,1.0,0", "0.2,inf,0.1"], 3, "sigma must be positive, got '0'"),
    (_WEIGHTED, ["0.1,1.0,0.1", "0.2,inf,0.1", "-0.3,0.5,0"], 4, "non-finite value 'inf'"),
    # a line error is found before the times are checked for order
    (_PLAIN, ["0.3,1.0", "0.2,0.5", "0.4,abc"], 5, "could not convert string to float: 'abc'"),
    # the first time not above the one before it, as written, across comment lines
    (_PLAIN, ["0.2,1.0", "0.2,0.5"], 4, "time '0.2' not above the previous '0.2'"),
    (_PLAIN, ["0.1,1.0", "0.2,0.5", "0.15,0.3", "0.1,0.2"], 5,
     "time '0.15' not above the previous '0.2'"),
    (_WEIGHTED, ["0.2,1.0,0.1", "# a note", " 1e-1 ,0.5,0.1"], 5,
     "time '1e-1' not above the previous '0.2'"),
])
def test_curve_error_names_the_first_bad_line(tmp_path, header, body, lineno, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["# a comment line", header, *body]) + "\n")
    with pytest.raises(DataFormatError) as info:
        read_curve(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"


@pytest.mark.parametrize("text, message", [
    ("# only a comment\n", "empty curve file"),
    ("t_seconds,amplitude\n", "no samples"),
])
def test_curve_file_errors_without_a_line(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError) as info:
        read_curve(path)
    assert str(info.value) == f"{path}: {message}"


def test_curve_reader_keeps_every_value_bit_for_bit(tmp_path):
    # spaces around fields, signed zeros, subnormals and the float() spellings a
    # bulk parse must read exactly as the per-token parse does
    path = tmp_path / "c.csv"
    path.write_text("t_seconds , amplitude , sigma\n"
                    " 0 , -0.0 , 5e-324\n"
                    "1_0.5,+1E-3 ,1e308  # note\n"
                    "\n"
                    "1e2,\t-.5e-310 ,0.25\n")
    curve = read_curve(path)
    np.testing.assert_array_equal(curve.times, [0.0, 10.5, 100.0])
    np.testing.assert_array_equal(curve.amplitudes, [-0.0, 1e-3, -0.5e-310])
    assert np.signbit(curve.amplitudes[0])
    np.testing.assert_array_equal(curve.sigmas, [5e-324, 1e308, 0.25])


#: the characters besides \n and \r that str.splitlines breaks a line at
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", _NOT_LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_curve_comment_holding_another_line_separator_stays_one_line(tmp_path, char):
    # line 2 is a comment to its end, so line 3 is data and line 4 the first bad line
    path = tmp_path / "ls.csv"
    comment = f"# measured 2024-05-01{char}see notebook p. 12"
    path.write_text("\n".join(["t_seconds,amplitude", comment, "0.1,1.0", "0.2,0.5", ""]),
                    encoding="utf-8")
    assert read_curve(path).times.tolist() == [0.1, 0.2]
    path.write_text("\n".join(["t_seconds,amplitude", comment, "0.1,1.0", "0.2,abc", ""]),
                    encoding="utf-8")
    with pytest.raises(DataFormatError) as info:
        read_curve(path)
    assert str(info.value) == f"{path}:4: could not convert string to float: 'abc'"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_curve_lines_end_at_lf_crlf_and_cr(tmp_path, newline):
    path = tmp_path / "c.csv"
    path.write_bytes(newline.join(["# note", "t_seconds,amplitude", "0.1,1.0", "0.2,abc", ""])
                     .encode("utf-8"))
    with pytest.raises(DataFormatError) as info:
        read_curve(path)
    assert str(info.value) == f"{path}:4: could not convert string to float: 'abc'"
    # a bad byte is counted on the line the same breaks give
    path.write_bytes(newline.join(["# note\u2028more", "# caf"]).encode("utf-8") + b"\xe9\n")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:2: not UTF-8 "):
        read_curve(path)


def test_config_comment_holding_a_line_separator_stays_one_line(theo_cfg):
    # before, the text after U+2028 was a line of its own and not 'key = value'
    cfg = theo_cfg.with_name("noted.cfg")
    cfg.write_text("# sample 7\u2028see notebook p. 12\n" + THEO_CFG, encoding="utf-8")
    assert load_config(cfg) == load_config(theo_cfg)
    cfg.write_text("# sample 7\u2028see notebook p. 12\nspin = 7\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(cfg))}:2: unknown key 'spin'$"):
        load_config(cfg)


#: field spellings float() reads, and some it does not or that break a contract
_FIELD_SPELLINGS = ["0", "-0.0", "5e-324", "-.5e-310", "1_0.5", "+1E-3", "1e308", "nan", "inf",
                    "-1e999", "abc", "", "0x1p3", "1,5", "-2"]
#: whitespace float() and str.strip both drop, around a field
_PADDING = st.sampled_from(["", "", " ", "\t", "  \v", "\u2028", "\xa0"])
#: lines the bulk read declines, so that the row scan reads the file
_OTHER_LINES = st.sampled_from(["", "   ", "# a note", "0.5", "1,2,3,4", "1,2 # note", "\x0c"])


@st.composite
def _curve_files(draw) -> tuple[bytes, bool]:
    """A curve file's bytes and whether it is plain (at least one sample, increasing
    times, valid fields, no comment, blank or malformed line after the header), with
    a byte-order mark, a
    comment before the header, LF, CRLF or CR breaks and padded fields drawn apart."""
    width, plain = draw(st.sampled_from([2, 3])), draw(st.booleans())
    steps = draw(st.lists(st.floats(1e-9, 1e3), min_size=plain, max_size=6))
    good = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    field = good if plain else st.one_of(good, st.sampled_from(_FIELD_SPELLINGS))
    lines, time = [], draw(st.sampled_from([0.0, 1e-3]))
    for step in steps:
        time += step
        sigma = draw(st.floats(1e-300, 1e300).map(repr) if plain else field)
        fields = [repr(time) if plain else draw(st.one_of(st.just(repr(time)), field)),
                  draw(field), sigma][:width]
        lines.append(",".join(draw(_PADDING) + f + draw(_PADDING) for f in fields))
    if not plain:
        for _ in range(draw(st.integers(0, 3))):
            lines.insert(draw(st.integers(0, len(lines))), draw(_OTHER_LINES))
    header = [_WEIGHTED if width == 3 else _PLAIN]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(draw(st.sampled_from([[], ["# saved as CSV"]])) + header + lines)
    bom = codecs.BOM_UTF8 if draw(st.booleans()) else b""
    return bom + (text + draw(st.sampled_from([newline, ""]))).encode("utf-8"), plain


def _read_outcome(path: Path):
    """read_curve's arrays as bytes (so -0.0 differs from 0.0), or its error text."""
    try:
        curve = read_curve(path)
    except DataFormatError as exc:
        return str(exc)
    return [None if a is None else a.tobytes() for a in (curve.times, curve.amplitudes,
                                                         curve.sigmas)]


def test_bulk_curve_read_matches_the_row_scan(tmp_path_factory):
    # the one-pass read of the lines after the header gives the row scan's bits or
    # declines, so a file reads the same with it and without it; it serves every
    # file that reads, a plain one at the first try and any other once its comments
    # and blank lines are dropped
    path = tmp_path_factory.mktemp("bulk") / "c.csv"
    real_bulk = curves._bulk_curve

    @settings(derandomize=True, deadline=None, database=None, max_examples=400)
    @given(_curve_files())
    def check(case):
        data, plain = case
        path.write_bytes(data)
        served = []
        with mock.patch.object(curves, "_bulk_curve",
                               lambda body, width: served.append(real_bulk(body, width))
                               or served[-1]):
            got = _read_outcome(path)
        with mock.patch.object(curves, "_bulk_curve", lambda body, width: None):
            assert got == _read_outcome(path)
        assert (served[-1] is not None) == isinstance(got, list)
        if plain:
            assert len(served) == 1

    check()


def _per_value_lines(rows, raw, sep=" "):
    """The table body written one format_number call per value, the reference form."""
    return [sep.join(format_number(v, raw) for v in row) for row in rows]


TABLE_VALUES = [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1e16, 1e-5, 7, np.int64(-3),
                np.float64(2.5e-300), 1.0 / 3.0, 123456.789, -1e-323]


@pytest.mark.parametrize("value", TABLE_VALUES)
def test_format_number_is_repr_or_four_significant_digits(value):
    assert format_number(value, True) == repr(float(value))
    assert format_number(value, False) == f"{value:.4g}"


@pytest.mark.parametrize("raw", [True, False])
@pytest.mark.parametrize("shape", [(14, 1), (7, 2), (2, 7), (1, 14)])
def test_table_is_the_per_value_format_number_join(raw, shape):
    rows = np.array(TABLE_VALUES, dtype=object).reshape(shape).tolist()
    text = cli._table_text(["a"] * shape[1], rows, raw)
    assert text.split("\n") == ["# columns: " + " ".join(["a"] * shape[1]),
                                *_per_value_lines(rows, raw)]
    assert format_table("h", rows, raw, sep=",").split("\n") == ["h", *_per_value_lines(
        rows, raw, sep=",")]


@pytest.mark.parametrize("raw", [True, False])
def test_empty_table_keeps_its_header(raw, tmp_path):
    assert cli._table_text(["q", "p"], [], raw) == "# columns: q p"
    path = tmp_path / "t.txt"
    cli.write_table(path, ["q", "p"], [], raw)
    assert path.read_text() == "# columns: q p\n"


@pytest.mark.parametrize("sigmas", [None, [0.01, 0.5, 1e-5]])
def test_write_curve_is_the_per_value_repr_join(tmp_path, sigmas):
    curve = DecayCurve([0.0, 1.0 / 3.0, 1e16], [-0.0, 5e-324, 0.1], sigmas)
    columns = [curve.times, curve.amplitudes] + ([curve.sigmas] if sigmas else [])
    want = ["t_seconds,amplitude" + (",sigma" if sigmas else "")]
    want += [",".join(f"{float(v)!r}" for v in row) for row in zip(*columns)]
    write_curve(tmp_path / "c.csv", curve)
    assert (tmp_path / "c.csv").read_text() == "\n".join(want) + "\n"


# -- writing files in place ---------------------------------------------------

def test_write_text_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("old line\n" * 50)
    inode = path.stat().st_ino
    write_text(path, "new é\n")
    assert path.read_bytes() == "new é\n".encode("utf-8")
    assert path.stat().st_ino == inode
    write_text(path, "")
    assert path.read_bytes() == b""


def test_write_text_writes_through_a_symlink_and_keeps_it(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("a longer old text\n")
    link.symlink_to(target)
    write_text(link, "new\n")
    assert link.is_symlink() and link.readlink() == target
    assert target.read_text() == "new\n"


def test_write_text_keeps_the_mode(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("old old old\n")
    path.chmod(0o640)
    write_text(path, "new\n")
    assert path.stat().st_mode & 0o777 == 0o640 and path.read_text() == "new\n"


def test_write_text_to_a_directory_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        write_text(tmp_path, "x")
    with pytest.raises(OSError):
        tmp_path.write_text("x")


def test_fit_rewrites_longer_outputs_to_the_fresh_bytes(tmp_path):
    args = ["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
            "--trans", str(DATA_DIR / "synthetic_transverse.csv"), "--quad-freq", "5969"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    names = ["fit_report.txt"] + [f"fit_{label}_{kind}.txt" for label in ("longitudinal",
                                  "transverse") for kind in ("model", "data")]
    reused.mkdir()
    for name in names:
        (reused / name).write_text("old row\n" * 20000)
    for out in (reused, fresh):
        assert main(args + ["--restarts", "1", "--out", str(out)]) == EXIT_OK
    assert sorted(p.name for p in fresh.iterdir()) == sorted(names)
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name


# -- parsing -------------------------------------------------------------------

def test_parse_rates_command():
    for q in ("all", *map(str, range(8))):
        args = build_parser().parse_args(["rates", "--config", "theo.cfg", "--q", q])
        assert args.command == "rates" and args.q == q and args.config == "theo.cfg"


def test_parse_evolve_command():
    args = build_parser().parse_args(
        ["evolve", "--state", "noon", "--t-max", "1e-3", "--points", "500"])
    assert args.command == "evolve" and args.state == "noon"
    assert args.t_max == 1e-3 and args.points == 500


def test_parse_fit_command():
    args = build_parser().parse_args(
        ["fit", "--long", "long.csv", "--trans", "trans.csv", "--quad-freq", "5969"])
    assert args.command == "fit" and args.quad_freq == 5969.0


_FIT = ["fit", "--long", "l.csv", "--trans", "t.csv"]
_EVOLVE = ["evolve", "--t-max", "1e-3"]
#: spin 7/2 is fixed, so --spin is an unknown flag like any other; the fit searches
#: only b0, b1 and b2, so the --init-a* flags are gone too.  A subcommand takes only
#: the flags it reads.  Impossible orders, counts and times are usage errors as well.
_USAGE_ERRORS = (
    ["rates", "--frobnicate"], ["rates", "--spin", "7"],
    *([*_FIT, flag, "1"] for flag in ("--init-a1z", "--init-a2z", "--init-a1x", "--init-a2x")),
    [*_FIT, "--restarts", "0"],
    [*_EVOLVE, "--points", "0"], ["evolve", "--t-max", "-1"],
    ["rates", "--q", "8"], ["rates", "--q", "-1"], ["rates", "--q", "x"],
    ["rates", "--seed", "1"], [*_EVOLVE, "--seed", "1"], [*_EVOLVE, "--raw"],
    [*_FIT, "--tau-c", "1e-9"], [*_FIT, "--equilibrium", "uniform"],
    ["bloch", "--j0", "1"], ["bloch", "--quad-freq", "1"],
    ["ilt", "--curve", "c.csv", "--t-min", "1", "--t-max", "2", "--seed", "1"],
    ["validate", "--raw"], ["validate", "--quad-freq", "-1"],
    *([*_EVOLVE, "--elements", spec]
      for spec in ("a,b", "9,1", "1,0", ";", "", "1,2,3", "1", "1,1;8,x")),
)


def test_unknown_flag_exits_2(capsys):
    for argv in _USAGE_ERRORS:
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


def _parse_outcome(parse, argv, capsys):
    """('args', namespace) or ('exit', code, stdout, stderr) of parse(argv)."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code, *capsys.readouterr())
    assert capsys.readouterr() == ("", "")
    return ("args", args)


#: argument vectors whose parse succeeds, or fails before the subcommand's parser
#: (no command, help, an unknown command) or inside it in ways _USAGE_ERRORS does not
_PARSE_CASES = (
    [], ["nosuch"], ["nosuch", "--q", "1"], ["-h"], ["--help"], ["-h", "rates"],
    ["--", "rates"], ["rates", "-h"], ["validate", "--he"], ["fit", "--help", "--frobnicate"],
    ["validate", "extra"], ["rates", "--raw", "a", "b"], ["rates", "rates"],
    ["rates", "--", "x"], ["rates", "--q"], ["validate", "--j0"], ["validate", "--j0", "--j1", "1"],
    [*_EVOLVE, "--elements"], ["rates", "--frobnicate", "--q", "9"], ["fit"], ["validate", "-x"],
    ["rates", "--q", "3", "--raw", "--out", "d"], ["validate", "--o=d", "--j0", "1e-9"],
    ["validate", "--seed", "5", "--j0", "2", "--j1", "1", "--j2", "0.5"],
    ["evolve", "--t-max", "1e-3", "--elements", "1,1;8,1", "--state", "uniform"],
    [*_FIT, "--restarts", "2", "--normalize"],
    ["ilt", "--curve", "c.csv", "--t-min", "2", "--t-max", "1", "--kernel", "recovery"],
    ["bloch"],
)


@pytest.mark.parametrize("argv", [*_USAGE_ERRORS, *_PARSE_CASES], ids=" ".join)
def test_main_parses_as_parse_args(argv, capsys):
    # one pass through the subcommand's parser gives the namespace, or the exit code,
    # output and message byte for byte, that parse_args of a fresh parser gives
    want = _parse_outcome(build_parser().parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == want
    if want[0] == "exit":
        assert _parse_outcome(main, argv, capsys) == want


def test_main_scans_the_arguments_once(tmp_path, monkeypatch):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    cli._parser()  # built before counting starts
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert main(["validate", "--j0", "2", "--j1", "1", "--j2", "0.5",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert calls == ["quadrelax validate"]
    calls.clear()
    build_parser().parse_args(["validate"])
    assert calls == ["quadrelax", "quadrelax validate"]


def test_module_entry_point_reports_an_unknown_flag(capsys, monkeypatch):
    # the argv=None path reads sys.argv and reports as parse_args does
    monkeypatch.setenv("COLUMNS", "80")
    want = _parse_outcome(build_parser().parse_args, ["rates", "--frobnicate"], capsys)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "quadrelax.cli", "rates", "--frobnicate"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert ("exit", done.returncode, done.stdout, done.stderr) == want
    assert want[1] == 2
    assert want[3].endswith("quadrelax: error: unrecognized arguments: --frobnicate\n")


def _typed_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every option that converts or checks its value."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, sub in subparsers.choices.items()
            for action in sub._actions
            if action.option_strings and (action.type is not None or action.choices)]


def test_typed_flags_cover_the_counts_and_times():
    assert {("ilt", "--t-min"), ("evolve", "--t-max"), ("evolve", "--points"),
            ("fit", "--restarts"), ("rates", "--q")} <= set(_typed_flags())


@pytest.mark.parametrize("command, flag", _typed_flags())
def test_non_value_of_a_typed_flag_names_no_private_function(tmp_path, capsys, command, flag):
    # argparse words a bare ValueError as "invalid <type function> value"; every
    # type function raises its own message, so none of its names reach the user
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as err:
        main([command, flag, "abc", "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err.strip().splitlines()[-1]
    assert message.startswith(f"quadrelax {command}: error: argument {flag}: ")
    named = re.search(r"invalid (\w+) value", message)
    assert named is None or named.group(1) in ("int", "float"), message
    assert not re.search(r"(?<![\w-])_\w", message), message
    assert not out.exists()


#: the options each subcommand declares: the flags its code reads, and no others
SUBCOMMAND_OPTIONS = {
    "rates": {"--config", "--out", "--raw", "--larmor-freq", "--tau-c", "--j0", "--j1",
              "--j2", "--quad-freq", "--c", "--q"},
    "evolve": {"--config", "--out", "--larmor-freq", "--tau-c", "--j0", "--j1", "--j2",
               "--quad-freq", "--c", "--equilibrium", "--state", "--t-max", "--points",
               "--elements"},
    "fit": {"--config", "--out", "--seed", "--raw", "--quad-freq", "--c", "--long",
            "--trans", "--restarts", "--normalize", "--init-b0", "--init-b1", "--init-b2"},
    "bloch": {"--config", "--out", "--raw", "--long", "--trans"},
    "ilt": {"--config", "--out", "--raw", "--curve", "--t-min", "--t-max", "--points",
            "--alpha", "--kernel"},
    "validate": {"--config", "--out", "--seed", "--larmor-freq", "--tau-c", "--j0",
                 "--j1", "--j2"},
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_option_set(name):
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {flag for action in subparsers.choices[name]._actions
                for flag in action.option_strings} - {"-h", "--help"}
    assert declared == SUBCOMMAND_OPTIONS[name]


@pytest.mark.parametrize("raw", [True, False])
def test_format_number_keeps_the_sign_of_infinity(raw):
    assert format_number(-np.inf, raw) == "-inf"
    assert format_number(np.inf, raw) == "inf"


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([])
    assert err.value.code == 2


def test_main_builds_its_parser_once():
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


def test_cached_parser_matches_a_fresh_parser_across_usage_errors(tmp_path, theo_cfg,
                                                                  capsys, monkeypatch):
    # usage errors (exit 2) between calls must leave the shared parser as it was
    cfg = ["--config", str(theo_cfg)]
    argvs = [["rates", *cfg, "--q", "8"], ["validate", *cfg, "--out", "v"],
             ["rates", *cfg, "--raw", "--out", "r1"],
             ["evolve", *cfg, "--t-max", "1e-4", "--points", "30", "--out", "e"],
             ["rates", *cfg, "--frobnicate"], ["rates", *cfg, "--raw", "--out", "r2"]]
    runs = {}
    for clear in (False, True):
        run_dir = tmp_path / f"clear_{clear}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        results = []
        for argv in argvs:
            if clear:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        files = {str(path.relative_to(run_dir)): path.read_bytes()
                 for path in sorted(run_dir.rglob("*")) if path.is_file()}
        runs[clear] = results, files
    assert [code for code, _, _ in runs[False][0]] == [2, 0, 0, 0, 2, 0]
    assert runs[False] == runs[True]
    assert set(runs[False][1]) == {"v/validate_report.txt", "r1/rates.txt",
                                   "e/trajectory.txt", "r2/rates.txt"}


def _counting_mkdir(monkeypatch) -> list:
    calls, mkdir = [], Path.mkdir

    def counting(self, *args, **kwargs):
        calls.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    return calls


def _output_dir(out) -> Path:
    return cli._output_dir(cli._resolve_config(build_parser().parse_args(["validate", "--out",
                                                                          str(out)])))


def test_existing_output_directory_is_not_made_again(tmp_path, monkeypatch):
    calls = _counting_mkdir(monkeypatch)
    for out in (tmp_path, tmp_path / "."):
        assert _output_dir(out) == out
    assert calls == []
    nested = tmp_path / "a" / "b"
    # reading the inputs makes nothing; the directory is made when the output is
    cli._resolve_config(build_parser().parse_args(["validate", "--out", str(nested)]))
    assert not (tmp_path / "a").exists()
    _output_dir(nested)
    # mkdir(parents=True) makes the missing parent by calling itself
    assert nested.is_dir() and calls[0] == nested


def test_output_path_naming_a_file_fails_as_before(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("x")
    with pytest.raises(FileExistsError) as want:
        taken.mkdir(parents=True, exist_ok=True)
    with pytest.raises(FileExistsError) as info:
        _output_dir(taken)
    assert str(info.value) == str(want.value)
    assert main(["validate", "--j0", "2", "--j1", "1", "--j2", "0.5", "--out", str(taken)]) == 1
    assert capsys.readouterr() == ("", f"error: {want.value}\n")
    assert taken.read_text() == "x"


def test_config_parsing(tmp_path, theo_cfg):
    cfg = load_config(theo_cfg)
    assert cfg.quad_freq == 266e3
    marked = tmp_path / "marked.cfg"
    marked.write_text(THEO_CFG, encoding="utf-8-sig")
    assert load_config(marked) == cfg
    marked.write_text("j0 = 8e-9\n", encoding="utf-8-sig")
    assert load_config(marked).j0 == 8e-9
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


def test_config_out_directory_is_created(tmp_path, monkeypatch):
    # a relative 'out' from the config file names a directory nothing else makes
    cfg = tmp_path / "nested.cfg"
    cfg.write_text(THEO_CFG + "out = sub/dir\n")
    monkeypatch.chdir(tmp_path)
    assert main(["rates", "--config", str(cfg)]) == EXIT_OK
    assert main(["validate", "--config", str(cfg)]) == EXIT_OK
    assert len(read_table(tmp_path / "sub" / "dir" / "rates.txt")["q"]) == 36
    assert (tmp_path / "sub" / "dir" / "validate_report.txt").exists()


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # rates, evolve and validate need no optimizer; importing it costs most of a cold
    # start.  After importing cli and running those three, no scipy module is loaded.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    cfg = ["--config", str(root / "data" / "theoretical.cfg")]
    runs = [["rates", *cfg], ["evolve", *cfg, "--t-max", "0.05", "--points", "5"], ["validate"]]
    probe = ("import sys, quadrelax.cli as cli\n"
             f"for argv in {runs!r}:\n"
             f"    assert cli.main([*argv, '--out', {str(tmp_path)!r}]) == 0, argv\n"
             "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"
    assert {path.name for path in tmp_path.iterdir()} >= {
        "rates.txt", "trajectory.txt", "validate_report.txt"}


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


@pytest.mark.parametrize("raw, first_row", [(True, "0 1 0.0 inf"), (False, "0 1 0 inf")])
def test_rates_print_order_and_mode_as_integers(tmp_path, theo_cfg, raw, first_row):
    out = tmp_path / "o"
    assert main(["rates", "--config", str(theo_cfg), *(["--raw"] if raw else []),
                 "--out", str(out)]) == EXIT_OK
    lines = (out / "rates.txt").read_text().splitlines()
    assert lines[1] == first_row
    assert lines[-1].startswith("7 1 ")


_OVERFLOWING = ["--j0", "1e300", "--j1", "1e300", "--j2", "1e300", "--c", "1e10"]


@pytest.mark.filterwarnings("error")
def test_rates_that_overflow_exit_1(tmp_path, capsys):
    # C |lambda| ~ 8e311: the rate rule raises before any product overflows, so no
    # RuntimeWarning is emitted and no table of inf rates is written
    out = tmp_path / "o"
    assert main(["rates", *_OVERFLOWING, "--out", str(out)]) == 1
    assert "error: relaxation rates overflow" in capsys.readouterr().err
    assert not (out / "rates.txt").exists()


@pytest.mark.filterwarnings("error")
def test_evolve_that_overflows_exits_1(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["evolve", *_OVERFLOWING, "--t-max", "1", "--points", "3",
                 "--out", str(out)]) == 1
    assert "error: relaxation rates overflow" in capsys.readouterr().err
    assert not (out / "trajectory.txt").exists()


def test_evolve_trajectory(tmp_path, theo_cfg):
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(theo_cfg), "--state", "noon",
                 "--t-max", "1e-3", "--points", "50", "--out", str(out)]) == EXIT_OK
    table = read_table(out / "trajectory.txt")
    assert table["re_1_1"][0] == pytest.approx(0.5)
    assert table["re_1_1"][-1] > 0.95
    assert abs(table["re_8_1"][-1]) < 1e-6


def test_evolve_writes_no_negative_zero_above_the_diagonal(tmp_path):
    # (1,2) is the conjugate of (2,1); the conjugate of a 0.0 imaginary part is -0.0
    out = tmp_path / "o"
    assert main(["evolve", "--config", str(DATA_DIR / "theoretical.cfg"), "--state", "uniform",
                 "--t-max", "1e-3", "--points", "2", "--elements", "2,1;1,2",
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "trajectory.txt").read_text().splitlines()[1:]
    assert [row.split()[1:] for row in rows] == [["0.0"] * 4] * 2


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


@pytest.mark.parametrize("grid", [
    ["--t-min", "-1", "--t-max", "1"],
    ["--t-min", "0", "--t-max", "1"],
    ["--t-min", "1e-3", "--t-max", "0"],
    ["--t-min", "1e-3", "--t-max", "1", "--points", "1"],
    ["--t-min", "1", "--t-max", "1"],
    ["--t-min", "2", "--t-max", "1"],
])
def test_ilt_impossible_grid_exits_2(tmp_path, grid):
    # a usage error, like evolve --points 0, not a computation failure (exit 1)
    with pytest.raises(SystemExit) as err:
        main(["ilt", "--curve", str(DATA_DIR / "synthetic_transverse.csv"), *grid,
              "--out", str(tmp_path)])
    assert err.value.code == 2
    assert not (tmp_path / "distribution.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999", "abc"])
# explicit ids, fixed per case (the names the cases first ran under), so that adding or
# removing a flag renames no other case
@pytest.mark.parametrize("flag, argv", [
    *(pytest.param(flag, ["rates"], id=f"{flag}-argv{n}") for flag, n in (
        ("--larmor-freq", 0), ("--tau-c", 1), ("--j0", 2), ("--j1", 3), ("--j2", 4),
        ("--quad-freq", 5), ("--c", 6))),
    pytest.param("--quad-freq", ["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                                 "--trans", str(DATA_DIR / "synthetic_transverse.csv")],
                 id="--quad-freq-argv7"),
    pytest.param("--alpha", ["ilt", "--curve", str(DATA_DIR / "synthetic_transverse.csv"),
                             "--t-min", "1e-4", "--t-max", "1"], id="--alpha-argv8"),
])
def test_non_finite_number_flag_exits_2(tmp_path, capsys, flag, argv, value):
    # a usage error found by argparse before the output directory is made;
    # negative and zero values still parse and reach the command
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as err:
        main([*argv, f"{flag}={value}", "--out", str(out)])
    assert err.value.code == 2
    assert f"argument {flag}: expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()
    for number in (-2.5, 0.0):
        parsed = build_parser().parse_args([*argv, f"{flag}={number!r}"])
        assert number in vars(parsed).values()


@pytest.mark.parametrize("value", ["0", "-0.0", "-2.5", "nan", "inf", "-inf", "1e999", "abc"])
@pytest.mark.parametrize("flag", ["--init-b0", "--init-b1", "--init-b2"])
def test_non_positive_start_exits_2(tmp_path, capsys, flag, value):
    # a start of 0 would stay 0 in every restart (each multiplies it), so like a
    # non-finite one it is a usage error, found before the output directory is made
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as err:
        main(["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
              "--trans", str(DATA_DIR / "synthetic_transverse.csv"), f"{flag}={value}",
              "--out", str(out)])
    assert err.value.code == 2
    assert (f"argument {flag}: expected a positive finite number, got {value!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_fit_command_on_bundled_data(tmp_path):
    out = tmp_path / "o"
    code = main(["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                 "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--quad-freq", "5969", "--restarts", "2",
                 "--init-b0", "90", "--init-b1", "4", "--init-b2", "0.2",
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


def _cli_runs(*runs):
    def run(out):
        for argv in runs:
            assert main([*argv, "--out", str(out)]) == EXIT_OK, argv
    return run


def _generate_curves(out):
    spec = importlib.util.spec_from_file_location("generate", DATA_DIR / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    generate.HERE = out
    generate.main()


_THEORETICAL = ["--config", str(DATA_DIR / "theoretical.cfg")]
_BUNDLED_PAIR = ["fit", "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                 "--trans", str(DATA_DIR / "synthetic_transverse.csv"), "--quad-freq", "5969"]


@pytest.mark.parametrize("run, goldens", [
    pytest.param(_cli_runs(["rates", *_THEORETICAL]),
                 {"rates.txt": "rates_theoretical.txt"}, id="rates"),
    pytest.param(_cli_runs(["rates", "--raw", *_THEORETICAL]),
                 {"rates.txt": "rates_theoretical_raw.txt"}, id="rates-raw"),
    pytest.param(_cli_runs(["validate"]),
                 {"validate_report.txt": "validate_report_seed0.txt"}, id="validate"),
    pytest.param(_cli_runs(["evolve", *_THEORETICAL, "--t-max", "0.05", "--points", "200"]),
                 {"trajectory.txt": "trajectory_theoretical.txt"}, id="evolve"),
    pytest.param(_cli_runs([*_BUNDLED_PAIR, "--raw", "--restarts", "2"], _BUNDLED_PAIR),
                 {"fit_report.txt": "fit_report_bundled.txt"}, id="fit"),
    pytest.param(_generate_curves,
                 {name: name for name in ("synthetic_longitudinal.csv",
                                          "synthetic_transverse.csv")}, id="generate"),
])
def test_ci_commands_reproduce_the_golden_files(tmp_path, run, goldens):
    # the commands that write the golden files in data/, byte for byte against the
    # committed files; the fit's raw run first leaves a longer report in the same
    # directory, so the check also covers a rewrite cutting the old file
    run(tmp_path)
    for output, golden in goldens.items():
        assert (tmp_path / output).read_bytes() == (DATA_DIR / golden).read_bytes(), golden


def test_fit_reports_a2z_undetermined_for_an_all_zero_longitudinal_curve(tmp_path):
    zero = tmp_path / "zero.csv"
    long_curve = read_curve(DATA_DIR / "synthetic_longitudinal.csv")
    write_curve(zero, DecayCurve(long_curve.times, np.zeros(len(long_curve))))
    out = tmp_path / "o"
    assert main(["fit", "--long", str(zero), "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--quad-freq", "5969", "--restarts", "2", "--out", str(out)]) == EXIT_OK
    lines = (out / "fit_report.txt").read_text().splitlines()
    assert "a2z = undetermined" in lines
    for name in ("a1z", "a1x", "b0", "b1", "b2"):
        line = next(line for line in lines if line.startswith(f"{name} = "))
        assert "+/-" in line and "nan" not in line, line
    assert any(line.startswith("a1z = 0 +/- ") for line in lines)
    # a1z = 0 makes the longitudinal model 0 whatever a2z is
    assert not read_table(out / "fit_longitudinal_model.txt")["model"].any()
    rows = _report_section("\n".join(lines), "longitudinal_modes")
    assert all(row.split()[1] == "0" for row in rows)


def test_fit_normalize_divides_the_sigmas_too(tmp_path):
    # dividing a curve and its sigmas by the same maximum leaves every weighted
    # residual, and so the rates, a2z and the residual norm, as they were; only the
    # amplitudes a1z and a1x and their sigmas scale with the curves
    rng = np.random.default_rng(5)
    paths, peaks = [], []
    for name, sigma in (("longitudinal", 4e-4), ("transverse", 1e-4)):
        curve = read_curve(DATA_DIR / f"synthetic_{name}.csv")
        path = tmp_path / f"{name}.csv"
        write_curve(path, DecayCurve(curve.times, curve.amplitudes,
                                     sigma * (1 + rng.uniform(size=len(curve)))))
        paths.append(str(path))
        peaks.append(np.max(np.abs(curve.amplitudes)))
    reports = []
    for flags in ([], ["--normalize"]):
        out = tmp_path / f"o{len(flags)}"
        assert main(["fit", "--long", paths[0], "--trans", paths[1], "--quad-freq", "5969",
                     "--restarts", "1", "--raw", *flags, "--out", str(out)]) == EXIT_OK
        values = {}
        for line in (out / "fit_report.txt").read_text().splitlines():
            key, _, rest = line.partition(" = ")
            if "+/-" in rest:
                value, sigma = rest.split(" +/- ")
                values[key], values[f"{key} sigma"] = float(value), float(sigma)
            elif key == "residual_norm":
                values[key] = float(rest)
        reports.append(values)
    plain, normalized = reports
    assert set(plain) == set(normalized) and len(plain) == 13
    for key, value in plain.items():
        peak = {"a1z": peaks[0], "a1x": peaks[1]}.get(key.split()[0], 1.0)
        assert normalized[key] == pytest.approx(value / peak, rel=1e-9), key


def test_fit_normalize_of_an_all_zero_curve_is_a_data_error(tmp_path, capsys):
    zero = tmp_path / "zero.csv"
    long_curve = read_curve(DATA_DIR / "synthetic_longitudinal.csv")
    write_curve(zero, DecayCurve(long_curve.times, np.zeros(len(long_curve))))
    trans = str(DATA_DIR / "synthetic_transverse.csv")
    for long, tr in ((str(zero), trans), (str(DATA_DIR / "synthetic_longitudinal.csv"), str(zero))):
        assert main(["fit", "--long", long, "--trans", tr, "--quad-freq", "5969",
                     "--restarts", "1", "--normalize", "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {zero}: every amplitude is 0, so --normalize has no maximum "
            "to divide by\n")
    # without --normalize the same file fits, and a2z is left undetermined
    assert main(["fit", "--long", str(zero), "--trans", trans, "--quad-freq", "5969",
                 "--restarts", "1", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "a2z = undetermined" in (tmp_path / "o" / "fit_report.txt").read_text().splitlines()


def _report_section(report: str, name: str) -> list[str]:
    """The table rows under the '[name]' header, up to the next blank line."""
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"[{name}]")) + 2
    end = next((i for i in range(start, len(lines)) if not lines[i]), len(lines))
    return lines[start:end]


def test_fit_report_lists_each_models_four_modes(tmp_path):
    out = tmp_path / "o"
    assert main(["fit", "--config", str(DATA_DIR / "experimental.cfg"),
                 "--long", str(DATA_DIR / "synthetic_longitudinal.csv"),
                 "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--restarts", "2", "--raw", "--out", str(out)]) == EXIT_OK
    report = (out / "fit_report.txt").read_text()
    params = {key: float(value.split()[0]) for key, _, value
              in (line.partition(" = ") for line in report.splitlines())
              if key in analysis.PARAM_NAMES}
    models = analysis.joint_models(params)
    for label, model in zip(("longitudinal", "transverse"), models):
        # the observable's four modes, printed as the model holds them
        amps = model.scale * model.amplitudes
        rows = _report_section(report, f"{label}_modes")
        assert len(rows) == len(amps) == 4
        for n, (row, amp, rate) in enumerate(zip(rows, amps, model.rates), start=1):
            assert row == " ".join([str(n), *(format_number(v, True) for v in
                                              (amp, 1.0 / rate if rate > 0 else np.inf))])
        table = read_table(out / f"fit_{label}_model.txt")
        np.testing.assert_array_equal(table["model"], model.evaluate(table["t_seconds"]))


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
    # and a byte that is not UTF-8: latin-1 writes '\xff' as the single byte 0xff
    cases.append(plain.format("0.1,1.0\xff"))
    for text in cases:
        bad.write_bytes(text.encode("latin-1"))
        assert main(["bloch", "--trans", str(bad), "--out", str(tmp_path)]) == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err


def test_fit_of_a_malformed_curve_exits_3_and_makes_no_output_directory(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    bad.write_text("t_seconds,amplitude\n0.1,abc\n0.2,0.5\n0.3,0.2\n0.4,0.1\n")
    out = tmp_path / "out"
    assert main(["fit", "--long", str(bad), "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--quad-freq", "5969", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {bad}:2:" in capsys.readouterr().err
    assert not out.exists()


def test_curve_whose_times_stop_increasing_exits_3_with_its_line(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    bad.write_text("t_seconds,amplitude\n0.1,1.0\n0.2,0.5\n0.15,0.3\n")
    assert main(["fit", "--long", str(bad), "--trans", str(DATA_DIR / "synthetic_transverse.csv"),
                 "--quad-freq", "5969", "--out", str(tmp_path)]) == EXIT_DATA
    assert capsys.readouterr() == (
        "", f"data error: {bad}:4: time '0.15' not above the previous '0.2'\n")


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


_DENSITY_RUNS = {"rates": (["--quad-freq", "5969"], "rates.txt"),
                 "evolve": (["--quad-freq", "5969", "--t-max", "1e-3", "--points", "3"],
                            "trajectory.txt"),
                 "validate": ([], "validate_report.txt")}


@pytest.mark.parametrize("command", sorted(_DENSITY_RUNS))
@pytest.mark.parametrize("source", ["flags", "config"])
@pytest.mark.parametrize("tau_c", [False, True], ids=["no-tau-c", "tau-c"])
@pytest.mark.parametrize("given, missing", [(("j0",), "j1, j2"), (("j1", "j2"), "j0")],
                         ids=["j0", "j1-j2"])
def test_partial_density_triple_exits_1_naming_the_missing(tmp_path, capsys, command, source,
                                                           tau_c, given, missing):
    # some but not all of j0/j1/j2 is an error with or without correlation_time; beside
    # one, rates --tau-c 1e-9 --j0 1 used to drop the j0 silently and write its table
    values = {"larmor_freq": "5e7", **({"correlation_time": "1e-9"} if tau_c else {}),
              **dict.fromkeys(given, "1e-9")}
    if source == "flags":
        flags = {"larmor_freq": "--larmor-freq", "correlation_time": "--tau-c"}
        physics = [arg for key, value in values.items()
                   for arg in (flags.get(key, f"--{key}"), value)]
    else:
        cfg = tmp_path / "sample.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        physics = ["--config", str(cfg)]
    extra, report = _DENSITY_RUNS[command]
    out = tmp_path / "out"
    assert main([command, *physics, *extra, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: give all of j0/j1/j2 or none: missing {missing}\n")
    # the inputs are checked before the output directory is made
    assert not out.exists()


@pytest.mark.parametrize("line", ["spin = 7", "j0 = nan", "j0 = inf", "j0 = -inf",
                                  pytest.param("# caf\xe9", id="latin-1 comment")])
def test_bad_config_line_exits_3(tmp_path, capsys, line):
    # spin 7/2 is fixed, so 'spin' is an unknown key like any other; a latin-1
    # file is not UTF-8 even where the bad byte sits in a comment
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes((THEO_CFG + line + "\n").encode("latin-1"))
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{cfg}:5:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["bogus", "noon", "file:"])
def test_bad_config_equilibrium_exits_3(tmp_path, capsys, value):
    # the config value is checked when the file is read, for every subcommand
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(THEO_CFG.replace("equilibrium = pure_top", f"equilibrium = {value}"))
    out = tmp_path / "never"
    for command in (["evolve", "--t-max", "1e-3", "--points", "5"], ["rates"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == EXIT_DATA
        assert f"{cfg}:4: unknown state {value!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--state", "--equilibrium"])
def test_non_finite_population_file_exits_3(tmp_path, theo_cfg, capsys, flag):
    pops = tmp_path / "pops.txt"
    pops.write_text("# populations\n1 0 0 0\n0 0 0 nan\n")
    assert main(["evolve", "--config", str(theo_cfg), flag, f"file:{pops}",
                 "--t-max", "1e-3", "--points", "5", "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{pops}:3: non-finite value" in capsys.readouterr().err
    pops.write_bytes(b"# populations\n1 0 0 0\n0 0 0 \xff\n")
    assert main(["evolve", "--config", str(theo_cfg), flag, f"file:{pops}",
                 "--t-max", "1e-3", "--points", "5", "--out", str(tmp_path)]) == EXIT_DATA
    assert f"{pops}:3: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--state", "--equilibrium"])
def test_negative_population_file_exits_3(tmp_path, theo_cfg, capsys, flag):
    # the populations sum to 1, but -0.5 is no probability
    pops = tmp_path / "pops.txt"
    pops.write_text("# populations\n1.5 -0.5 0 0\n0 0 0 0\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(theo_cfg), flag, f"file:{pops}",
                 "--t-max", "1e-3", "--points", "5", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {pops}:2: negative population '-0.5'" in capsys.readouterr().err
    assert not out.exists()


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
    # a bad state name or --elements spec is a usage error, found before anything
    # is written; noon is a preparation, not an equilibrium
    out = tmp_path / "never"
    for flag, name, allowed in (("--state", "bogus", "noon, pure_top, uniform"),
                                ("--state", "file:", "noon, pure_top, uniform"),
                                ("--equilibrium", "bogus", "pure_top, uniform"),
                                ("--equilibrium", "noon", "pure_top, uniform")):
        with pytest.raises(SystemExit) as err:
            main([*common[:-1], str(out), flag, name])
        assert err.value.code == 2
        assert (f"argument {flag}: unknown state {name!r} ({allowed} or file:PATH)"
                in capsys.readouterr().err)
        assert not out.exists()
    for spec, message in (("9,1", "element (9,1) outside 1..8"),
                          ("1,1;0,2", "element (0,2) outside 1..8"),
                          ("1,1;a,b", "bad element 'a,b'"),
                          ("8,8;1,2,3", "bad element '1,2,3'"),
                          (";", "no elements in ';'")):
        with pytest.raises(SystemExit) as err:
            main([*common[:-1], str(out), "--elements", spec])
        assert err.value.code == 2
        assert f"argument --elements: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_default_evolve_solves_two_orders(tmp_path, theo_cfg, monkeypatch):
    # the default elements 1,1;8,8;8,1 lie in orders 0 and 7 only
    orders = []

    def counting(qs, weights):
        orders.extend(qs)
        return sector_modes(qs, weights)

    monkeypatch.setattr(evolution, "sector_modes", counting)
    assert main(["evolve", "--config", str(theo_cfg), "--t-max", "1e-3", "--points", "5",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(orders) == [0, 7]
    assert read_table(tmp_path / "trajectory.txt").keys() == {
        "t_seconds", "re_1_1", "im_1_1", "re_8_8", "im_8_8", "re_8_1", "im_8_1"}


def test_validate_without_densities_uses_seeded_triple(tmp_path, capsys):
    assert main(["validate", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
    assert "using seeded random triple" in capsys.readouterr().out


def test_determinism(tmp_path, theo_cfg):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["rates", "--config", str(theo_cfg), "--out", str(out)]) == EXIT_OK
        assert main(["evolve", "--config", str(theo_cfg), "--t-max", "1e-3",
                     "--points", "20", "--out", str(out)]) == EXIT_OK
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
