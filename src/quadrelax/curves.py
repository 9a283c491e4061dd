"""Decay-curve container, its on-disk format, and the reader of every input file.

Curve files are UTF-8 CSV with header ``t_seconds,amplitude[,sigma]``,
``#`` comment lines allowed anywhere, times in seconds (non-negative,
strictly increasing) and sigmas positive.  Config and population files
share the UTF-8 and ``#`` comment rules through ``data_lines``; a leading
UTF-8 byte-order mark is skipped.  Every numeric table the program writes,
curve files included, is formatted by ``format_table``, and every file it
writes is written by ``write_text``.
"""

from __future__ import annotations

import codecs
import math
import os
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterator

import numpy as np


class DataFormatError(ValueError):
    """An input file failed to parse; message names the file and line."""


@dataclass(frozen=True)
class DecayCurve:
    """Time series of (t, amplitude) samples with optional per-point sigma.  Times and
    amplitudes are finite, times non-negative and strictly increasing, and sigmas
    finite and positive; anything else raises ValueError."""

    times: np.ndarray
    amplitudes: np.ndarray
    sigmas: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", y)
        if t.ndim != 1 or y.shape != t.shape:
            raise ValueError(f"times/amplitudes must be matching 1-d arrays, got {t.shape}, {y.shape}")
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValueError("sample times and amplitudes must be finite")
        if t.size and t[0] < 0:
            raise ValueError(f"sample times must be non-negative, got {float(t[0])!r}")
        if not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.sigmas is not None:
            s = np.asarray(self.sigmas, dtype=float)
            object.__setattr__(self, "sigmas", s)
            if s.shape != t.shape:
                raise ValueError("sigma column must match the sample count")
            if not ((s > 0) & (s < np.inf)).all():
                raise ValueError("sigmas must be finite and positive")

    def __len__(self) -> int:
        return self.times.size


def parse_finite(token: str, path: Path, lineno: int) -> float:
    """float(token); anything but a finite number is a DataFormatError at path:lineno."""
    try:
        value = float(token)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not math.isfinite(value):
        raise DataFormatError(f"{path}:{lineno}: non-finite value {token!r}")
    return value


def _lines(text: str) -> list[str]:
    r"""The lines of ``text``, broken at ``\n``, ``\r\n`` and ``\r`` only: a comment may
    hold the other characters ``str.splitlines`` breaks at (U+2028, U+2029, U+0085,
    ``\v``, ``\f``, ``\x1c``-``\x1e``)."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _text(path: Path) -> str:
    """The UTF-8 text of a file after a leading byte-order mark; an unreadable or
    non-UTF-8 file is a DataFormatError."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = bom + exc.start  # of the bad byte in the file
        lineno = len(_lines(data[bom:offset].decode("utf-8")))
        raise DataFormatError(
            f"{path}:{lineno}: not UTF-8 ({exc.reason} at offset {offset})") from exc


def _content(lines: list[str]) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each line left non-blank once its ``#`` comment and
    whitespace are stripped."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each line of a UTF-8 file left non-blank once its ``#``
    comment and whitespace are stripped (see _lines for where a line ends); a leading
    byte-order mark is skipped, and an unreadable or non-UTF-8 file is a
    DataFormatError."""
    yield from _content(_lines(_text(path)))


def _check_row(fields: list[str], width: int, path: Path, lineno: int) -> list[float]:
    """The values of a body row that is a valid sample, else the DataFormatError of its
    field count, then of each field from the left (parse_finite), then of a negative
    time, then of a sigma that is not positive."""
    if len(fields) != width:
        raise DataFormatError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
    values = [parse_finite(f.strip(), path, lineno) for f in fields]
    if values[0] < 0:
        raise DataFormatError(f"{path}:{lineno}: negative time {fields[0].strip()!r}")
    if width == 3 and values[2] <= 0:
        raise DataFormatError(f"{path}:{lineno}: sigma must be positive, got {fields[2].strip()!r}")
    return values


def _curve(values: np.ndarray, width: int) -> DecayCurve:
    """The DecayCurve of an (n, width) array of samples."""
    return DecayCurve(values[:, 0], values[:, 1], values[:, 2] if width == 3 else None)


def _bulk_curve(body: list[str], width: int) -> DecayCurve | None:
    """The curve of the lines after a curve file's header, parsed in one pass when
    each line is one sample of ``width`` fields and none holds a comment, else None.
    float() ignores the whitespace around a field, as str.strip does."""
    while body and not body[-1]:
        body = body[:-1]  # the breaks that end the text
    text = ",".join(body)
    if not body or "#" in text or "" in body or (
            set(map(str.count, body, repeat(","))) != {width - 1}):
        return None  # some line holds a comment, is blank or has another field count
    tokens = text.split(",")
    try:
        return _curve(np.fromiter(map(float, tokens), float, len(tokens)).reshape(-1, width),
                      width)
    except ValueError:
        return None


def _scanned_curve(path: Path, rows: Iterator[tuple[int, str]], width: int) -> DecayCurve:
    """The curve of the (lineno, line) rows after a curve file's header: parsed in one
    pass (_bulk_curve) when that takes them, else checked one row at a time so that
    the error names the first bad line in file order.  Only then are the times checked
    for order, and the first one not above the time before it is named with its
    line."""
    body = list(rows)
    if not body:
        raise DataFormatError(f"{path}: no samples")
    curve = _bulk_curve([line for _, line in body], width)
    if curve is not None:
        return curve
    fields = [line.split(",") for _, line in body]
    values = np.array([_check_row(row, width, path, lineno)
                       for (lineno, _), row in zip(body, fields)])
    try:
        return _curve(values, width)
    except ValueError:  # every row is a valid sample, so the times stall
        k = np.flatnonzero(values[1:, 0] <= values[:-1, 0])[0] + 1
        raise DataFormatError(f"{path}:{body[k][0]}: time {fields[k][0].strip()!r} "
                              f"not above the previous {fields[k - 1][0].strip()!r}") from None


def read_curve(path: str | Path) -> DecayCurve:
    """The curve in a curve file.  The lines after the header are parsed in one pass
    (_bulk_curve); when that fails, their comments and blank lines are dropped and
    the rest goes to _scanned_curve, which reads every valid file to the same bits
    and names the first bad line of any other."""
    path = Path(path)
    lines = _lines(_text(path))
    rows = _content(lines)
    lineno, line = next(rows, (0, ""))
    if not line:
        raise DataFormatError(f"{path}: empty curve file")
    fields = [f.strip() for f in line.split(",")]
    if fields[:2] != ["t_seconds", "amplitude"] or len(fields) > 3 or (
            len(fields) == 3 and fields[2] != "sigma"):
        raise DataFormatError(
            f"{path}:{lineno}: expected header 't_seconds,amplitude[,sigma]', got {line!r}")
    curve = _bulk_curve(lines[lineno:], len(fields))
    return curve if curve is not None else _scanned_curve(path, rows, len(fields))


def number_format(raw: bool) -> str:
    """The ``%`` format of one written number: ``%r`` (full precision) or ``%.4g``."""
    return "%r" if raw else "%.4g"


def format_table(header: str, rows, raw: bool = True, sep: str = " ",
                 int_columns: int = 0) -> str:
    """``header`` and then one line per row of the 2-d ``rows``, without a final newline.

    The first ``int_columns`` columns hold integers (an order, a mode index) and are
    written with ``%d`` in both forms; every other value as
    ``number_format(raw) % float(value)``.  The whole body is one ``%`` operation: a
    row template repeated once per row, applied to the flattened values, so no
    Python code runs per value.
    """
    values = np.asarray(rows, dtype=float)
    if values.size == 0:
        return header
    n_rows, n_cols = values.shape
    row = sep.join(["%d"] * int_columns + [number_format(raw)] * (n_cols - int_columns))
    return header + "\n" + "\n".join([row] * n_rows) % tuple(values.ravel().tolist())


def write_curve(path: str | Path, curve: DecayCurve) -> None:
    columns = [curve.times, curve.amplitudes]
    header = "t_seconds,amplitude"
    if curve.sigmas is not None:
        columns.append(curve.sigmas)
        header += ",sigma"
    write_text(path, format_table(header, np.column_stack(columns), sep=",") + "\n")


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, rewriting an existing file in place.

    The file is opened without truncation, written from the start and then cut at
    the end of the new bytes.  Its bytes, inode, mode, owner and symlink target
    come out as with ``Path.write_text``, but an existing file is never first
    truncated to zero, which on ext4 makes the next close flush the file to disk.
    A write cut off part-way can leave the start of the new text followed by the
    rest of the old file, where ``Path.write_text`` would leave a short file.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        f.write(text.encode("utf-8"))
        f.truncate()
