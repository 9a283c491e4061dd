"""Decay-curve container, its on-disk format, and the reader of every input file.

Curve files are UTF-8 CSV with header ``t_seconds,amplitude[,sigma]``,
``#`` comment lines allowed anywhere, times in seconds (non-negative,
strictly increasing) and sigmas positive.  Config and population files
share the UTF-8 and ``#`` comment rules through ``data_lines``; a leading
UTF-8 byte-order mark is skipped.  Every numeric table the program writes,
curve files included, is formatted by ``format_table``.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np


class DataFormatError(ValueError):
    """An input file failed to parse; message names the file and line."""


@dataclass(frozen=True)
class DecayCurve:
    """Time series of (t, amplitude) samples with optional per-point sigma."""

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
        if t.size >= 2 and not np.all(np.diff(t) > 0):
            raise ValueError("sample times must be strictly increasing")
        if self.sigmas is not None:
            s = np.asarray(self.sigmas, dtype=float)
            object.__setattr__(self, "sigmas", s)
            if s.shape != t.shape:
                raise ValueError("sigma column must match the sample count")

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


def data_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(lineno, line) for each line of a UTF-8 file left non-blank once its ``#``
    comment and whitespace are stripped; a leading byte-order mark is skipped, and an
    unreadable or non-UTF-8 file is a DataFormatError."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        text = data[bom:].decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = bom + exc.start  # of the bad byte in the file
        # the bad byte starts a new line exactly when the text before it ends with a break
        lineno = len((data[bom:offset].decode("utf-8") + ".").splitlines())
        raise DataFormatError(
            f"{path}:{lineno}: not UTF-8 ({exc.reason} at offset {offset})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def read_curve(path: str | Path) -> DecayCurve:
    path = Path(path)
    times, amps, sigmas = [], [], []
    header_seen = False
    for lineno, line in data_lines(path):
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            if fields[:2] != ["t_seconds", "amplitude"] or len(fields) > 3 or (
                    len(fields) == 3 and fields[2] != "sigma"):
                raise DataFormatError(
                    f"{path}:{lineno}: expected header 't_seconds,amplitude[,sigma]', got {line!r}")
            header_seen = True
            has_sigma = len(fields) == 3
            continue
        if len(fields) != (3 if has_sigma else 2):
            raise DataFormatError(f"{path}:{lineno}: expected {3 if has_sigma else 2} fields, got {len(fields)}")
        values = [parse_finite(f, path, lineno) for f in fields]
        if values[0] < 0:
            raise DataFormatError(f"{path}:{lineno}: negative time {fields[0]!r}")
        if has_sigma and values[2] <= 0:
            raise DataFormatError(f"{path}:{lineno}: sigma must be positive, got {fields[2]!r}")
        times.append(values[0])
        amps.append(values[1])
        if has_sigma:
            sigmas.append(values[2])
    if not header_seen:
        raise DataFormatError(f"{path}: empty curve file")
    if not times:
        raise DataFormatError(f"{path}: no samples")
    try:
        return DecayCurve(np.array(times), np.array(amps),
                          np.array(sigmas) if sigmas else None)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


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
    text = format_table(header, np.column_stack(columns), sep=",")
    Path(path).write_text(text + "\n", encoding="utf-8")
