"""Decay-curve container and its on-disk format.

Curve files are UTF-8 CSV with header ``t_seconds,amplitude[,sigma]``,
``#`` comment lines allowed anywhere, times in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataFormatError(ValueError):
    """A curve file failed to parse; message names the file and line."""


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


def read_curve(path: str | Path) -> DecayCurve:
    path = Path(path)
    times, amps, sigmas = [], [], []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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


def write_curve(path: str | Path, curve: DecayCurve) -> None:
    lines = ["t_seconds,amplitude" + (",sigma" if curve.sigmas is not None else "")]
    for i in range(len(curve)):
        row = f"{float(curve.times[i])!r},{float(curve.amplitudes[i])!r}"
        if curve.sigmas is not None:
            row += f",{float(curve.sigmas[i])!r}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
