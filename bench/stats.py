"""Arithmetic of the benchmark: percentiles, span self time and failure accounting.

Pure functions and one small tally class; nothing here imports the program,
so the unit tests in ``test_bench_stats.py`` run without it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

#: an op's tail percentile must leave at least this many ops beyond it
TAIL_BEYOND = 10
#: ... and is at most this percentile: further out, a run's tail measured the
#: host's 200 ms contention bursts rather than the program (README.md)
TAIL_CAP = 99.0


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, percentile: float) -> float:
    """Smallest sample with at least ``percentile`` % of the samples at or below it."""
    ordered = sorted(values)
    k = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[k - 1])


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> float | None:
    """Highest percentile, up to TAIL_CAP, whose nearest-rank sample leaves at
    least ``beyond`` ops above it.

    With ``n`` ops that is the (n - beyond)-th smallest op, i.e. percentile
    100 (n - beyond) / n, for n up to 1000 ops.  Below 2 * beyond ops the
    percentile would fall under the median, and None is returned: the run
    has too few ops for a tail.
    """
    if n < 2 * beyond:
        return None
    return min(TAIL_CAP, 100.0 * (n - beyond) / n)


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """(percentile, value) of the tail rule, or None for too few samples."""
    p = tail_percentile(len(values), beyond)
    if p is None:
        return None
    return p, nearest_rank(values, p)


def normalize(durations, references, half_window: int = 1) -> list[float]:
    """Each duration divided by the median of the references measured within
    ``half_window`` ops of it (reference ``i`` runs right after op ``i``), so
    that a slow spell of the machine, which slows both, cancels out."""
    n = len(references)
    return [d / median(references[max(0, i - half_window):min(n, i + half_window + 1)])
            for i, d in enumerate(durations)]


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - covered_length(child_intervals, start, end)


def ratio(num: float, den: float) -> float:
    """num / den, reported as 0.0 when the base is empty."""
    return num / den if den else 0.0


@dataclass
class Tally:
    """Outcome of every attempted op.

    An op *fails* when it raised or returned a non-zero exit code, or when its
    output failed its check.  An output is *wrong* when the op reported
    success but an exact check on its output did not hold; ``correct`` is
    false as soon as one output is wrong.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict = field(default_factory=dict)

    def record(self, verdict: "Verdict") -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
            self.reasons[verdict.reason] = self.reasons.get(verdict.reason, 0) + 1
        if verdict.wrong:
            self.wrong += 1

    @property
    def failed_frac(self) -> float:
        return ratio(self.failed, self.attempted)

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed_frac

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.wrong == 0


@dataclass(frozen=True)
class Verdict:
    """Result of checking one op: ok, or failed with a reason (and wrong if silently so)."""

    ok: bool
    reason: str = ""
    wrong: bool = False


OK = Verdict(True)


def failed(reason: str) -> Verdict:
    """The program reported a failure, or a statistical bound was missed."""
    return Verdict(False, reason)


def wrong(reason: str) -> Verdict:
    """The program reported success, but its output is wrong."""
    return Verdict(False, reason, wrong=True)


def parse_importtime(log: str, module: str = "quadrelax.analysis") -> tuple[float, float | None]:
    """(seconds of all imports after the set-up probe's ``bench-ready:`` marker,
    cumulative seconds of ``module`` or None) from a ``-X importtime`` log."""
    total, analysis, started = 0.0, None, False
    for line in log.splitlines():
        if line.startswith("bench-ready:"):
            started = True
            continue
        if not started or not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative = int(fields[1]) / 1e6
        except (IndexError, ValueError):
            continue
        name = fields[2]
        if len(name) - len(name.lstrip(" ")) == 1:  # top level of the import tree
            total += cumulative
        if name.strip() == module:
            analysis = cumulative
    return total, analysis
