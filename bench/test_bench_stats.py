"""Tests of the benchmark's own arithmetic and of its output checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_stats.py
"""

import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    # overlapping children count once; a child running past the span is clipped
    children = [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]
    assert stats.covered_length(children, 0.0, 10.0) == pytest.approx(5.0)
    assert stats.self_time(0.0, 10.0, children) == pytest.approx(5.0)


def test_self_time_without_children_is_duration():
    assert stats.self_time(2.0, 2.5, []) == pytest.approx(0.5)
    assert stats.self_time(2.0, 2.5, [(3.0, 4.0)]) == pytest.approx(0.5)


def test_layer_metrics_self_time_and_repeats():
    tracer = tracing.Tracer()
    span = tracing.Span
    tracer.spans = [
        span(0, "evolution.propagate", 0.0, 1.0, None, 0),
        span(1, "redfield_core.numeric_eigensystem", 0.1, 0.3, 0, 0, key="a"),
        span(2, "redfield_core.numeric_eigensystem", 0.4, 0.5, 0, 0, key="a"),
        span(3, "redfield_core.numeric_eigensystem", 0.6, 0.7, 0, 0, key="b"),
        span(4, "redfield_core.numeric_eigensystem", 0.0, 0.1, None, 1, key="a"),
    ]
    metrics, bases = tracing.layer_metrics(tracer, range(2))
    # op 0: 1.0 - 0.4 of eigensolves; op 1: no propagate -> median of (0.6, 0)
    assert metrics["evolution.propagate_s"] == pytest.approx(0.3)
    assert metrics["redfield_core.numeric_eigensystem.calls"] == 2.0
    # only span 2 repeats a block seen earlier in its own op
    assert bases["redfield_core.eig_repeat_frac"] == {"repeats": 1, "eigensolves": 4}
    assert metrics["redfield_core.eig_repeat_frac"] == pytest.approx(0.25)


# -- tail percentile ---------------------------------------------------------

@pytest.mark.parametrize("n, want", [(20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (5000, 99.0)])
def test_tail_percentile(n, want):
    assert stats.tail_percentile(n) == pytest.approx(want)


def test_tail_absent_for_too_few_ops():
    assert stats.tail_percentile(19) is None
    assert stats.tail(list(range(19))) is None


@pytest.mark.parametrize("n", [20, 37, 100, 1000])
def test_tail_leaves_exactly_ten_ops_beyond(n):
    values = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(values)
    percentile, value = stats.tail(values)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND
    assert percentile == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_capped_at_p99():
    values = [float(v) for v in range(1, 4322)]
    percentile, value = stats.tail(values)
    assert percentile == stats.TAIL_CAP
    assert sum(v > value for v in values) == 43


# -- failure accounting ------------------------------------------------------

def test_tally_counts_failed_and_wrong():
    tally = stats.Tally()
    for verdict in (stats.OK, stats.failed("exit 1"), stats.wrong("bad table"), stats.OK):
        tally.record(verdict)
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert tally.failed_frac == pytest.approx(0.5)
    assert tally.ok_frac == pytest.approx(0.5)
    assert not tally.correct
    assert tally.reasons == {"exit 1": 1, "bad table": 1}


def test_tally_reported_failures_keep_outputs_correct():
    tally = stats.Tally()
    tally.record(stats.failed("validate exit 1"))
    tally.record(stats.OK)
    assert tally.correct and tally.failed_frac == pytest.approx(0.5)
    assert not stats.Tally().correct  # nothing attempted, nothing verified


def _rewrite(path, edit):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_forward_wrong_outputs_count_as_failed(tmp_path):
    wl = workloads.Forward(seed=3, workdir=tmp_path, root=ROOT)
    inp = wl.make_input(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == stats.OK

    def bump_q7(lines):
        cells = lines[-1].split()
        cells[2] = repr(float(cells[2]) * (1 + 1e-6))
        return lines[:-1] + [" ".join(cells)]

    _rewrite(wl.rates_path, bump_q7)
    tally = stats.Tally()
    tally.record(wl.check(inp, out))
    assert (tally.failed, tally.wrong, tally.correct) == (1, 1, False)

    def nudge_checked_row(lines):
        row = 1 + wl.CHECK_ROWS[2]  # line 0 is the header
        cells = lines[row].split()
        cells[1] = repr(float(cells[1]) + 1e-6)
        return lines[:row] + [" ".join(cells)] + lines[row + 1:]

    wl.run(inp)
    _rewrite(wl.traj_path, nudge_checked_row)
    verdict = wl.check(inp, out)
    assert verdict.wrong and "oracle" in verdict.reason


def test_conformance_deviation_reported_as_pass_is_wrong(tmp_path):
    wl = workloads.Conformance(seed=3, workdir=tmp_path, root=ROOT)
    j = wl.make_input(0)
    out = wl.run(j)
    assert wl.check(j, out) == stats.OK
    _rewrite(wl.report, lambda lines: [l.replace("q0_max_rel = ", "q0_max_rel = 1e-6 #") for l in lines])
    assert wl.check(j, out).wrong


def test_conformance_nonzero_exit_is_failed_not_wrong(tmp_path):
    wl = workloads.Conformance(seed=3, workdir=tmp_path, root=ROOT)
    j = wl.make_input(0)
    _, systems = wl.run(j)
    verdict = wl.check(j, (1, systems))
    assert not verdict.ok and not verdict.wrong


def test_fit_oracle_reproduces_the_clean_curves():
    oracle = workloads.SignalOracle()
    clean = [workloads._read_curve(ROOT / "bench" / f"criterion7_{kind}.csv")
             for kind in ("longitudinal", "transverse")]
    sz, sx = oracle.curves(workloads.Fit.PARAMS, clean[0][0], clean[1][0])
    assert np.max(np.abs(sz - clean[0][1])) < 1e-12
    assert np.max(np.abs(sx - clean[1][1])) < 1e-12


def test_fit_check_asks_for_the_generating_cost_or_lower(tmp_path):
    wl = workloads.Fit(seed=3, workdir=tmp_path, root=ROOT)
    inp = wl.make_input(1)
    curves = [workloads._read_curve(Path(p)) for p in inp]

    def report(**changes):
        params = {**wl.PARAMS, **changes}
        residual = float(np.sqrt(wl.oracle.cost(params, *curves)))
        lines = ["restarts = 1", f"residual_norm = {residual!r}"]
        wl.report.write_text("\n".join(lines + [f"{k} = {v!r} +/- 0.1" for k, v in params.items()]))

    report()  # the generating parameters themselves: cost equal, B within criterion 7
    assert wl.check(inp, 0) == stats.OK and wl.outside_criterion7 == 0
    report(b0=90.0)  # a worse cost than the generating parameters': a failed fit
    verdict = wl.check(inp, 0)
    assert not verdict.ok and not verdict.wrong
    report()
    _rewrite(wl.report, lambda lines: [l.replace("residual_norm = ", "residual_norm = 1.0 #")
                                       for l in lines])
    assert wl.check(inp, 0).wrong  # the reported residual is not the model's
    report()
    _rewrite(wl.report, lambda lines: [l.replace("b1 = ", "b1 = nan #") for l in lines])
    assert wl.check(inp, 0).wrong
    assert wl.check(inp, 1) == stats.failed("fit exit 1")


def test_equal_j_probe_counts_without_touching_the_ops(tmp_path):
    probe = workloads.equal_j_probe(3, tmp_path, ROOT)
    assert probe.attempted == workloads.EQUAL_J_TRIPLES
    wl = workloads.Conformance(seed=3, workdir=tmp_path, root=ROOT)
    assert all(j.j0 - j.j2 >= workloads.NEAR_EQUAL * j.j0 for j in map(wl.make_input, range(48)))


# -- tracing -----------------------------------------------------------------

def test_tracer_patches_every_namespace_and_restores():
    import quadrelax
    from quadrelax import analysis, cli, evolution, redfield_core
    original = redfield_core.numeric_eigensystem
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (quadrelax, analysis, cli, evolution, redfield_core):
            assert mod.numeric_eigensystem is not original
        tracer.enabled, tracer.op = True, 0
        block = redfield_core.CoherenceBlock(7, np.array([[-28.0]]))
        analysis.numeric_eigensystem(block)
        evolution.numeric_eigensystem(block)
        tracer.enabled = False
    finally:
        tracer.patch(False)
    assert all(m.numeric_eigensystem is original for m in (quadrelax, analysis, cli, evolution))
    assert [s.name for s in tracer.spans] == ["redfield_core.numeric_eigensystem"] * 2
    assert tracer.absent == []


def test_missing_callable_is_absent_not_fatal():
    tracer = tracing.Tracer()
    tracer.install([tracing.Target("redfield_core", "no_such_function")])
    tracer.patch(False)
    assert tracer.absent == ["redfield_core.no_such_function"]


def test_parse_importtime():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "bench-ready: import",
        "import time:      1000 |     400000 |     quadrelax.analysis",
        "import time:      2000 |     500000 |   quadrelax",
        "import time:      3000 |     600000 | quadrelax.cli",
    ])
    total, analysis = stats.parse_importtime(log)
    assert total == pytest.approx(0.6)
    assert analysis == pytest.approx(0.4)


def test_normalize_cancels_a_slow_spell():
    # the machine runs 2x slower for ops 10..19: ops and references both double
    durations = [2.0 if 10 <= i < 20 else 1.0 for i in range(30)]
    references = [0.2 if 10 <= i < 20 else 0.1 for i in range(30)]
    assert stats.normalize(durations, references) == pytest.approx([10.0] * 30)
