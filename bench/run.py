"""quadrelax benchmark: one closed loop, one client, in a single process.

    python3 bench/run.py --workload fit|forward|conformance|all --seed N \
        --seconds S --trace 0|1

Run from anywhere; the program is imported from ``src/`` beside this
directory.  ``--trace 0`` times ops with tracing off for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` runs a fixed number of ops, each
once untraced and once traced, and prints the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A results file with the environment goes to ``.bench_runs/``.
See README.md beside this file for the workloads and metrics.
"""

import os

#: BLAS threads; the ops are 8x8 eigensolves and short vectors, so one thread
#: loses nothing and removes scheduler noise.  Set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

#: fresh interpreters launched per run to measure set-up (median reported)
SETUP_LAUNCHES = 5
#: a timed run goes on past --seconds until it has this many ops (for the tail)
MIN_OPS = 20
#: no run measures longer than this, whatever the op count
HARD_STOP_S = 140.0
#: on fit, a traced eigensolve count within this of 2 per objective evaluation
COVERAGE_TOL = 0.05

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}

#: the reference kernel: the program's mix of small symmetric eigensolves and
#: interpreted arithmetic, on fixed data and independent of the program.  Timed
#: beside every op and every set-up launch, it measures how fast the machine
#: runs at that moment; gated times are rescaled to the speed at which the
#: kernel takes REF_SECONDS, which cancels the machine's speed swings (README.md)
REF_SECONDS = 4.5e-4
#: kernel runs whose median is taken before each set-up launch
REF_RUNS = 11
_REF_MATRIX = np.add.outer(np.arange(8.0), 2 * np.arange(8.0)) % 7 + 8 * np.eye(8)


def reference_kernel() -> float:
    """Wall seconds of one run of the reference kernel."""
    m = _REF_MATRIX + _REF_MATRIX.T
    start = time.perf_counter()
    for _ in range(20):
        np.linalg.eigh(m)
    acc = 0
    for k in range(2000):
        acc += k * k
    return time.perf_counter() - start


SETUP_LAYER_UNITS = {"setup.import_s": "s", "setup.import_analysis_s": "s",
                     "setup.cache_fill_s": "s"}
#: the known-defect probe's share of failed J0 = J1 = J2 triples (workloads.equal_j_probe)
EQUAL_J_METRIC = "redfield_core.equal_j_fail_frac"


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def git_sha(root: Path) -> str | None:
    """HEAD of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "processor": platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "blas": blas, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(ROOT),
    }


def launch_ready(importtime: bool) -> tuple[float, dict, str]:
    """Start a fresh interpreter that imports the program and fills its caches.

    Returns (seconds from launch until ready, the probe's clock readings,
    its stderr).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(BENCH / "ready.py")]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    clocks = json.loads(proc.stdout.strip().splitlines()[-1])
    return clocks["ready"] - launched, clocks, proc.stderr


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def freeze_heap() -> None:
    """Move every object alive after warm-up (the imported modules, the
    harness) out of the collector's reach.  Otherwise the full collection
    that a few hundred short ops trigger rescans them: a 25 ms pause that
    lands on one op and that a one-shot CLI run never reaches.  The ops' own
    garbage is still collected."""
    gc.collect()
    gc.freeze()


def run_op(workload, i: int, tally, tracer=None) -> float:
    """Make op ``i``'s input, run it (traced if a tracer is given), check its
    output into ``tally``; return the op's wall time.  Only the op is timed."""
    inp = workload.make_input(i)
    if tracer is not None:
        tracer.op, tracer.enabled = i, True
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        out = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if isinstance(out, Exception):
        tally.record(stats.failed(f"op raised {type(out).__name__}"))
    else:
        tally.record(workload.check(inp, out))
    return elapsed


def run_timed(workload, tally, deadline: float, hard_stop: float) -> tuple[list, list]:
    """Ops 0, 1, ... until ``deadline`` and at least MIN_OPS ops, each followed
    by one reference kernel; returns (op wall times, reference wall times)."""
    durations: list[float] = []
    references: list[float] = []
    while time.monotonic() < hard_stop and (time.monotonic() < deadline or len(durations) < MIN_OPS):
        durations.append(run_op(workload, len(durations), tally))
        references.append(reference_kernel())
    return durations, references


def run_paired(workload, tally, n: int, tracer, hard_stop: float) -> tuple[list, list]:
    """Ops 0..n-1, each once untraced and then once traced, so that both
    passes see the same inputs and the same state of the machine."""
    untraced: list[float] = []
    traced: list[float] = []
    for i in range(n):
        if time.monotonic() >= hard_stop:
            break
        untraced.append(run_op(workload, i, tally))
        tracer.patch(True)
        try:
            traced.append(run_op(workload, i, tally, tracer))
        finally:
            tracer.patch(False)
    return untraced, traced


def measure(args) -> dict:
    """Run one workload; return its results record, metrics included."""
    started = time.monotonic()
    hard_stop = started + HARD_STOP_S
    workdir = RUNS / f"work-{os.getpid()}"
    tally = stats.Tally()
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment()}
    metrics: dict = {}
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        record["settings"] = workload.record()
        probe = workloads.equal_j_probe(args.seed, workdir, ROOT)
        if args.trace:
            probes = [launch_ready(importtime=True) for _ in range(3)]
            imports = [stats.parse_importtime(log) for _, _, log in probes]
            analysis_s = [a for _, a in imports if a is not None]
            metrics["setup.import_s"] = stats.median([t for t, _ in imports])
            metrics["setup.import_analysis_s"] = stats.median(analysis_s) if analysis_s else 0.0
            metrics["setup.cache_fill_s"] = stats.median(
                [c["ready"] - c["imported"] for _, c, _ in probes])
            absent = [] if analysis_s else ["setup.import_analysis_s"]

            run_op(workload, 0, tally)  # warm-up
            freeze_heap()
            n = workloads.TRACE_OPS[args.workload]
            tracer = tracing.Tracer()
            tracer.install()
            tracer.patch(False)
            untraced, traced = run_paired(workload, tally, n, tracer, hard_stop)
            layers, bases = tracing.layer_metrics(tracer, range(len(traced)))
            metrics.update(layers)
            metrics["tracing.overhead_frac"] = stats.median(traced) / stats.median(untraced) - 1
            metrics[EQUAL_J_METRIC] = probe.failed_frac
            absent += tracing.absent_metrics(tracer)
            coverage = None
            if args.workload == "fit":
                coverage = abs(metrics["tracing.eig_per_objective"] - 2.0) <= COVERAGE_TOL
            record.update(ops_per_pass=n, traced_ops=len(traced), ratio_bases=bases,
                          absent_metrics=absent, absent_callables=tracer.absent,
                          coverage_check_passed=coverage)
            RUNS.mkdir(exist_ok=True)
            tracer.dump(RUNS / f"{args.workload}-seed{args.seed}-spans.json")
            units = {**SETUP_LAYER_UNITS, "tracing.overhead_frac": "ratio", EQUAL_J_METRIC: "ratio",
                     **{k: unit for k, (unit, _) in tracing.LAYER_SOURCES.items()}}
        else:
            setup_wall, setup_ref = [], []
            for _ in range(SETUP_LAUNCHES):
                setup_ref.append(stats.median([reference_kernel() for _ in range(REF_RUNS)]))
                setup_wall.append(launch_ready(importtime=False)[0])
            run_op(workload, 0, tally)  # warm-up
            freeze_heap()
            durations, references = run_timed(workload, tally, time.monotonic() + args.seconds,
                                              hard_stop)
            tail = stats.tail(durations)
            wall = {"setup_s": stats.median(setup_wall), "op_p50_s": stats.median(durations),
                    "op_tail_s": tail[1] if tail else None,
                    "ops_per_s": len(durations) / sum(durations),
                    "ref_kernel_s": stats.median(references)}
            at_ref = [x * REF_SECONDS for x in stats.normalize(durations, references)]
            tail = stats.tail(at_ref)
            metrics["setup_s"] = stats.median(
                [w * REF_SECONDS / r for w, r in zip(setup_wall, setup_ref)])
            metrics["op_p50_s"] = stats.median(at_ref)
            if tail is not None:
                metrics["op_tail_s"] = tail[1]
            metrics["ops_per_s"] = len(at_ref) / sum(at_ref)
            metrics["ok_frac"] = tally.ok_frac
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            record.update(setup_wall_s=setup_wall, setup_ref_kernel_s=setup_ref,
                          timed_ops=len(durations), wall=wall,
                          tail_percentile=tail[0] if tail else None)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(correct=tally.correct, attempted=tally.attempted,
                  failed=tally.failed, failed_frac=tally.failed_frac, wrong=tally.wrong,
                  failure_reasons=tally.reasons, checks=workload.notes(),
                  equal_j_probe={"triples": probe.attempted, "failed": probe.failed,
                                 "wrong": probe.wrong, "reasons": probe.reasons},
                  wall_s=time.monotonic() - started)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def print_record(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:<12} {name:<42} {m['value']:<14.6g} {m['unit']}")
    print(f"{record['workload']:<12} {'ops attempted / failed / failed_frac':<42} "
          f"{record['attempted']} / {record['failed']} / {record['failed_frac']:.4g}")
    for name, value in record.get("wall", {}).items():
        if value is not None:
            print(f"{record['workload']:<12} {name + ' (wall, not gated)':<42} {value:<14.6g}")
    if record.get("tail_percentile") is not None:
        print(f"{record['workload']:<12} {'op_tail percentile':<42} p{record['tail_percentile']:.4g}"
              f" of {record['timed_ops']} ops")
    if record.get("absent_metrics"):
        print(f"{record['workload']:<12} absent: {', '.join(record['absent_metrics'])}")
    if record.get("coverage_check_passed") is not None:
        verdict = "passed" if record["coverage_check_passed"] else "FAILED"
        print(f"{record['workload']:<12} coverage check (2 eigensolves per objective) {verdict}")
    for reason, count in record["failure_reasons"].items():
        print(f"{record['workload']:<12} failed: {reason} x{count}")
    for name, count in record["checks"].items():
        print(f"{record['workload']:<12} {name + ' (not failed)':<42} {count}")
    probe = record["equal_j_probe"]
    print(f"{record['workload']:<12} {'J0=J1=J2 probe, outside the ops':<42} "
          f"{probe['failed']} of {probe['triples']} failed, {probe['wrong']} of them wrong "
          f"{probe['reasons'] or ''}")


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    correct, attempted, failed_ops, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed_ops += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed_ops,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "forward", "conformance", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadrelax" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global workloads
    import workloads
    if args.workload == "all":
        return run_all(args)
    record = measure(args)
    print_record(record)
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
