"""Benchmark runner for the ``repro`` package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scf_water_stored --seed 0 \\
        --seconds 10 --trace 0

One process, one client, one op at a time (a closed loop).  The runner
times set-up several times and reports the median, then runs ops until
``--seconds`` have passed, checking every op's output.

``--trace 0`` prints the end-to-end metrics: ``op_s`` (median wall
seconds per op), ``setup_s`` (imports plus the median set-up) and
``peak_rss_mb``.  ``--trace 1`` traces one set-up, then alternates an
untraced op with a traced one, wrapping each layer's public calls (see
``tracing.py``) only for the traced op, and prints the per-layer
metrics, with ``trace_overhead`` = traced ``op_s`` / untraced ``op_s``
- 1.  No workload makes the program wait on a lock, queue or I/O, so
there is no wait-time metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON report with the provenance (host, thread pins, git commit,
seed) and each metric's median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: threads for the J/K contraction and for BLAS: one, so the two cores
#: of a small shared host are not contended by one run
THREAD_PINS = {
    "REPRO_JK_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # the default scaled molecules, never the paper-size ones
    "REPRO_FULL": "0",
}
SETUP_REPS = 3
#: times the import of the workloads (so of repro and numpy) in a fresh
#: interpreter: an import is paid once per process, so each set-up
#: repetition measures it in a process of its own
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: per-layer metrics measured in the traced set-up, not in the ops
SETUP_LAYER_METRICS = ("chem.basis_build_s", "fock.molecule_setup_s")
#: exact counts read from the program's own counters, per op
OUTCOME_COUNTS = (
    "scf.iterations", "integrals.quartets_computed",
    "integrals.compute_per_use", "fock.cells", "fock.tasks_dispatched",
    "fock.counter_accesses", "fock.steals", "runtime.ga_calls",
    "runtime.ga_bytes",
)


def summary(samples: list[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(samples) > 1:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def provenance(args) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ[k] for k in THREAD_PINS},
        "loop": "closed, one client",
        "wait_time": "none measured: no workload waits on a lock, queue or I/O",
    }


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds() -> float:
    """Seconds to import the workloads in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "perfbench"),
         str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def timed_op(workload, call=None):
    """One op from a collected heap: its wall seconds and its outcome."""
    from workloads import Outcome

    gc.collect()  # every op starts from the same heap, outside its time
    t0 = time.perf_counter()
    try:
        out = (call or (lambda fn: fn()))(workload.op)
    except Exception:  # a failed op is counted, and the run goes on
        traceback.print_exc()
        out = Outcome(ok=False, err=math.inf, detail="op raised")
    seconds = time.perf_counter() - t0
    print(f"op: {seconds:.4f} s ok={out.ok} {out.detail}", flush=True)
    return seconds, out


def run_ops(workload, seconds: float):
    """Untraced ops until ``seconds`` have passed (at least one)."""
    times, outcomes = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        dt, out = timed_op(workload)
        times.append(dt)
        outcomes.append(out)
    return times, outcomes


def traced_ops(workload, seconds: float, tracer):
    """Pairs of an untraced and a traced op until ``seconds`` have passed.

    Alternating keeps a drift of the host's speed out of the overhead
    estimate.  The wrappers are installed only around each traced op and
    checked to be gone before each untraced one.
    """
    import tracing

    base, traced, outcomes = [], [], []
    ids = itertools.count()
    tracer.install()
    try:
        tracer.run_op("setup", workload.setup)
    finally:
        tracer.uninstall()
    start = time.perf_counter()
    while not base or time.perf_counter() - start < seconds:
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracer wrappers leaked: {leftover}")
        dt, out = timed_op(workload)
        base.append(dt)
        tracer.install()
        try:
            dt, traced_out = timed_op(
                workload, call=lambda fn: tracer.run_op(next(ids), fn)
            )
        finally:
            tracer.uninstall()
        traced.append(dt)
        outcomes += [out, traced_out]
    return base, traced, outcomes


def layer_metrics(tracer, outcomes, base_times, traced_times) -> dict:
    """Per-layer values: medians over the traced ops, with units."""
    import tracing

    rows = tracer.per_op()
    setup_row = rows.pop("setup")
    ops = [rows[i] for i in sorted(rows)]
    values: dict[str, tuple[float, str]] = {}
    for metric in tracing.TIMED:
        if metric in SETUP_LAYER_METRICS:
            v = setup_row[metric]
        else:
            v = statistics.median(r[metric] for r in ops)
        values[metric] = (v, "s")
    for metric in tracing.CALL_COUNTS:
        values[metric] = (statistics.median(r[metric] for r in ops), "count")
    for metric in tracing.COUNTED:
        values[metric] = (statistics.median(r[metric] for r in ops), "count")
    values[tracing.UNATTRIBUTED] = (
        statistics.median(r[tracing.UNATTRIBUTED] for r in ops), "s"
    )
    for metric in OUTCOME_COUNTS:
        v = statistics.median(o.counts.get(metric, 0) for o in outcomes)
        unit = "ratio" if metric == "integrals.compute_per_use" else "count"
        values[metric] = (v, unit)
    values["trace_overhead"] = (
        statistics.median(traced_times) / statistics.median(base_times) - 1.0,
        "ratio",
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports repro and numpy after the thread pins

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import tracing

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            import_s = import_seconds()
            t = time.perf_counter()
            workload.setup()
            setup_times.append(import_s + time.perf_counter() - t)

        if args.trace:
            tracer = tracing.Tracer()
            times, traced_times, all_out = traced_ops(
                workload, args.seconds, tracer
            )
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_file)
            leftover = tracing.installed_wrappers()
            # self times of an op's spans must add up to its wall time
            gap = max(
                abs(r["accounted_s"] - r["wall_s"])
                for r in tracer.per_op().values()
            )
            layers = layer_metrics(tracer, all_out[1::2], times, traced_times)
        else:
            times, all_out = run_ops(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not o.ok for o in all_out)
    attempted = len(all_out)
    # an op that raised has no deviation to report; keep the JSON finite
    max_err = min(max(o.err for o in all_out), sys.float_info.max)
    end_to_end = {
        "op_s": summary(times),
        "setup_s": summary(setup_times),
        "peak_rss_mb": summary([peak_rss_mb]),
    }
    correct = failed == 0
    report = {
        "provenance": provenance(args),
        "error_rate": failed / attempted,
        "max_err_tol": max_err,
        "end_to_end": {
            k: {**v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()
        },
    }
    if args.trace:
        layers["error_rate"] = (failed / attempted, "ratio")
        layers["max_err"] = (max_err, "tol")
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        report["traced_op_s"] = summary(traced_times)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["self_time_accounting_gap_s"] = gap
        if leftover:
            report["leaked_wrappers"] = leftover
        correct = correct and not leftover and gap < 1e-6
        metrics = report["per_layer"]
    else:
        metrics = {
            k: {"value": v["median"], "unit": END_TO_END_UNITS[k]}
            for k, v in end_to_end.items()
        }

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'error_rate':32s} {failed}/{attempted}")
        print(f"{'max_err':32s} {max_err:.3g} tol")
    print(json.dumps(report, default=float))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
