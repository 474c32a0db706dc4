"""Benchmark for riemopt: time to an accurate solve, end to end and per layer.

Run from the root of a checkout::

    python3 bench/run.py --workload eigen-shift --seed 1 --seconds 24 --trace 0

Workloads: ``eigen-shift``, ``geodesic-descent``, ``so-newton`` (see
``bench/README.md``).  Each run is one process driving a closed loop: one
client, and the next solve starts when the previous one returns.  The loop
runs a fixed number of cycles of solves, set by ``--seconds`` and sized to
last about that long on the baseline machine, and every answer is checked
against an independent reference.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay of a fixed number of cycles.  Lines before it, starting with
``#``, are for people.  The program under test is imported from ``src/``
of the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from summary import SolveRecord, class_table, ranked_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: BLAS threads, fixed for every run: with the default two threads on a
#: two-core machine the run-to-run spread of the SO(n) loops is several
#: times larger.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Seed reserved for held-out checks: a claimed gain must also hold on it,
#: so do not tune against it.
HELDOUT_SEED = 7919

SETUP_REPEATS = 11     # set-up is measured in this many fresh processes
MIN_SOLVES = 100       # solve_ms_p90 needs ten solves beyond it
MAX_FAILED_FRAC = 0.1  # beyond this solve_ms_p90 would land on a failure
STOP_AFTER_S = 150.0   # start no new round after this, so a slow program still ends

WORKLOAD_NAMES = ("eigen-shift", "geodesic-descent", "so-newton")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_riemopt():
    """Import riemopt from ``src/`` of this checkout, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import numpy
    import riemopt
    import riemopt.experiments

    if Path(riemopt.__file__).resolve().parent != SRC / "riemopt":
        raise ImportError(f"riemopt was imported from {riemopt.__file__}, not {SRC}")
    return SimpleNamespace(
        errors=riemopt.errors, solvers=riemopt.solvers, sphere=riemopt.sphere,
        rotation=riemopt.rotation, eigensolvers=riemopt.eigensolvers,
        experiments=riemopt.experiments,
        # what a solve may raise and still count as a failed solve, not a crash
        solve_errors=(riemopt.errors.RiemoptError, numpy.linalg.LinAlgError))


def setup_probe(args):
    """Child process: time ``import riemopt`` plus building the objects of
    one cycle.  Inputs are made between the two timings, untimed."""
    t0 = time.perf_counter()
    rm = import_riemopt()
    import_s = time.perf_counter() - t0
    import workloads

    jobs = workloads.WORKLOADS[args.workload].cycle(args.seed, 0)
    t1 = time.perf_counter()
    for job in jobs:
        job.build(rm, str(OUT))
    build_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "build_s": build_s}))
    return 0


def measure_setup(args):
    """Set-up time of one fresh process; the caller waits for it to end."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    return probe["import_s"] + probe["build_s"]


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def machine_probe():
    """Times of a fixed dense SVD and a fixed Python loop.  On a shared
    machine these drift by tens of percent over minutes; printing them with
    each run tells a slow machine from a slow program."""
    import numpy as np

    A = np.random.default_rng(0).standard_normal((250, 250))
    t0 = time.perf_counter()
    for _ in range(5):
        np.linalg.svd(A)
    t1 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    t2 = time.perf_counter()
    return {"svd250_ms": round(1e3 * (t1 - t0) / 5, 2), "pyloop_ms": round(1e3 * (t2 - t1), 2)}


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
        "heldout_seed": HELDOUT_SEED,
        "machine_probe": machine_probe(),
    }


def attempt(rm, job, out_dir, call=None):
    """Build, solve and check one job; the solve alone is timed."""
    solve = job.build(rm, out_dir)
    t0 = time.perf_counter()
    try:
        out = call(solve) if call is not None else solve()
    except rm.solve_errors as exc:
        return SolveRecord(job.label, time.perf_counter() - t0, True, type(exc).__name__, math.inf)
    seconds = time.perf_counter() - t0
    ok, error, reason = job.check(rm, out)
    return SolveRecord(job.label, seconds, not ok, reason, error)


def describe(records):
    for label, count, failed, median_ms, total_s in class_table(records):
        print(f"# class {label}: {count} solves, {failed} failed, "
              f"median {median_ms:.3f} ms, total {total_s:.3f} s")
    reasons = {}
    for r in records:
        if r.failed:
            key = f"{r.label} {r.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, count in sorted(reasons.items()):
        print(f"# failed {key} x{count}")


def timed_run(args, rm, workload, out_dir):
    per_cycle = len(workload.cycle(args.seed, 0))
    planned = workload.cycles_for(args.seconds, per_cycle, MIN_SOLVES)
    # set-up probes are spread over the run, between solves, so that their
    # median does not rest on the few seconds at its start
    total = planned * per_cycle
    probe_before = {(2 * k + 1) * total // (2 * SETUP_REPEATS) for k in range(SETUP_REPEATS)}
    setups, records, cycles = [], [], 0
    t0 = time.perf_counter()
    while cycles < planned:
        for job in workload.cycle(args.seed, cycles):
            if len(records) in probe_before:
                setups.append(measure_setup(args))
            records.append(attempt(rm, job, out_dir))
        cycles += 1
        if cycles % workload.round == 0 and time.perf_counter() - t0 >= STOP_AFTER_S:
            print(f"# stopped after {cycles} of {planned} cycles: over {STOP_AFTER_S:.0f} s")
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(args))
    setup_s = statistics.median(setups)

    solve_s = sum(r.seconds for r in records)
    failed = sum(r.failed for r in records)
    p50, p90 = (ranked_percentile(records, q) for q in (0.5, 0.9))
    correct = failed < MAX_FAILED_FRAC * len(records) and math.isfinite(p90)
    # a percentile that lands on a failure is reported as the whole solve time
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": ((len(records) - failed) / solve_s, "1/s"),
        "solve_ms_p50": (1e3 * (p50 if math.isfinite(p50) else solve_s), "ms"),
        "solve_ms_p90": (1e3 * (p90 if math.isfinite(p90) else solve_s), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    describe(records)
    print(f"# {args.workload} seed {args.seed}: {cycles} cycles, {len(records)} solves, "
          f"{failed} failed, {solve_s:.3f} s in solves, {time.perf_counter() - t0:.3f} s wall")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {failed / len(records):.6g} 1")
    return {"correct": correct, "attempted": len(records), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def unit_of(name):
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_frac"):
        return "1"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def traced_run(args, rm, workload, out_dir):
    """Untraced pass, traced pass over the same cycles, then a traced replay
    of the first cycle whose exact counts must match the traced pass's."""
    import tracing

    cycles = range(workload.trace_cycles)
    untraced = [attempt(rm, job, out_dir) for c in cycles for job in workload.cycle(args.seed, c)]

    tracer = tracing.Tracer()
    tracing.install(tracer, rm)
    records, first_cycle, replay = [], [], []

    def traced_attempt(job, ids):
        sid = len(records)
        ids.append(sid)
        records.append(attempt(rm, job, out_dir, lambda fn: tracer.run_solve(sid, fn)))

    for c in cycles:
        for job in workload.cycle(args.seed, c):
            traced_attempt(job, first_cycle if c == 0 else [])
    measured = list(range(len(records)))
    for job in workload.cycle(args.seed, 0):
        traced_attempt(job, replay)

    m, checks = tracing.layer_metrics(tracer, measured)
    mismatches = tracing.count_mismatches(tracing.layer_metrics(tracer, first_cycle)[0],
                                          tracing.layer_metrics(tracer, replay)[0])
    traced = records[: len(measured)]
    failed = sum(r.failed for r in traced)
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.count_mismatches"] = len(mismatches)
    m["solves.failed_frac"] = failed / len(traced)

    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    nested = checks["nesting_faults"] == 0
    describe(traced)
    print(f"# traced {len(cycles)} cycles: {len(traced)} solves, {checks['spans']} spans, "
          f"{checks['nesting_faults']} not nested; self times sum to "
          f"{checks['self_sum_s']:.6f} s of {checks['solve_s']:.6f} s traced")
    print(f"# tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced")
    for name in mismatches:
        print(f"# count not repeated in the replay of cycle 0: {name}")
    for name in sorted(m):
        print(f"# {name} = {m[name]:.6g} {unit_of(name)}")
    correct = nested and failed < MAX_FAILED_FRAC * len(traced)
    return {"correct": correct, "attempted": len(traced), "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(m.items())}}


def main(argv=None):
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "riemopt" / "__init__.py").is_file():
        print(f"bench: no riemopt sources at {SRC / 'riemopt'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    rm = import_riemopt()
    from workloads import WORKLOADS, warmup_jobs

    workload = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="emit-", dir=OUT)
    try:
        for job in warmup_jobs(workload, args.seed):
            attempt(rm, job, out_dir)
        if args.trace:
            result = traced_run(args, rm, workload, out_dir)
        else:
            result = timed_run(args, rm, workload, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
