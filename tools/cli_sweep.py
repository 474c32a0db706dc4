"""Run the ``riemopt`` CLI over a fixed grid, list the files that differ
between two such runs, or regenerate the golden manifest::

    python tools/cli_sweep.py SRC OUT          # riemopt imported from SRC
    python tools/cli_sweep.py --compare A B    # exit 1 if any file differs
    python tools/cli_sweep.py --compare A B --ignore KEY...  # ... but for these report keys
    python tools/cli_sweep.py --golden         # rewrite tests/golden_sweep.json

Grid: ``fig1`` with every method at n = 5, 21 and 60, every start, the
default and golden searches; the shift solvers ``rqi``, ``newton-rq`` and
``newton`` on ``fig1`` at n = 250 from a random start, a benchmark size;
``fig2`` and ``jacobi`` at n = 5 and 10, ``jacobi`` from its default and
from a random start; ``fig2`` sd and cg (both searches) at n = 10 from a
random start, the benchmark's heaviest class, whose steps reach Pade
order 7 in the exponential; ``fig2`` sd and cg (both searches) and
``jacobi`` at n = 30 from near starts, a benchmark size; Newton on SO(n)
at benchmark sizes: ``fig2`` at n = 20 from a random start (every step a
gradient fallback) and at n = 60 from a near start, ``jacobi`` at n = 60
from a near start; ``fd-check``, which builds all three objectives;
seeds 0, 3 and 7.
Run NAME writes its trace, report and exit code (``exit.txt``) into
``OUT/NAME/``; all runs share one subprocess with one BLAS thread.

The golden manifest holds the SHA-256 of every file of the ``GOLDEN`` runs
and of the ``DENSE`` traces, made from this repository's ``src``, with the
numpy, scipy and BLAS versions it was made under; ``tests/test_golden_sweep.py``
remakes it the same way, in a worker with one BLAS thread (the dense
reduction's bits at n = 250 depend on the thread count), and compares.  A
change that moves report or trace bytes regenerates it."""

import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile

GRID = [("fig1", ["sd", "cg", "newton", "rqi", "newton-rq"], [5, 21, 60],
         ["default", "random", "near"], ["default", "golden"]),
        ("fig1", ["rqi", "newton-rq", "newton"], [250], ["random"], ["default"]),
        ("fig2", ["sd", "cg", "newton"], [5, 10], ["default"], ["default", "golden"]),
        ("fig2", ["sd", "cg"], [10], ["random"], ["default", "golden"]),
        ("fig2", ["sd", "cg"], [30], ["near"], ["default", "golden"]),
        ("fig2", ["newton"], [20], ["random"], ["default"]),
        ("fig2", ["newton"], [60], ["near"], ["default"]),
        ("jacobi", ["newton"], [5, 10], ["default", "random"], ["default"]),
        ("jacobi", ["newton"], [30, 60], ["near"], ["default"])]
SEEDS = [0, 3, 7]
#: 58 runs in grid order: every experiment, method, search and start kind,
#: each fig1 method at n = 5, 21 and 60 and every grid row's sizes
GOLDEN = (
    "fig1-sd-n5-s0-default-default", "fig1-sd-n21-s3-default-golden",
    "fig1-sd-n60-s7-random-default", "fig1-sd-n5-s0-random-golden",
    "fig1-sd-n21-s3-near-default", "fig1-sd-n60-s7-near-golden",
    "fig1-cg-n5-s0-default-default", "fig1-cg-n21-s3-default-golden",
    "fig1-cg-n60-s7-random-default", "fig1-cg-n5-s0-random-golden",
    "fig1-cg-n21-s3-near-default", "fig1-cg-n60-s7-near-golden",
    "fig1-newton-n5-s0-default-default", "fig1-newton-n21-s3-default-golden",
    "fig1-newton-n60-s7-random-default", "fig1-newton-n5-s0-random-golden",
    "fig1-newton-n21-s3-near-default", "fig1-newton-n60-s7-near-golden",
    "fig1-rqi-n5-s0-default-default", "fig1-rqi-n21-s3-random-default",
    "fig1-rqi-n60-s7-near-default",
    "fig1-newton-rq-n5-s0-default-default", "fig1-newton-rq-n21-s3-default-golden",
    "fig1-newton-rq-n60-s7-random-default", "fig1-newton-rq-n5-s0-random-golden",
    "fig1-newton-rq-n21-s3-near-default", "fig1-newton-rq-n60-s7-near-golden",
    "fig1-rqi-n250-s0-random-default", "fig1-newton-rq-n250-s3-random-default",
    "fig1-newton-n250-s7-random-default",
    "fig2-sd-n5-s0-default-default", "fig2-sd-n5-s3-default-golden",
    "fig2-sd-n10-s7-default-default", "fig2-sd-n10-s0-default-golden",
    "fig2-cg-n5-s3-default-default", "fig2-cg-n5-s7-default-golden",
    "fig2-cg-n10-s0-default-default", "fig2-cg-n10-s3-default-golden",
    "fig2-newton-n5-s7-default-default", "fig2-newton-n5-s0-default-golden",
    "fig2-newton-n10-s3-default-default", "fig2-newton-n10-s7-default-golden",
    "fig2-sd-n10-s0-random-default", "fig2-sd-n10-s3-random-golden",
    "fig2-cg-n10-s7-random-default", "fig2-cg-n10-s0-random-golden",
    "fig2-sd-n30-s7-near-default", "fig2-cg-n30-s7-near-default",
    "fig2-cg-n30-s0-near-golden",
    "fig2-newton-n20-s0-random-default", "fig2-newton-n60-s0-near-default",
    "jacobi-newton-n5-s0-default-default", "jacobi-newton-n5-s3-random-default",
    "jacobi-newton-n10-s7-default-default", "jacobi-newton-n10-s0-random-default",
    "jacobi-newton-n30-s0-near-default", "jacobi-newton-n60-s3-near-default",
    "fd-check-s0")
#: (n, seed) of the dense problems: every CLI run of the Rayleigh quotient is
#: on fig1's diagonal Q, where reordered products round alike, so the eigen
#: drivers also run on ``random_symmetric(seed)`` from
#: ``random_unit_vector(seed + 1)``, through library calls
DENSE = [(n, seed) for n in (60, 250) for seed in SEEDS]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "golden_sweep.json")


def run(main, run_dir, argv):
    try:
        code = main(argv + ["--out", run_dir])
    except SystemExit as exc:  # a usage error
        code = exc.code
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "exit.txt"), "w") as fh:
        fh.write(f"{code}\n")


def runs():
    """``(name, argv)`` of every run of the grid, in order."""
    for experiment, *axes in GRID:
        for method, n, init, search, seed in itertools.product(*axes, SEEDS):
            if method == "rqi" and search != "default":
                continue
            argv = [experiment, "--method", method, "--n", str(n), "--seed", str(seed)]
            argv += [] if init == "default" else ["--init", init]
            argv += [] if search == "default" else ["--line-search", search]
            yield f"{experiment}-{method}-n{n}-s{seed}-{init}-{search}", argv
    for seed in SEEDS:
        yield f"fd-check-s{seed}", ["fd-check", "--seed", str(seed)]


def sweep(out, selected):
    """The ``(name, argv)`` runs ``selected`` into ``out``."""
    from riemopt.cli import main

    for name, argv in selected:
        run(main, os.path.join(out, name), argv)


def versions():
    """The numpy, scipy and BLAS versions the run's bytes depend on."""
    import numpy
    import scipy

    def blas(module):
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):  # a release without the dict form
            return "unknown"
        return f"{dep['name']} {dep['version']}"

    return {"numpy": numpy.__version__, "numpy BLAS": blas(numpy),
            "scipy": scipy.__version__, "scipy BLAS": blas(scipy),
            "machine": platform.machine()}


def golden(out):
    """The ``GOLDEN`` runs made into ``out``: ``{name: {file: SHA-256}}``."""
    sweep(out, [(name, argv) for name, argv in runs() if name in GOLDEN])
    digests = {}
    for name in GOLDEN:
        run_dir = os.path.join(out, name)
        digests[name] = {}
        for file in sorted(os.listdir(run_dir)):
            with open(os.path.join(run_dir, file), "rb") as fh:
                digests[name][file] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def edge_cases():
    """``{name: (Q, x0, config)}`` of the shift drivers' edge cases: random
    ``Q`` at n = 2 and 3, budgets of 0 and 1 steps, the 2-cycle of
    ``diag(1, 0, -1)`` from ``(e1 + e3)/sqrt 2``, a start on an exact
    eigenvector and a zero ``Q``."""
    import numpy as np

    from riemopt import SolverConfig
    from riemopt.sampling import random_symmetric, random_unit_vector, rng_from_seed

    def problem(n, seed, max_iter=None):
        config = None if max_iter is None else SolverConfig(max_iter=max_iter)
        return (random_symmetric(rng_from_seed(seed), n),
                random_unit_vector(rng_from_seed(seed + 1), n), config)

    e = np.eye(5)
    return {"n2-s0": problem(2, 0), "n3-s3": problem(3, 3),
            "n60-s0-max_iter0": problem(60, 0, 0), "n60-s0-max_iter1": problem(60, 0, 1),
            "two-cycle": (np.diag([1.0, 0.0, -1.0]), np.array([1.0, 0.0, 1.0]), None),
            "eigenvector": (np.diag(np.arange(5, 0, -1.0)), e[1], None),
            "zero-q": (np.zeros((5, 5)), e.sum(axis=0), None)}


def dense():
    """``{name: SHA-256}`` of the trace of ``rqi``, ``newton_rayleigh``,
    ``cg_extreme_eigen`` and the generic ``newton`` on each ``DENSE``
    problem, and of ``rqi`` and ``newton_rayleigh`` on each of the
    :func:`edge_cases`: its points, values, gradient norms, errors and
    steps."""
    import numpy as np

    from riemopt import RayleighObjective, cg_extreme_eigen, newton, newton_rayleigh, rqi
    from riemopt.sampling import random_symmetric, random_unit_vector, rng_from_seed

    drivers = {"rqi": lambda Q, x0: rqi(Q, x0).trace,
               "newton_rayleigh": lambda Q, x0: newton_rayleigh(Q, x0).trace,
               "cg_extreme_eigen": lambda Q, x0: cg_extreme_eigen(Q, x0).trace,
               "newton": lambda Q, x0: newton(RayleighObjective(Q), x0)}

    def digest(trace):
        sha = hashlib.sha256()
        for rows in (trace.points, trace.values, trace.grad_norms, trace.errors, trace.steps):
            sha.update(np.asarray(rows, dtype=float).tobytes())
        return sha.hexdigest()

    digests = {}
    for n, seed in DENSE:
        Q = random_symmetric(rng_from_seed(seed), n)
        x0 = random_unit_vector(rng_from_seed(seed + 1), n)
        for name, solve in drivers.items():
            digests[f"{name}-n{n}-s{seed}"] = digest(solve(Q, x0))
    for case, (Q, x0, config) in edge_cases().items():
        for name, driver in (("rqi", rqi), ("newton_rayleigh", newton_rayleigh)):
            digests[f"{name}-{case}"] = digest(driver(Q, x0, config).trace)
    return digests


def _content(path, ignore):
    """The file's bytes; a report's without the lines of the keys in ``ignore``."""
    with open(path, "rb") as fh:
        lines = fh.readlines()
    if path.endswith(".report.txt"):
        lines = [line for line in lines if line.split(b":", 1)[0].decode() not in ignore]
    return b"".join(lines)


def differ(a, b, ignore=()):
    """The files, relative to ``a`` and ``b``, that only one of them holds or
    that differ in content, report keys in ``ignore`` left out."""
    fa, fb = ({os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}
              for root in (a, b))
    same = {p for p in fa & fb
            if _content(os.path.join(a, p), ignore) == _content(os.path.join(b, p), ignore)}
    return sorted((fa | fb) - same)


def in_worker(src, *args):
    """This script with ``args`` in a subprocess that imports riemopt from
    ``src`` and runs one BLAS thread."""
    threads = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **threads)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", *args],
                   env=env, check=True, stdout=subprocess.DEVNULL)


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        if sys.argv[4:5] not in ([], ["--ignore"]):
            sys.exit(f"usage: {sys.argv[0]} --compare A B [--ignore KEY...]")
        paths = differ(*sys.argv[2:4], ignore=set(sys.argv[5:]))
        sys.stdout.writelines(path + "\n" for path in paths)
        sys.exit(1 if paths else 0)
    elif sys.argv[1:3] == ["--worker", "--golden"]:
        with tempfile.TemporaryDirectory() as out:
            manifest = {"versions": versions(), "runs": golden(out), "dense": dense()}
        with open(sys.argv[3], "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")
    elif sys.argv[1] == "--worker":
        sweep(sys.argv[2], runs())
    elif sys.argv[1] == "--golden":
        in_worker(os.path.join(ROOT, "src"), "--golden", MANIFEST)
    else:
        in_worker(sys.argv[1], sys.argv[2])
