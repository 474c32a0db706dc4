"""Run the ``riemopt`` CLI over a fixed grid, or list the files that differ
between two such runs::

    python tools/cli_sweep.py SRC OUT          # riemopt imported from SRC
    python tools/cli_sweep.py --compare A B    # exit 1 if any file differs

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
``OUT/NAME/``; all runs share one subprocess with one BLAS thread."""

import filecmp
import itertools
import os
import subprocess
import sys

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


def run(main, run_dir, argv):
    try:
        code = main(argv + ["--out", run_dir])
    except SystemExit as exc:  # a usage error
        code = exc.code
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "exit.txt"), "w") as fh:
        fh.write(f"{code}\n")


def sweep(out):
    from riemopt.cli import main

    for experiment, *axes in GRID:
        for method, n, init, search, seed in itertools.product(*axes, SEEDS):
            if method == "rqi" and search != "default":
                continue
            argv = [experiment, "--method", method, "--n", str(n), "--seed", str(seed)]
            argv += [] if init == "default" else ["--init", init]
            argv += [] if search == "default" else ["--line-search", search]
            run(main, os.path.join(out, f"{experiment}-{method}-n{n}-s{seed}-{init}-{search}"), argv)
    for seed in SEEDS:
        run(main, os.path.join(out, f"fd-check-s{seed}"), ["fd-check", "--seed", str(seed)])


def differ(a, b):
    fa, fb = ({os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}
              for root in (a, b))
    same = {p for p in fa & fb if filecmp.cmp(os.path.join(a, p), os.path.join(b, p), False)}
    return sorted((fa | fb) - same)


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        paths = differ(*sys.argv[2:4])
        sys.stdout.writelines(path + "\n" for path in paths)
        sys.exit(1 if paths else 0)
    elif sys.argv[1] == "--worker":
        sweep(sys.argv[2])
    else:
        threads = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(sys.argv[1]), **threads)
        subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", sys.argv[2]],
                       env=env, check=True, stdout=subprocess.DEVNULL)
