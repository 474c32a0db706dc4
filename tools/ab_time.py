"""Time a fixed list of CLI classes against two source trees, alternating::

    python tools/ab_time.py SRC_A SRC_B [ROUNDS]
    python tools/ab_time.py --wall SRC_A SRC_B [ROUNDS]
    python tools/ab_time.py --dense "dense DRIVER --n N"   # one DENSE solve, then exit

Each tree has a worker process (one BLAS thread) that imports riemopt from
it and times each CLI run in-process by process CPU time, which a shared
machine disturbs less than wall time.  The ``DENSE`` classes time an eigen
driver called from the library on a dense ``Q``, built outside the timing.  With ``--wall`` every ``WALL`` class
is instead one fresh process (one BLAS thread), timed by wall clock from
start to exit, so the import and start-up a user pays are counted, and its
peak RSS is read from ``os.wait4`` on the child.  After a warm-up round,
ROUNDS rounds (default 11) alternate the trees, the first rotating by class
and round.  Prints each class's min and median ms per tree and B/A of both,
and with ``--wall`` each tree's median peak RSS in MB.  On a shared machine
load moves the medians more than the minima: a class whose median ratio
moves while its minimum ratio stays near 1 reads as load."""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

CLASSES = ["fig1 --method sd --n 21", "fig1 --method cg --n 21", "fig1 --method cg --n 200",
           "fig1 --method sd --n 1000",
           "fig1 --method cg --n 1000", "fig1 --method rqi --n 21",
           "fig1 --method sd --n 21 --line-search golden", "fig2 --method sd --n 10",
           "fig2 --method sd --n 10 --init random",
           "fig2 --method cg --n 10", "fig2 --method cg --n 10 --line-search golden",
           "fig2 --method cg --n 30 --init near",
           "fig2 --method newton --n 30 --init near",
           "fig2 --method newton --n 30 --init near:0.1",
           "fig2 --method newton --n 60 --init near:0.01",
           "fig2 --method newton --n 60 --init near:0.1", "jacobi --n 20 --init near:0.1",
           "jacobi --n 60 --init near:0.1", "fig1 --method rqi --n 250 --init random",
           "fig1 --method newton-rq --n 250 --init random",
           "fig1 --method newton --n 250 --init random",
           "fig1 --method rqi --n 1000 --init random",
           "fig1 --method newton-rq --n 1000 --init random",
           "fig1 --method newton --n 1000 --init random --seed 1"]
#: library classes: ``rqi``, ``newton_rayleigh``, ``cg_extreme_eigen`` and the
#: generic ``newton`` on ``random_symmetric(rng_from_seed(0), n)`` from
#: ``random_unit_vector(rng_from_seed(1), n)``.  fig1's Q is diagonal, so it skips
#: the reduction, and the CLI classes above cannot show a change to it.
DENSE = [f"dense {driver} --n {n}" for driver in ("rqi", "newton_rayleigh", "newton",
                                                  "cg_extreme_eigen") for n in (250, 1000)]
CLASSES += DENSE
#: fresh-process classes: the import alone, then whole CLI runs; fig2 sd and cg
#: at n = 30 from a near start compare the peak RSS of a 4,001-row trace with a
#: 105-row one; then two ``DENSE`` solves, each Q built in the process: a
#: 302-row cg_extreme_eigen run, and a 4-row rqi run as its control
WALL = ["import riemopt", "fig1 --method sd --n 21", "fig1 --method cg --n 21",
        "fig2 --method cg --n 10", "fig1 --method rqi --n 250 --init random",
        "jacobi --n 20 --init near:0.1", "fig2 --method sd --n 30 --init near",
        "fig2 --method cg --n 30 --init near", "dense cg_extreme_eigen --n 1000",
        "dense rqi --n 1000"]
CLI = "import sys; from riemopt.cli import main; sys.exit(main(sys.argv[1:]))"
THREADS = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")


def dense_solve(name):
    """The call of ``DENSE`` class ``name``, its ``Q`` and start already built."""
    from riemopt import RayleighObjective, eigensolvers, newton
    from riemopt.sampling import random_symmetric, random_unit_vector, rng_from_seed

    driver, n = name.split()[1], int(name.split()[-1])
    Q = random_symmetric(rng_from_seed(0), n)
    x0 = random_unit_vector(rng_from_seed(1), n)
    if driver == "newton":
        return lambda: newton(RayleighObjective(Q), x0)
    return lambda: getattr(eigensolvers, driver)(Q, x0)


def worker():
    from riemopt.cli import main

    with tempfile.TemporaryDirectory() as out:
        solves = {name: dense_solve(name) for name in DENSE}
        for line in sys.stdin:
            name = CLASSES[int(line)]
            run = solves.get(name) or (lambda: main(name.split() + ["--out", out]))
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.process_time()
                run()
                dt = time.process_time() - t0
            print(dt, flush=True)


def env_for(src):
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), **THREADS)


def cpu_timer(src):
    """``k -> (CPU ms, None)`` of ``CLASSES[k]`` in a worker importing riemopt
    from ``src``."""
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"],
                            env=env_for(src), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)

    def timed(k):
        proc.stdin.write(f"{k}\n")
        proc.stdin.flush()
        return 1e3 * float(proc.stdout.readline()), None

    return timed, proc.communicate


def wall_timer(src, out):
    """``k -> (wall ms, peak RSS MB)`` of a fresh process running ``WALL[k]``
    from ``src``."""
    env = env_for(src)

    def timed(k):
        name = WALL[k]
        cmd = (["-c", name] if name.startswith("import ") else
               [os.path.abspath(__file__), "--dense", name] if name in DENSE else
               ["-c", CLI, *name.split(), "--out", out])
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *cmd], env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        ms = 1e3 * (time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, name)
        return ms, usage.ru_maxrss / 1024.0  # Linux reports kB

    return timed, lambda: None


def alternate(timers, count, rounds):
    """``runs[tree][class]``, each run's ``(ms, peak MB or None)``: a warm-up
    round, then ``rounds`` alternated."""
    runs = [[[] for _ in range(count)] for _ in timers]
    for r in range(rounds + 1):
        for k in range(count):
            for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                run = timers[t](k)
                if r > 0:  # round 0 warms up
                    runs[t][k].append(run)
    return runs


def report(names, runs, rss):
    print(f"{'class':48s} {'min A':>8s} {'min B':>8s} {'min B/A':>8s}"
          f" {'med A':>8s} {'med B':>8s} {'med B/A':>8s}"
          + (f" {'MB A':>7s} {'MB B':>7s}" if rss else ""))
    for k, name in enumerate(names):
        a, b = ([ms for ms, _ in tree[k]] for tree in runs)
        med_a, med_b = statistics.median(a), statistics.median(b)
        line = (f"{name:48s} {min(a):8.2f} {min(b):8.2f} {min(b) / min(a):8.3f}"
                f" {med_a:8.2f} {med_b:8.2f} {med_b / med_a:8.3f}")
        if rss:
            line += "".join(f" {statistics.median(mb for _, mb in tree[k]):7.1f}" for tree in runs)
        print(line)


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        sys.exit(worker())
    if sys.argv[1] == "--dense":
        dense_solve(sys.argv[2])()
        sys.exit()
    wall = sys.argv[1] == "--wall"
    args = sys.argv[2:] if wall else sys.argv[1:]
    rounds = int(args[2]) if len(args) > 2 else 11
    names = WALL if wall else CLASSES
    with tempfile.TemporaryDirectory() as out:
        timers = [wall_timer(src, out) if wall else cpu_timer(src) for src in args[:2]]
        runs = alternate([timed for timed, _ in timers], len(names), rounds)
        for _, close in timers:
            close()
    report(names, runs, rss=wall)
