"""Time a fixed list of CLI classes against two source trees, alternating::

    python tools/ab_time.py SRC_A SRC_B [ROUNDS]

Each tree has a worker process (one BLAS thread) that imports riemopt from
it and times each CLI run in-process by process CPU time, which a shared
machine disturbs less than wall time.  After a warm-up round, ROUNDS rounds
(default 11) alternate the trees, the first rotating by class and round.
Prints each class's min and median CPU ms per tree and B/A of both.  On a
shared machine load moves the medians more than the minima: a class whose
median ratio moves while its minimum ratio stays near 1 reads as load."""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import tempfile
import time

CLASSES = ["fig1 --method sd --n 21", "fig1 --method cg --n 21", "fig1 --method cg --n 200",
           "fig1 --method sd --n 21 --line-search golden", "fig2 --method sd --n 10",
           "fig2 --method sd --n 10 --init random",
           "fig2 --method cg --n 10", "fig2 --method cg --n 10 --line-search golden",
           "fig2 --method cg --n 30 --init near",
           "fig2 --method newton --n 30 --init near", "jacobi --n 20 --init near:0.1",
           "jacobi --n 60 --init near:0.1", "fig1 --method rqi --n 250 --init random",
           "fig1 --method newton-rq --n 250 --init random",
           "fig1 --method newton --n 250 --init random"]


def worker():
    from riemopt.cli import main

    with tempfile.TemporaryDirectory() as out:
        for line in sys.stdin:
            argv = CLASSES[int(line)].split() + ["--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.process_time()
                main(argv)
                dt = time.process_time() - t0
            print(dt, flush=True)


def start(src):
    threads = dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **threads)
    return subprocess.Popen([sys.executable, os.path.abspath(__file__), "--worker"], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def timed(proc, k):
    proc.stdin.write(f"{k}\n")
    proc.stdin.flush()
    return 1e3 * float(proc.stdout.readline())


if __name__ == "__main__":
    if sys.argv[1] == "--worker":
        sys.exit(worker())
    procs = [start(src) for src in sys.argv[1:3]]
    rounds = int(sys.argv[3]) if len(sys.argv) > 3 else 11
    times = [[[] for _ in CLASSES] for _ in procs]
    for r in range(rounds + 1):
        for k in range(len(CLASSES)):
            for t in ((0, 1) if (r + k) % 2 == 0 else (1, 0)):
                ms = timed(procs[t], k)
                if r > 0:  # round 0 warms up
                    times[t][k].append(ms)
    for proc in procs:
        proc.communicate()
    print(f"{'class':48s} {'min A':>8s} {'min B':>8s} {'min B/A':>8s}"
          f" {'med A':>8s} {'med B':>8s} {'med B/A':>8s}")
    for k, name in enumerate(CLASSES):
        a, b = (ts[k] for ts in times)
        ma, mb = statistics.median(a), statistics.median(b)
        print(f"{name:48s} {min(a):8.2f} {min(b):8.2f} {min(b) / min(a):8.3f}"
              f" {ma:8.2f} {mb:8.2f} {mb / ma:8.3f}")
