"""The benchmark's workloads: which solves a cycle holds, and their inputs.

A workload is an endless sequence of cycles.  Cycle ``c`` under seed ``s``
is a fixed list of solves, in a seeded order, whose inputs come from
``default_rng([s, c])``, so the same seed and cycle always give the same
inputs in the same order, and every cycle holds the same mix of solve
classes.  A run's length is a whole number of rounds, fixed by
``--seconds`` alone (:meth:`Workload.cycles_for`), so the same seed and
``--seconds`` always give the same solves, and the same failures, however
fast the machine is.

A job has three steps, each timed separately by the runner: its inputs are
made when the cycle is generated (never timed), :meth:`build` makes the
riemopt objects (part of set-up time), and the returned callable is the
solve (the timed library call).  :meth:`check` then verifies the answer
against an independent reference and returns ``(ok, error, reason)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import accuracy

EIGEN_METHODS = ("rqi", "newton_rayleigh", "newton")


@dataclass
class EigenJob:
    """One eigenpair solve on a random symmetric ``Q`` from a random unit
    start, through ``rqi``, ``newton_rayleigh`` or the generic ``newton``
    on ``RayleighObjective``."""

    label: str
    method: str
    Q: np.ndarray
    x0: np.ndarray

    def build(self, rm, out_dir):
        config = rm.solvers.SolverConfig()
        if self.method == "newton":
            objective = rm.sphere.RayleighObjective(self.Q)
            return lambda: rm.solvers.newton(objective, self.x0, config)
        driver = self.method
        return lambda: getattr(rm.eigensolvers, driver)(self.Q, self.x0, config)

    def check(self, rm, out):
        if self.method == "newton":
            x = out.points[-1]
            rho = float(x @ self.Q @ x)
        else:
            rho, x = out.eigenvalue, out.eigenvector
        return _verdict(*accuracy.check_eigenpair(self.Q, np.linalg.eigvalsh(self.Q), rho, x))


@dataclass
class ExperimentJob:
    """One ``run_experiment`` call, the path the ``riemopt`` CLI takes,
    writing its CSV trace and report into ``out_dir``."""

    label: str
    spec: dict  # ExperimentSpec fields other than out_dir

    def build(self, rm, out_dir):
        spec = rm.experiments.ExperimentSpec(out_dir=out_dir, **self.spec)
        return lambda: rm.experiments.run_experiment(spec)

    def check(self, rm, out):
        report, trace = out
        if report.error_message is not None:
            # a SolverError that run_experiment caught and wrote to the report
            return False, float("inf"), report.error_message.split(":", 1)[0]
        p = trace.points[-1]
        experiment, n, seed = self.spec["experiment"], self.spec["n"], self.spec["seed"]
        if experiment == "fig1":
            return _verdict(*accuracy.check_top_axis(p))
        if experiment == "fig2":
            Q = rm.experiments.fig2_matrices(n, seed)[0]
            return _verdict(*accuracy.check_sorted_diagonal(Q, p))
        Q = rm.experiments.jacobi_matrices(n, seed)[0]
        return _verdict(*accuracy.check_diagonalizer(Q, p))


def _verdict(ok, error):
    if ok:
        return True, error, "ok"
    return False, error, "inaccurate" if np.isfinite(error) else "nonfinite"


# ---------------------------------------------------------------------------
# cycles


def _random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


def _random_unit(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def eigen_shift_cycle(seed, cycle):
    """One solve at n = 1000 (the method rotates with the cycle) and 66 at
    n = 200..300: 28 ``rqi``, 28 ``newton_rayleigh`` and 10 generic
    ``newton``.

    Each method's small sizes are spread evenly over 200..300 rather than
    drawn, so every run holds the same sizes.  The n = 1000 problem of a
    cycle is the same under every seed: from a random start its iteration
    count ranges from 3 to 15, and a run holds only three such solves, so
    drawing them per seed would make the seed, not the program, decide
    much of the run's time.
    """
    rng = np.random.default_rng([seed, cycle])
    big = np.random.default_rng(np.random.SeedSequence(cycle, spawn_key=(1000,)))
    method = EIGEN_METHODS[cycle % len(EIGEN_METHODS)]
    jobs = [EigenJob(f"{method}-n1000", method, _random_symmetric(big, 1000),
                     _random_unit(big, 1000))]
    for method, count in (("rqi", 28), ("newton_rayleigh", 28), ("newton", 10)):
        for size in np.linspace(200, 300, count).round().astype(int):
            jobs.append(EigenJob(f"{method}-n200..300", method, _random_symmetric(rng, size),
                                 _random_unit(rng, size)))
    return _shuffled(rng, jobs)


def _experiment_cycle(slots, seed, cycle):
    rng = np.random.default_rng([seed, cycle])
    jobs = []
    for experiment, method, n, init, eps, line_search, count in slots:
        label = f"{experiment}-{method}-n{n}-{init}{eps or ''}"
        if line_search:
            label += f"-{line_search}"
        for _ in range(count):
            spec = dict(experiment=experiment, method=method, n=n, init=init, init_eps=eps,
                        line_search=line_search, seed=int(rng.integers(2**31 - 1)))
            jobs.append(ExperimentJob(label, spec))
    return _shuffled(rng, jobs)


def _shuffled(rng, jobs):
    """The cycle's jobs in a seeded order, so that each class's solves are
    spread over the cycle.  Grouped, the short solves of a class would all
    run within a fraction of a second, and a shared machine's speed at that
    moment would decide their percentile for the whole cycle."""
    return [jobs[i] for i in rng.permutation(len(jobs))]


# (experiment, method, n, init, init_eps, line_search, solves per cycle).
# The counts place solve_ms_p50 and solve_ms_p90 inside a class of solves,
# away from the boundaries between classes (see bench/README.md).
GEODESIC_SLOTS = (
    ("fig1", "cg", 21, "random", None, "exact", 1),
    ("fig1", "cg", 21, "near", None, "exact", 1),
    ("fig1", "cg", 21, "random", None, "golden", 1),
    ("fig1", "cg", 21, "near", None, "golden", 1),
    ("fig1", "cg", 200, "random", None, "exact", 2),
    ("fig1", "sd", 21, "random", None, "exact", 2),
    ("fig1", "sd", 21, "near", None, "exact", 3),
    ("fig1", "sd", 21, "random", None, "golden", 1),
    ("fig2", "cg", 10, "near", None, "estimate", 1),
    ("fig2", "cg", 10, "random", None, "estimate", 1),
    ("fig2", "cg", 20, "near", None, "estimate", 2),
    ("fig2", "cg", 30, "near", None, "estimate", 2),
    ("fig2", "sd", 10, "near", None, "estimate", 1),
    ("fig2", "sd", 10, "random", None, "estimate", 3),
)

SO_NEWTON_SLOTS = (
    ("jacobi", "newton", 20, "near", 0.01, None, 2),
    ("jacobi", "newton", 20, "near", 0.1, None, 1),
    ("fig2", "newton", 30, "near", 0.01, None, 2),
    ("jacobi", "newton", 30, "near", 0.01, None, 1),
    ("fig2", "newton", 30, "near", 0.1, None, 3),
    ("jacobi", "newton", 30, "near", 0.1, None, 1),
    ("fig2", "newton", 60, "near", 0.01, None, 1),
    ("fig2", "newton", 60, "near", 0.1, None, 1),
    ("jacobi", "newton", 60, "near", 0.01, None, 2),
    ("jacobi", "newton", 60, "near", 0.1, None, 2),
)


@dataclass(frozen=True)
class Workload:
    cycle: object            # (seed, cycle index) -> list of jobs
    trace_cycles: int        # cycles replayed by the traced run
    round_s: float           # wall time of one round on the baseline machine
    warmup_skip: tuple = ()  # label fragments of classes too slow to warm up
    round: int = 1           # cycles after which the class mix repeats exactly

    def cycles_for(self, seconds, solves_per_cycle, min_solves):
        """Cycles in a run of about ``seconds`` on the baseline machine: a
        whole number of rounds, at least one and at least ``min_solves``
        solves.  It depends on nothing measured, so a faster or slower
        program does the same solves in a shorter or longer run."""
        per_round = self.round * solves_per_cycle
        rounds = max(1, -(-min_solves // per_round), round(seconds / self.round_s))
        return rounds * self.round


WORKLOADS = {
    "eigen-shift": Workload(eigen_shift_cycle, trace_cycles=1, round_s=25.0,
                            warmup_skip=("n1000",), round=len(EIGEN_METHODS)),
    "geodesic-descent": Workload(lambda seed, c: _experiment_cycle(GEODESIC_SLOTS, seed, c),
                                 trace_cycles=10, round_s=1.5),
    "so-newton": Workload(lambda seed, c: _experiment_cycle(SO_NEWTON_SLOTS, seed, c),
                          trace_cycles=4, round_s=4.0, warmup_skip=("n60",)),
}

#: Cycle index whose inputs warm caches before timing; never measured.
WARMUP_CYCLE = 2**31 - 1


def warmup_jobs(workload, seed):
    """One job of each class, except the classes named in ``warmup_skip``."""
    seen, jobs = set(), []
    for job in workload.cycle(seed, WARMUP_CYCLE):
        if job.label not in seen and not any(s in job.label for s in workload.warmup_skip):
            seen.add(job.label)
            jobs.append(job)
    return jobs
