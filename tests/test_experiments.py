
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riemopt.errors
import riemopt.experiments
import riemopt.solvers
from _oracles import read_trace_csv
from riemopt.cli import _spec_from_args, build_parser, main
from riemopt.core import STAGNATION_FLOOR, IterationTrace, estimate_order, longest_decreasing_run
from riemopt.errors import LineSearchFailed
from riemopt.rotation import BrockettObjective, SpecialOrthogonal, so_geodesic
from riemopt.sampling import random_unit_skew, random_unit_vector, rng_from_seed
from riemopt.solvers import SolverConfig, conjugate_gradient, newton, steepest_descent
from riemopt.sphere import RayleighObjective, Sphere
from riemopt.eigensolvers import cg_extreme_eigen, newton_rayleigh, rqi
from riemopt.experiments import (
    ExperimentSpec,
    fig1_matrix,
    fig2_matrices,
    jacobi_matrices,
    run_experiment,
    run_fig1,
    run_fig2,
    run_jacobi,
    trace_filename,
    report_filename,
)


@pytest.mark.parametrize("make", [
    lambda: SolverConfig(max_iter=1.5),
    lambda: SolverConfig(max_iter=float("nan")),
    lambda: SolverConfig(max_iter=10.0),
    lambda: SolverConfig(reset_period=2.5),
    lambda: ExperimentSpec("fig1", n=2.5),
    lambda: ExperimentSpec("fig1", n=float("nan")),
    lambda: ExperimentSpec("fig1", max_iter=1.5),
    lambda: ExperimentSpec("fig1", max_iter=0.0),
    lambda: ExperimentSpec("fig1", n=5, seed=2.5),
    lambda: ExperimentSpec("fig1", n=5, seed=float("nan")),
], ids=["config-max_iter-1.5", "config-max_iter-nan", "config-max_iter-10.0",
        "config-reset_period-2.5", "spec-n-2.5", "spec-n-nan", "spec-max_iter-1.5",
        "spec-max_iter-0.0", "spec-seed-2.5", "spec-seed-nan"])
def test_budgets_and_sizes_must_be_integers(make):
    # a float budget or seed used to fail only once the run started, or never
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("nope")
    with pytest.raises(ValueError):
        ExperimentSpec("fig1", method="bogus")
    with pytest.raises(ValueError):
        ExperimentSpec("fig1", n=1)
    with pytest.raises(ValueError):
        ExperimentSpec("fig1", init="near", init_eps=-0.5)
    with pytest.raises(ValueError, match="random start"):
        ExperimentSpec("fig1", init="random", init_eps=0.5)
    with pytest.raises(ValueError, match="random start"):
        ExperimentSpec("fig1", method="sd", init_eps=0.5)  # sd starts at random
    with pytest.raises(ValueError):
        ExperimentSpec("fig2", method="rqi")
    with pytest.raises(ValueError):
        ExperimentSpec("fig1", method="rqi", line_search="exact")
    with pytest.raises(ValueError, match="unknown line search"):
        ExperimentSpec("fig1", method="sd", line_search="foo")


# (experiment, method): iteration cap, default line search, default start
# and the scale of a near start
_RESOLVED = {
    ("fig1", "sd"): (2000, "exact", "random", 0.1), ("fig1", "cg"): (2000, "exact", "random", 0.1),
    ("fig1", "newton"): (100, "exact", "near", 0.1), ("fig1", "rqi"): (100, "exact", "near", 0.1),
    ("fig1", "newton-rq"): (100, "exact", "near", 0.1),
    ("fig2", "sd"): (4000, "estimate", "near", 0.1), ("fig2", "cg"): (4000, "estimate", "near", 0.1),
    ("fig2", "newton"): (50, "estimate", "near", 0.01),
    ("jacobi", "newton"): (50, "bracket", "near", 0.1),
}


@pytest.mark.parametrize("experiment, method", list(_RESOLVED))
def test_spec_resolves_each_methods_defaults(experiment, method):
    cap, search, mode, eps = _RESOLVED[experiment, method]
    spec = ExperimentSpec(experiment, method=method)
    assert spec.config == SolverConfig(grad_tol=1e-12, max_iter=cap, line_search=search)
    assert spec.start == ((mode, None) if mode == "random" else (mode, eps))
    near = ExperimentSpec(experiment, method=method, init="near")
    assert near.start == ("near", eps)
    assert ExperimentSpec(experiment, method=method, init="near", init_eps=0.3).start == ("near", 0.3)
    assert ExperimentSpec(experiment, method=method, init="random").start == ("random", None)
    golden = {} if method == "rqi" else {"line_search": "golden"}  # rqi takes no search
    given = ExperimentSpec(experiment, method=method, max_iter=7, tol=1e-9, **golden)
    assert given.config == SolverConfig(grad_tol=1e-9, max_iter=7,
                                        line_search="bracket" if golden else search)
    assert given.line_search == golden.get("line_search")  # the report prints it as given


def test_spec_derived_fields_cannot_be_set():
    with pytest.raises(TypeError):
        ExperimentSpec("fig1", config=SolverConfig())
    with pytest.raises(TypeError):
        ExperimentSpec("fig1", start=("near", 0.1))
    spec = ExperimentSpec("fig2")
    for name, value in (("method", "newton"), ("config", SolverConfig()), ("start", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):  # would leave config stale
            setattr(spec, name, value)


def test_replace_re_resolves_the_derived_fields():
    spec = ExperimentSpec("fig2", n=6, method="sd", seed=3)
    for changes in ({"n": 12}, {"method": "newton"}, {"init": "random"}, {"max_iter": 9}):
        replaced = dataclasses.replace(spec, **changes)
        assert replaced == ExperimentSpec("fig2", **{"n": 6, "method": "sd", "seed": 3, **changes})
    assert dataclasses.replace(spec, method="newton").config.max_iter == 50
    assert dataclasses.replace(spec, method="newton").start == ("near", 0.01)
    assert dataclasses.replace(spec, init="random").start == ("random", None)
    with pytest.raises(ValueError, match="random start"):
        dataclasses.replace(spec, init="random", init_eps=0.1)


@pytest.mark.parametrize("setting", [
    {"n": 50}, {"n": 9}, {"method": "sd"}, {"init": "near"}, {"init": "random"},
    {"init_eps": 0.1}, {"max_iter": 3}, {"tol": 1.0}, {"tol": 1e-12}, {"reset_period": 4},
    {"line_search": "golden"},
], ids=lambda setting: "-".join(map(str, *setting.items())))
def test_fd_check_rejects_the_settings_it_never_reads(setting):
    # fd-check used to accept these and write them into its report
    with pytest.raises(ValueError, match="fd-check reads only seed and out_dir|not available"):
        ExperimentSpec("fd-check", **setting)


def test_report_prints_the_resolved_tolerance(tmp_path):
    run_experiment(ExperimentSpec("fig1", n=5, method="rqi", out_dir=str(tmp_path)))
    run_experiment(ExperimentSpec("fig1", n=5, method="newton", tol=1e-9, out_dir=str(tmp_path)))
    assert "tol: 9.9999999999999998e-13\n" in (tmp_path / "fig1-rqi-0.report.txt").read_text()
    assert "tol: 1.0000000000000001e-09\n" in (tmp_path / "fig1-newton-0.report.txt").read_text()


def test_csv_round_trip(tmp_path):
    spec = ExperimentSpec("fig1", n=10, method="cg", seed=5, out_dir=str(tmp_path))
    report, trace = run_fig1(spec)
    path = tmp_path / trace_filename(spec)
    assert path.exists()
    back = read_trace_csv(path)
    assert back.values == trace.values
    assert back.grad_norms == trace.grad_norms
    assert back.errors == trace.errors
    assert back.steps == trace.steps


def test_run_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        spec = ExperimentSpec("fig1", n=12, method="sd", seed=9, out_dir=str(out))
        run_fig1(spec)
    name = trace_filename(ExperimentSpec("fig1", n=12, method="sd", seed=9))
    rep = report_filename(ExperimentSpec("fig1", n=12, method="sd", seed=9))
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / rep).read_bytes() == (out2 / rep).read_bytes()


def test_order_fit_recomputable_from_csv(tmp_path):
    spec = ExperimentSpec("fig1", n=21, method="newton-rq", seed=2, out_dir=str(tmp_path))
    report, _ = run_fig1(spec)
    assert report.order is not None
    back = read_trace_csv(tmp_path / trace_filename(spec))
    window = longest_decreasing_run(back.errors)
    rep2 = estimate_order(back.errors, window)
    assert rep2.order == pytest.approx(report.order.order, rel=1e-12)
    assert rep2.rate == pytest.approx(report.order.rate, rel=1e-12)


def test_fig2_report_contents(tmp_path):
    spec = ExperimentSpec("fig2", n=6, method="newton", seed=1, out_dir=str(tmp_path))
    report, trace = run_fig2(spec)
    assert report.converged
    text = (tmp_path / report_filename(spec)).read_text()
    assert "experiment: fig2" in text
    assert "method: newton" in text
    assert "duration" not in text  # wall clock must not break reproducibility


def test_jacobi_run(tmp_path):
    spec = ExperimentSpec("jacobi", n=5, method="newton", seed=3, out_dir=str(tmp_path))
    report, trace = run_jacobi(spec)
    assert report.converged
    assert report.final_error < 1e-11
    errs = np.asarray(trace.errors)
    assert np.all(np.diff(errs) < 0.0)


def test_run_experiment_dispatch():
    report, _ = run_experiment(ExperimentSpec("fig1", n=8, method="rqi", seed=0))
    assert report.converged


def test_cli_fig1(tmp_path, capsys):
    code = main(["fig1", "--n", "10", "--method", "cg", "--seed", "4",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fig1/cg" in out
    assert (tmp_path / "fig1-cg-4.csv").exists()
    assert (tmp_path / "fig1-cg-4.report.txt").exists()


def test_cli_near_init(tmp_path):
    code = main(["fig1", "--n", "10", "--method", "newton-rq", "--seed", "4",
                 "--init", "near:0.2", "--out", str(tmp_path)])
    assert code == 0


def test_cli_fd_check(tmp_path, capsys):
    code = main(["fd-check", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    assert "fd-check: ok" in capsys.readouterr().out
    assert (tmp_path / "fd-check-0.report.txt").exists()


def test_cli_rejects_bad_init():
    with pytest.raises(SystemExit):
        main(["fig1", "--init", "sideways"])


@pytest.mark.parametrize("argv, message", [
    (["fig1", "--n", "1"], "n must be >= 2"),
    (["fig2", "--init", "near:-0.5"], "perturbation scale must be positive"),
    (["fig2", "--init", "near:nan"], "perturbation scale must be positive and finite"),
    (["jacobi", "--init", "near:inf"], "perturbation scale must be positive and finite"),
    (["fig1", "--init", "near:abc"], "bad init spec 'near:abc'; use 'random' or 'near:<eps>'"),
    (["fig1", "--seed", "-1"], "seed must be >= 0"),
    (["fig2", "--seed", "-1"], "seed must be >= 0"),
    (["jacobi", "--seed", "-1"], "seed must be >= 0"),
    (["fd-check", "--seed", "-1"], "seed must be >= 0"),
    (["fig1", "--method", "rqi", "--line-search", "exact"], "rqi takes no line search"),
    (["fig1", "--tol", "0"], "gradient tolerance must be positive and finite"),
    (["fig1", "--method", "cg", "--n", "8", "--tol", "inf"],
     "gradient tolerance must be positive and finite"),
    (["fig2", "--method", "newton", "--tol", "nan"],
     "gradient tolerance must be positive and finite"),
    (["fig1", "--max-iter", "-1"], "iteration budget must be >= 0"),
    (["fig1", "--method", "cg", "--reset-period", "0"], "reset period must be >= 1"),
    (["fig2", "--method", "sd", "--reset-period", "3"], "only cg takes a reset period"),
    (["fig2", "--method", "sd", "--line-search", "exact"], "fig2 takes no 'exact' line search"),
    (["fig2", "--method", "cg", "--line-search", "exact"], "fig2 takes no 'exact' line search"),
    (["jacobi", "--line-search", "exact"], "jacobi takes no 'exact' line search"),
    (["jacobi", "--line-search", "estimate"], "jacobi takes no 'estimate' line search"),
    (["fig1", "--method", "sd", "--line-search", "estimate"], "fig1 takes no 'estimate' line search"),
    (["fig1", "--method", "newton", "--line-search", "estimate"],
     "fig1 takes no 'estimate' line search"),
    (["fig1", "--method", "newton-rq", "--line-search", "estimate"],
     "fig1 takes no 'estimate' line search"),
], ids=["n", "init-eps", "init-eps-nan", "init-eps-inf", "init-eps-not-a-number", "fig1-seed",
        "fig2-seed", "jacobi-seed", "fd-check-seed", "rqi-line-search", "tol-zero", "tol-inf", "tol-nan", "max-iter",
        "reset-period", "reset-period-not-cg", "fig2-sd-exact", "fig2-cg-exact",
        "jacobi-exact", "jacobi-estimate", "fig1-sd-estimate", "fig1-newton-estimate",
        "fig1-newton-rq-estimate"])
def test_cli_setting_out_of_range_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: riemopt")
    assert message in err


def test_cli_newton_rq_takes_a_line_search(tmp_path):
    # the search serves the gradient fallback on a degenerate pivot
    code = main(["fig1", "--n", "5", "--method", "newton-rq", "--line-search", "golden",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "line_search: golden" in (tmp_path / "fig1-newton-rq-0.report.txt").read_text()


def test_cli_jacobi(tmp_path):
    code = main(["jacobi", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "jacobi-newton-1.csv").exists()


def test_cli_tolerance_breach_exit_code(tmp_path, capsys, monkeypatch):
    # force a breach by tightening the target beyond reach
    import riemopt.experiments as exp

    monkeypatch.setattr(exp, "FD_GRAD_TARGET", 1e-30)
    code = main(["fd-check", "--seed", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out
    assert "converged: False" in (tmp_path / "fd-check-0.report.txt").read_text()


def test_fd_check_reports_a_breach_without_raising(monkeypatch):
    monkeypatch.setattr(riemopt.experiments, "FD_GRAD_TARGET", 1e-30)
    report, trace = run_experiment(ExperimentSpec("fd-check"))
    assert report.converged is False
    assert trace is None
    assert not hasattr(riemopt.errors, "ToleranceBreached")


@pytest.mark.parametrize("experiment", ["fig1", "fig2", "jacobi", "fd-check"])
def test_spec_defaults_are_the_cli_defaults(experiment):
    # n and method, like every other field, default in ExperimentSpec alone
    spec = _spec_from_args(build_parser().parse_args([experiment]))
    assert spec == ExperimentSpec(experiment)
    assert (spec.n, spec.method) == {"fig1": (21, "sd"), "fig2": (10, "sd"),
                                     "jacobi": (5, "newton"), "fd-check": (8, "all")}[experiment]


def test_fig2_cg_supports_golden_section(tmp_path):
    spec = ExperimentSpec("fig2", n=6, method="cg", seed=2, line_search="golden",
                          max_iter=400, out_dir=str(tmp_path))
    report, trace = run_fig2(spec)
    assert report.error_message is None
    assert report.converged
    assert report.final_error <= 1e-10 * np.linalg.norm(fig2_matrices(6, 2)[0])
    assert report.iterations > 5


# The slope search brackets the zero of the slope along the geodesic, which
# stays exact to round-off where value comparisons stall near sqrt(eps).
@pytest.mark.parametrize("seed", range(6))
def test_fig1_sd_with_the_bracket_search_reaches_round_off(seed):
    report, _ = run_fig1(ExperimentSpec("fig1", n=21, method="sd", seed=seed,
                                        line_search="bracket"))
    assert report.error_message is None
    assert report.converged
    assert report.final_error <= 1e-12


@pytest.mark.parametrize("method", ["sd", "cg"])
@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("seed", range(4))
def test_fig2_with_the_bracket_search_reaches_the_target(method, n, seed):
    report, _ = run_fig2(ExperimentSpec("fig2", n=n, method=method, seed=seed,
                                        line_search="bracket"))
    assert report.error_message is None
    assert report.converged
    assert report.final_error <= 1e-10 * np.linalg.norm(fig2_matrices(n, seed)[0])


def test_fig1_sd_bracket_search_spends_few_evaluations_per_step(monkeypatch):
    # the golden section it replaces spent about 57 per step here
    search, spent = riemopt.solvers.line_minimize_geodesic, []

    def counted(*args, **kwargs):
        result = search(*args, **kwargs)
        spent.append(result.evaluations)
        return result

    monkeypatch.setattr(riemopt.solvers, "line_minimize_geodesic", counted)
    report, _ = run_fig1(ExperimentSpec("fig1", n=21, method="sd", seed=0, line_search="golden"))
    assert report.converged
    assert len(spent) == report.iterations
    assert sum(spent) <= 57 / 4 * len(spent)


def test_cli_solver_error_exit_code(tmp_path, capsys, monkeypatch):
    # a line search that fails after one iteration is a solver failure,
    # reported with its partial trace and exit code 3
    def failing_descent(objective, x0, config, error_fn):
        trace = IterationTrace()
        trace.append(x0, objective.report_value(x0), 1.0, error_fn(x0))
        trace.append(x0, objective.report_value(x0), 1.0, error_fn(x0))
        raise LineSearchFailed("no sampled step decreased the objective", trace=trace)

    monkeypatch.setattr(riemopt.experiments, "steepest_descent", failing_descent)
    code = main(["fig1", "--n", "6", "--method", "sd", "--seed", "0", "--out", str(tmp_path)])
    assert code == 3
    assert "solver error" in capsys.readouterr().out
    report = (tmp_path / "fig1-sd-0.report.txt").read_text()
    assert "solver_error: LineSearchFailed" in report


@pytest.mark.parametrize("spec, converged", [
    (ExperimentSpec("fig2", n=6, method="cg", seed=1, max_iter=5), False),
    (ExperimentSpec("fig2", n=6, method="newton", seed=1), True),
    (ExperimentSpec("jacobi", n=5, method="newton", seed=3), True),
    (ExperimentSpec("jacobi", n=5, method="newton", seed=3, max_iter=1), False),
], ids=["fig2-cg-capped", "fig2-newton", "jacobi", "jacobi-capped"])
def test_report_converged_is_the_trace_flag(spec, converged):
    report, trace = run_experiment(spec)
    assert report.converged == trace.converged == converged


@pytest.mark.parametrize("seed", range(6))
def test_fig1_newton_reaches_round_off(seed):
    # cubic convergence ends at the round-off floor of the quotient
    report, _ = run_fig1(ExperimentSpec("fig1", n=21, method="newton", seed=seed))
    assert report.converged
    assert report.final_error <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 10, 21, 30, 60])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_fig2_maximizer_is_the_rotation_that_built_q(n, seed):
    # fig2 and jacobi pose one problem: the rotation V that builds
    # Q = V diag(n..1) V^T orders Q's eigenvalues as N orders its entries
    Q, N, T_hat = fig2_matrices(n, seed)
    Q_jacobi, V = jacobi_matrices(n, seed)
    assert np.array_equal(Q, Q_jacobi) and np.array_equal(T_hat, V)
    assert np.array_equal(N, fig1_matrix(n))
    assert np.linalg.det(V) > 0.0
    H = V.T @ Q @ V
    assert np.linalg.norm(H - np.diag(np.arange(n, 0, -1.0))) <= 1e-13 * np.linalg.norm(Q)


@pytest.mark.parametrize("method, init_eps, eps", [("sd", None, 0.1), ("newton", None, 1e-2),
                                                   ("newton", 0.3, 0.3)])
def test_fig2_near_start_is_a_geodesic_step_from_v(method, init_eps, eps):
    n, seed = 8, 5
    _, trace = run_fig2(ExperimentSpec("fig2", n=n, method=method, seed=seed, init="near",
                                       init_eps=init_eps, max_iter=1))
    V = jacobi_matrices(n, seed)[1]
    assert np.array_equal(trace.points[0],
                          so_geodesic(V, random_unit_skew(rng_from_seed(seed + 1), n), eps))


def _converged_flags():
    """``converged`` of every solver and eigen driver where the objective's
    round-off floor lies above ``grad_tol``: fig1 at n = 200, fig2 at n = 30."""
    config = SolverConfig(max_iter=3, line_search="exact")
    Q = fig1_matrix(200)
    x0 = random_unit_vector(rng_from_seed(0), 200)
    sphere = RayleighObjective(Q)
    yield from (solve(sphere, x0, config).converged
                for solve in (steepest_descent, conjugate_gradient, newton))
    yield from (drive(Q, x0, config).converged for drive in (rqi, newton_rayleigh, cg_extreme_eigen))
    Q, N, V = fig2_matrices(30, 0)
    brockett = BrockettObjective(Q, N)
    T0 = so_geodesic(V, random_unit_skew(rng_from_seed(1), 30), 0.1)
    config = SolverConfig(max_iter=3, line_search="estimate")
    yield from (solve(brockett, T0, config).converged
                for solve in (steepest_descent, conjugate_gradient, newton))


def test_converged_is_a_python_bool():
    # a numpy bool would not serialize: json.dumps raises on it
    flags = list(_converged_flags())
    assert len(flags) == 9
    assert all(type(flag) is bool for flag in flags)
    json.dumps(flags)


def _restart_pairs():
    """``(e_k, e_{k+d})`` at every restart ``k`` (a multiple of ``d``, the
    manifold's dimension) of CG from random starts: fig1 at n = 5..12, fig2
    at n = 3..6 with both searches, seeds 0-3."""
    runs = [(run_fig1, "fig1", n, None, Sphere(n).dim) for n in range(5, 13)]
    runs += [(run_fig2, "fig2", n, search, SpecialOrthogonal(n).dim)
             for n in range(3, 7) for search in ("estimate", "golden")]
    for run, experiment, n, search, d in runs:
        for seed in range(4):
            _, trace = run(ExperimentSpec(experiment, n=n, method="cg", seed=seed, init="random",
                                          line_search=search))
            e = trace.errors
            yield from ((e[k], e[k + d]) for k in range(0, len(e) - d, d))


def test_cg_converges_quadratically_per_restart_cycle():
    # the d-step form of the paper's superlinear claim (Cohen 1972): with a
    # restart every d = dim M steps, e_{k+d} <= e_k^2 near the optimum, for
    # every restart k whose next cycle still ends above the round-off floor
    pairs = [(a, b) for a, b in _restart_pairs() if a < 0.5 and b > STAGNATION_FLOOR]
    assert len(pairs) >= 30
    assert all(b <= a * a for a, b in pairs), max(b / (a * a) for a, b in pairs)


_SCIPY_LOADED = r"""
import contextlib, io, json, sys
from riemopt.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(argv)
        except SystemExit:  # --help and a usage error
            pass
    print(",".join(name.rpartition(".")[2] for name in
                   ("scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy.linalg._matfuncs_expm")
                   if name in sys.modules) or "-")
"""


def test_cli_runs_without_scipy_until_a_kernel_needs_it(tmp_path):
    # scipy is most of a CLI run's start-up; fig1 sd and cg, --help and a
    # usage error call neither LAPACK nor the Pade kernels, and a run that
    # does (a shift solve, a geodesic on SO(n)) loads that compiled kernel
    # alone, never scipy.linalg; each group of runs is one fresh process
    out = ["--out", str(tmp_path)]
    groups = [([["fig1", "--method", "sd", "--n", "21"] + out,
                ["fig1", "--method", "cg", "--n", "21"] + out,
                ["--help"], ["fig1", "--n", "1"], ["fig1", "--method", "rqi", "--n", "5"] + out],
               ["-", "-", "-", "-", "scipy,_flapack"]),
              ([["fig2", "--method", "cg", "--n", "10"] + out], ["scipy,_matfuncs_expm"]),
              ([["jacobi", "--n", "5", "--init", "near:0.1"] + out], ["scipy,_matfuncs_expm"])]
    src = Path(__file__).resolve().parents[1] / "src"
    for argvs, loaded in groups:
        done = subprocess.run([sys.executable, "-c", _SCIPY_LOADED, json.dumps(argvs)],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                              text=True, check=True)
        assert done.stdout.split() == loaded


_MA_LOADED = r"""
import contextlib, io, json, sys
from riemopt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        main(argv)
print("numpy.ma" in sys.modules)
"""


def test_cli_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma takes about 10 ms and 1 MB to import (np.unique loads it);
    # no run of an experiment needs it
    out = ["--out", str(tmp_path)]
    argvs = [["fig1", "--method", "sd", "--n", "10"] + out,
             ["fig1", "--method", "newton", "--n", "10"] + out,
             ["fig2", "--method", "newton", "--n", "10"] + out,
             ["fig2", "--method", "cg", "--n", "5"] + out,
             ["jacobi", "--n", "5"] + out, ["fd-check"] + out]
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _MA_LOADED, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False"]


_KERNEL_TRACES = r"""
import hashlib, importlib.abc, importlib.machinery, sys  # importlib.abc registers the loader
import numpy as np

class Failing(importlib.machinery.ExtensionFileLoader):
    def exec_module(self, module):
        raise ImportError("no direct load")

if sys.argv[1] == "no-suffixes":
    importlib.machinery.EXTENSION_SUFFIXES = []
elif sys.argv[1] == "failing-loader":
    importlib.machinery.ExtensionFileLoader = Failing
from riemopt import rqi
from riemopt.experiments import ExperimentSpec, run_experiment
from riemopt.sampling import random_symmetric, random_unit_vector, rng_from_seed

def digest(trace):
    sha = hashlib.sha256()
    for rows in (trace.points, trace.values, trace.grad_norms, trace.errors, trace.steps):
        sha.update(np.asarray(rows, dtype=float).tobytes())
    return sha.hexdigest()

print(digest(rqi(random_symmetric(rng_from_seed(0), 60), random_unit_vector(rng_from_seed(1), 60)).trace))
print(digest(run_experiment(ExperimentSpec("fig2", n=10, method="cg"))[1]))
print("scipy.linalg" in sys.modules)
"""


def test_kernels_from_the_scipy_linalg_import_give_the_same_bits():
    # when the compiled kernels cannot be loaded on their own, they come from
    # the import of scipy.linalg, with the same bits: a dense-Q rqi trace and
    # a fig2 cg trace, each its own fresh process
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    runs = {how: subprocess.run([sys.executable, "-c", _KERNEL_TRACES, how], env=env,
                                capture_output=True, text=True, check=True).stdout.split()
            for how in ("direct", "no-suffixes", "failing-loader")}
    assert runs["direct"][2] == "False"
    assert runs["no-suffixes"] == runs["failing-loader"] == runs["direct"][:2] + ["True"]
