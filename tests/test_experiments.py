
import numpy as np
import pytest

import riemopt.experiments
import riemopt.solvers
from _oracles import read_trace_csv
from riemopt.cli import main
from riemopt.core import IterationTrace, estimate_order, longest_decreasing_run
from riemopt.errors import LineSearchFailed
from riemopt.experiments import (
    ExperimentSpec,
    fig2_matrices,
    run_experiment,
    run_fig1,
    run_fig2,
    run_jacobi,
    trace_filename,
    report_filename,
)


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
    with pytest.raises(ValueError):
        ExperimentSpec("fig2", method="rqi")
    with pytest.raises(ValueError):
        ExperimentSpec("fig1", method="rqi", line_search="exact")
    with pytest.raises(ValueError, match="unknown line search"):
        ExperimentSpec("fig1", method="sd", line_search="foo")


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
], ids=["n", "init-eps", "init-eps-nan", "init-eps-inf", "fig1-seed", "fig2-seed",
        "jacobi-seed", "fd-check-seed", "rqi-line-search", "tol-zero", "tol-inf", "tol-nan", "max-iter",
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
    # the report is still written before the breach is raised
    assert (tmp_path / "fd-check-0.report.txt").exists()


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
