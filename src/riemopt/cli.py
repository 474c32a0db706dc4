"""Command-line harness for the convergence experiments.

Exit codes: 0 on success, 2 on a usage error (argparse's message, also for
an experiment setting out of range) or a verification tolerance breach, 3
on a solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ToleranceBreached
from .experiments import _METHODS, ExperimentSpec, run_experiment


def _parse_init(text):
    if text == "random":
        return "random", None
    if text == "near":
        return "near", None
    if text.startswith("near:"):
        eps = float(text.split(":", 1)[1])
        return "near", eps
    raise argparse.ArgumentTypeError(f"bad init spec {text!r}; use 'random' or 'near:<eps>'")


def _add_common(sub, default_n, methods):
    sub.add_argument("--n", type=int, default=default_n, help="problem size")
    if methods:
        sub.add_argument("--method", choices=methods, default=methods[0])
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--init", type=_parse_init, default=None,
                     help="'random' or 'near:<eps>' (default is per-method)")
    sub.add_argument("--max-iter", type=int, default=None)
    sub.add_argument("--tol", type=float, default=1e-12)
    sub.add_argument("--reset-period", type=int, default=None, help="cg only")
    sub.add_argument("--line-search", choices=("exact", "bracket", "golden", "estimate"),
                     default=None, help="'golden' is an alias of 'bracket'")
    sub.add_argument("--out", default=None, help="directory for CSV trace and report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riemopt",
        description="Geodesic optimization experiments: sphere eigenvalue runs, "
                    "rotation-group trace ascent, matrix diagonalization, and "
                    "derivative verification.")
    subs = parser.add_subparsers(dest="experiment", required=True)

    fig1 = subs.add_parser("fig1", help="Rayleigh quotient on the sphere, Q = diag(n..1)")
    _add_common(fig1, 21, _METHODS["fig1"])

    fig2 = subs.add_parser("fig2", help="tr(T'QTN) ascent on the rotation group")
    _add_common(fig2, 10, _METHODS["fig2"])

    jac = subs.add_parser("jacobi", help="Newton diagonalization of a symmetric matrix")
    _add_common(jac, 5, _METHODS["jacobi"])

    fd = subs.add_parser("fd-check", help="finite-difference derivative verification")
    fd.add_argument("--seed", type=int, default=0)
    fd.add_argument("--out", default=None)
    return parser


def _spec_from_args(args):
    if args.experiment == "fd-check":
        return ExperimentSpec(experiment="fd-check", n=8, method="all",
                              seed=args.seed, out_dir=args.out)
    init, eps = ("default", None) if args.init is None else args.init
    return ExperimentSpec(
        experiment=args.experiment,
        n=args.n,
        method=args.method,
        seed=args.seed,
        init=init,
        init_eps=eps,
        max_iter=args.max_iter,
        tol=args.tol,
        reset_period=args.reset_period,
        line_search=args.line_search,
        out_dir=args.out,
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    if spec.experiment == "fd-check":
        try:
            report, _ = run_experiment(spec)
        except ToleranceBreached as exc:
            print(f"fd-check: FAIL ({exc})")
            return 2
        print(f"fd-check: ok (grad {report.final_value:.3e}, hess {report.final_error:.3e}, "
              f"{report.duration:.2f}s)")
        return 0

    report, trace = run_experiment(spec)
    if report.error_message is not None:
        print(f"{spec.experiment}/{spec.method}: solver error: {report.error_message}")
        return 3
    order = "n/a" if report.order is None else f"{report.order.order:.3f}"
    print(f"{spec.experiment}/{spec.method} n={spec.n} seed={spec.seed}: "
          f"{report.iterations} iterations, converged={report.converged}, "
          f"final value {report.final_value:.12g}, final error {report.final_error:.3e}, "
          f"order fit {order}, {report.duration:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
