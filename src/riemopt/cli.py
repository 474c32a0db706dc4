"""Command-line harness for the convergence experiments.

Exit codes: 0 on success, 2 on a usage error (argparse's message, also for
an experiment setting out of range) or a verification tolerance breach, 3
on a solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import _EXPERIMENTS, ExperimentSpec, run_experiment


def _parse_init(text):
    if text in ("random", "near"):
        return text, None
    if text.startswith("near:"):
        try:
            return "near", float(text.split(":", 1)[1])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"bad init spec {text!r}; use 'random' or 'near:<eps>'")


def _add_common(sub, methods):
    sub.add_argument("--n", type=int, help="problem size")
    sub.add_argument("--method", choices=methods)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--init", type=_parse_init,
                     help="'random' or 'near:<eps>' (default is per-method)")
    sub.add_argument("--max-iter", type=int)
    sub.add_argument("--tol", type=float)
    sub.add_argument("--reset-period", type=int, help="cg only")
    sub.add_argument("--line-search", choices=("exact", "bracket", "golden", "estimate"),
                     help="'golden' is an alias of 'bracket'")
    sub.add_argument("--out", dest="out_dir", metavar="OUT",
                     help="directory for CSV trace and report")


def build_parser():
    """Each subcommand's options are named after :class:`ExperimentSpec`'s
    fields and left out of the namespace when not given, so the spec holds
    every default, each experiment's ``n`` and method included."""
    parser = argparse.ArgumentParser(
        prog="riemopt",
        description="Geodesic optimization experiments: sphere eigenvalue runs, "
                    "rotation-group trace ascent, matrix diagonalization, and "
                    "derivative verification.")
    subs = parser.add_subparsers(dest="experiment", required=True)

    def sub(name, text):
        return subs.add_parser(name, help=text, argument_default=argparse.SUPPRESS)

    for name, text in (("fig1", "Rayleigh quotient on the sphere, Q = diag(n..1)"),
                       ("fig2", "tr(T'QTN) ascent on the rotation group"),
                       ("jacobi", "Newton diagonalization of a symmetric matrix")):
        _add_common(sub(name, text), tuple(_EXPERIMENTS[name].methods))

    fd = sub("fd-check", "finite-difference derivative verification")
    fd.add_argument("--seed", type=int)
    fd.add_argument("--out", dest="out_dir", metavar="OUT")
    return parser


def _spec_from_args(args):
    fields = vars(args)
    if "init" in fields:
        fields["init"], fields["init_eps"] = fields["init"]
    return ExperimentSpec(**fields)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    report, trace = run_experiment(spec)
    if spec.experiment == "fd-check":
        print(f"fd-check: {'ok' if report.converged else 'FAIL'} (grad {report.final_value:.3e}, "
              f"hess {report.final_error:.3e}, {report.duration:.2f}s)")
        return 0 if report.converged else 2
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
