"""The benchmark's tracer still sees every layer it reports.

``bench/tracing.install`` wraps methods found in each objective class's own
namespace and module functions looked up by name, so moving a method into a
base class or renaming a function would leave a traced count at zero (or
break the install) without failing any other test.  The run happens in a
subprocess, so the patches do not leak into the rest of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Spans the solves below need not reach: no layer calls an SVD (SO(n)'s
#: drift control is a Newton-Schulz step, matrix products only) or
#: ``numpy.linalg.solve``; the tracer still wraps both.
UNREACHED = {"linalg.svd", "linalg.solve"}

SCRIPT = r"""
import json
import sys
from types import SimpleNamespace

import numpy as np

import riemopt.experiments
import tracing

rm = SimpleNamespace(solvers=riemopt.solvers, sphere=riemopt.sphere, rotation=riemopt.rotation,
                     eigensolvers=riemopt.eigensolvers, experiments=riemopt.experiments)
tracer = tracing.Tracer()
tracing.install(tracer, rm)
E = rm.experiments
A = np.random.default_rng(0).standard_normal((8, 8))
Q = A + A.T
# only the golden search evaluates the objective's value
specs = [
    E.ExperimentSpec("fig1", n=6, method="sd", line_search="golden", max_iter=20),
    E.ExperimentSpec("fig1", n=6, method="cg"),
    E.ExperimentSpec("fig1", n=6, method="newton"),
    E.ExperimentSpec("fig2", n=4, method="cg", line_search="estimate"),
    E.ExperimentSpec("fig2", n=4, method="sd", line_search="golden", max_iter=5),
    E.ExperimentSpec("jacobi", n=4, method="newton"),
]
solves = [lambda spec=spec: E.run_experiment(spec) for spec in specs]
solves.append(lambda: rm.eigensolvers.rqi(Q, np.ones(8)))
for i, solve in enumerate(solves):
    tracer.run_solve(i, solve)
metrics, checks = tracing.layer_metrics(tracer, range(len(solves)))
json.dump({"calls": {name: metrics[name + ".calls"] for name in tracing._CALLS_AND_S},
           "nesting_faults": checks["nesting_faults"]}, sys.stdout)
"""


def test_traced_run_records_every_layer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    silent = sorted(name for name, calls in out["calls"].items()
                    if calls == 0 and name not in UNREACHED)
    assert silent == []
    assert out["nesting_faults"] == 0
