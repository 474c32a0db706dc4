"""``tools/cli_sweep.py --compare A B --ignore KEY...``: report keys named
after ``--ignore`` are left out before two sweeps' files are compared."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_sweep.py"
REPORT = "experiment: fig1\nn: 5\niterations: {iterations}\nconverged: True\n"


def _sweep(root, iterations, converged="True"):
    """Two runs: ``same`` differs between the sweeps only in ``iterations``,
    ``other`` in ``converged`` as well."""
    for run, report in (("same", REPORT.format(iterations=iterations)),
                        ("other", REPORT.format(iterations=iterations)
                         .replace("True", converged))):
        (root / run).mkdir(parents=True)
        (root / run / "fig1-sd-0.report.txt").write_text(report)
        (root / run / "exit.txt").write_text("0\n")
    return str(root)


def _compare(*args):
    done = subprocess.run([sys.executable, str(TOOL), "--compare", *args],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout.splitlines()


def test_compare_leaves_the_ignored_report_keys_out(tmp_path):
    a = _sweep(tmp_path / "a", 3)
    b = _sweep(tmp_path / "b", 4, converged="False")
    assert _compare(a, b) == (1, ["other/fig1-sd-0.report.txt", "same/fig1-sd-0.report.txt"])
    assert _compare(a, b, "--ignore", "iterations") == (1, ["other/fig1-sd-0.report.txt"])
    assert _compare(a, b, "--ignore", "iterations", "converged") == (0, [])
    assert _compare(a, a) == (0, [])


def test_compare_ignores_keys_only_in_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, value in ((a, "1.0"), (b, "2.0")):
        root.mkdir()
        (root / "fig1-sd-0.csv").write_text(f"iter,rho\n0,{value}\n")
    assert _compare(str(a), str(b), "--ignore", "0") == (1, ["fig1-sd-0.csv"])
