"""Report and trace bytes of a fixed subset of the CLI sweep, and traces of
the eigen drivers on a dense ``Q``.

``tests/golden_sweep.json`` holds the SHA-256 of every file that the
``GOLDEN`` runs of ``tools/cli_sweep.py`` write (the CSV trace, the report
and the exit code) and, under ``dense``, of the traces of the Rayleigh
drivers on the ``DENSE`` problems, which no CLI run takes.  A reordered sum,
a formatting edit or a numpy or scipy upgrade shows here as a changed run.
Bytes are only promised under the versions the manifest was made with, so
under others the test skips.  The manifest is remade as it was made, in a
worker with one BLAS thread.  A change that moves bytes on purpose
regenerates it with ``python tools/cli_sweep.py --golden`` and lists the
changed runs.
"""

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_sweep  # noqa: E402


def test_golden_runs_keep_their_bytes(tmp_path):
    with open(cli_sweep.MANIFEST) as fh:
        manifest = json.load(fh)
    here = cli_sweep.versions()
    if here != manifest["versions"]:
        pytest.skip(f"manifest made under {manifest['versions']}, this is {here}")
    made = tmp_path / "golden.json"
    cli_sweep.in_worker(os.path.join(cli_sweep.ROOT, "src"), "--golden", str(made))
    with open(made) as fh:
        now = json.load(fh)
    changed = sorted(f"{section}: {name}" for section in ("runs", "dense")
                     for name in now[section].keys() | manifest[section].keys()
                     if now[section].get(name) != manifest[section].get(name))
    assert changed == [], "runs whose bytes changed; regenerate with tools/cli_sweep.py --golden"
