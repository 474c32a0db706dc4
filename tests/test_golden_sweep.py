"""Report and trace bytes of a fixed subset of the CLI sweep.

``tests/golden_sweep.json`` holds the SHA-256 of every file that the
``GOLDEN`` runs of ``tools/cli_sweep.py`` write: the CSV trace, the report
and the exit code.  A reordered sum, a formatting edit or a numpy or scipy
upgrade shows here as a changed run.  Bytes are only promised under the
versions the manifest was made with, so under others the test skips.  A
change that moves bytes on purpose regenerates the manifest with
``python tools/cli_sweep.py --golden`` and lists the changed runs.
"""

import json
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
    runs = cli_sweep.golden(str(tmp_path))
    changed = sorted(name for name in runs.keys() | manifest["runs"].keys()
                     if runs.get(name) != manifest["runs"].get(name))
    assert changed == [], "runs whose bytes changed; regenerate with tools/cli_sweep.py --golden"
