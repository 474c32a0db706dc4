"""``tools/bench_pairs.py`` on two trees whose benchmark command is a stub:
the runs alternate, every run is saved, and the verdicts read the bounds."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = [("setup_s", "lower", 0.25), ("solves_per_s", "higher", 0.25),
           ("peak_rss_mb", "lower", 0.1)]
# the stub logs its tree's name to ../order, and prints an env line, a class
# line and a result whose timings are its run's entry of the tree's ms.txt
STUB = '''import json, pathlib
here = pathlib.Path.cwd()
with open(here.parent / "order", "a") as fh:
    fh.write(here.name + "\\n")
run = (here.parent / "order").read_text().split().count(here.name) - 1
ms = float((here / "ms.txt").read_text().split()[run])
print("# env " + json.dumps({"machine_probe": {"svd250_ms": 12.0}}))
print("# class fig1: 3 solves, 0 failed")
metrics = {"setup_s": ms / 100, "solves_per_s": 1000 / ms, "peak_rss_mb": 40.0}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
'''


def _tree(root, ms):
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(STUB)
    (root / "ms.txt").write_text(" ".join(map(str, ms)))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"], "run_seconds": 1,
        "workloads": [{"name": "w"}],
        "end_to_end": [{"name": n, "better": b, "bound": x} for n, b, x in METRICS]}))
    return str(root)


def _pairs(tmp_path, parent_ms, change_ms):
    """Exit code, the verdict printed for each metric, and the record."""
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(TOOL), _tree(tmp_path / "p", parent_ms),
                           _tree(tmp_path / "c", change_ms), "--out", str(out),
                           "--pairs", str(len(parent_ms))],
                          capture_output=True, text=True, timeout=120)
    # each line after the header: the metric's name, ..., two spaces, its verdict
    verdicts = {line.split()[0]: line.rsplit("  ", 1)[1]
                for line in done.stdout.splitlines()[1:]}
    return done.returncode, verdicts, json.loads(out.read_text())


def test_pairs_alternate_and_every_run_is_saved(tmp_path):
    code, verdicts, record = _pairs(tmp_path, [10.0] * 10, [8.0] * 10)
    assert (tmp_path / "order").read_text().split() == ["p", "c", "c", "p"] * 5
    for side in ("parent", "change"):
        runs = record[side]["runs"]
        assert [run["pair"] for run in runs] == [f"a{k}" for k in range(1, 11)]
        assert runs[0]["env"]["machine_probe"] == {"svd250_ms": 12.0}
        assert runs[0]["classes"] == ["fig1: 3 solves, 0 failed"]
        assert runs[0]["result"]["attempted"] == 3 and runs[0]["workload"] == "w"
    # faster in every pair, by more than the parent's (zero) spread; the peak
    # RSS is level, so it wins no pair and claims nothing
    assert code == 0
    assert verdicts == {"setup_s": "gain ok", "solves_per_s": "gain ok",
                        "peak_rss_mb": "ok", "failed": "ok"}


@pytest.mark.parametrize("parent_ms, change_ms", [
    ([10.0] * 10, [8.0] * 8 + [12.0] * 2),  # faster in only 8 pairs of 10
    ([9.0, 11.0] * 5, [8.9, 10.9] * 5),     # faster in all, inside the parent's spread
], ids=["eight-of-ten", "inside-spread"])
def test_no_gain_without_nine_pairs_in_ten_beyond_the_spread(tmp_path, parent_ms, change_ms):
    code, verdicts, _ = _pairs(tmp_path, parent_ms, change_ms)
    assert code == 0
    assert set(verdicts.values()) == {"ok"}


def test_a_change_worse_than_its_bound_regresses(tmp_path):
    # 40 % slower: setup_s and solves_per_s pass their 0.25 bound
    code, verdicts, _ = _pairs(tmp_path, [10.0] * 2, [14.0] * 2)
    assert code == 1
    assert verdicts["setup_s"] == verdicts["solves_per_s"] == "REGRESSED"
    assert verdicts["peak_rss_mb"] == "ok"
