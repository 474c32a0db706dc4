"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload so-newton --seeds 1-10 --seconds 24

The spread is the distance between the first and third quartile of the
per-seed values as a share of their median, the figure a metric's bound in
``BENCHMARK.json`` has to stay clear of.  Runs are sequential, one process
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from summary import relative_spread

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", default="24")
    args = p.parse_args(argv)

    values = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=300, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[0].removeprefix("# env "))
        print(f"seed {seed}: probe={env['machine_probe']} "
              f"correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = relative_spread(vals) if len(vals) >= 2 and statistics.median(vals) else float("nan")
        print(f"{name}: median {statistics.median(vals):.6g}, spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
