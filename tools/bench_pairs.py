"""Run the benchmark on two trees in alternated pairs, save every run, and
compare the end-to-end metrics::

    python tools/bench_pairs.py PARENT CHANGE --out BENCH_<number>.json \\
        [--workload W ...] [--seed S ...] [--pairs N] [--note TEXT]

PARENT and CHANGE are checkouts, each with ``BENCHMARK.json``, ``bench/`` and
``src/``.  For each workload (default: all of CHANGE's ``BENCHMARK.json``)
and seed (default 1), it runs ``COMMAND --workload W --seed S --seconds T
--trace 0`` in each tree N times (default 10), COMMAND being the tree's own
``BENCHMARK.json`` command and T CHANGE's ``run_seconds``.  In pair k the
parent runs first when k is odd and the change when k is even.  Every run
is made with ``PYTHONDONTWRITEBYTECODE=1``, so neither tree's ``setup_s``
gains from a bytecode cache the other lacks.

OUT gets the layout of ``BENCH_27.json``: ``parent`` and ``change`` each
hold a ``revision`` (``git rev-parse HEAD`` of a tree that is a checkout's
root, else null) and the ``runs``, each with its workload, seed, pair,
``env`` (the run's ``# env`` line, ``machine_probe`` included), ``classes``
(its ``# class`` lines) and ``result`` (its final JSON line).

For each workload, seed and end-to-end metric it then prints both medians,
the parent's quartiles, the pairs the change won, and two verdicts: ``gain``
when the change won at least 9 pairs in 10 and the median moved the better
way by more than the parent's quartile spread, and ``ok`` when the change's
median is not worse than the parent's by more than the metric's bound
(``REGRESSED`` otherwise).  Then the share of failed solves on each side.
Standard library only."""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

GAIN_SHARE = 0.9  # of the pairs the change must win for a gain


def run_once(tree, command, workload, seed, seconds):
    """One benchmark run in ``tree``: its ``env``, ``classes`` and ``result``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} in {tree} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    envs = [json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")]
    return {"env": envs[0] if envs else None,
            "classes": [line[len("# class "):] for line in lines if line.startswith("# class ")],
            "result": json.loads(lines[-1])}


def revision(tree):
    """``git rev-parse HEAD`` of ``tree`` when it is a checkout's root, else None."""
    proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
                          capture_output=True, text=True)
    top, head = (proc.stdout.split() + [None, None])[:2]
    same = proc.returncode == 0 and os.path.realpath(top) == os.path.realpath(tree)
    return head if same else None


def benchmark(tree):
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def collect(parent, change, workloads, seeds, pairs, seconds):
    """Both sides' runs, alternated pair by pair."""
    runs = {"parent": [], "change": []}
    trees = {"parent": parent, "change": change}
    commands = {side: benchmark(tree)["command"] for side, tree in trees.items()}
    for workload in workloads:
        for seed in seeds:
            for k in range(1, pairs + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], commands[side], workload, seed, seconds)
                    runs[side].append({"workload": workload, "seed": seed, "trace": 0,
                                       "pair": f"a{k}", **run})
                    print(f"# {workload} seed {seed} pair a{k} {side} done", file=sys.stderr)
    return runs


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(parent_runs, change_runs, metric):
    """Verdicts on one end-to-end ``metric`` (a BENCHMARK.json entry) over
    runs matched by pair: medians, the parent's quartiles, wins, and the
    ``gain`` and ``ok`` verdicts."""
    name, lower = metric["name"], metric["better"] == "lower"
    by_pair = {run["pair"]: run["result"]["metrics"][name]["value"] for run in change_runs}
    a = [run["result"]["metrics"][name]["value"] for run in parent_runs]
    b = [by_pair[run["pair"]] for run in parent_runs]
    sign = -1.0 if lower else 1.0  # sign * (b - a) > 0: the change is better
    wins = sum(sign * (y - x) > 0.0 for x, y in zip(a, b))
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    gain = wins >= GAIN_SHARE * len(a) and sign * (mb - ma) > q3 - q1
    ok = -sign * (mb - ma) <= metric["bound"] * abs(ma)
    return {"name": name, "parent": ma, "change": mb, "q1": q1, "q3": q3,
            "wins": wins, "pairs": len(a), "gain": gain, "ok": ok}


def failed_share(runs):
    attempted = sum(run["result"]["attempted"] for run in runs)
    return sum(run["result"]["failed"] for run in runs) / attempted if attempted else math.nan


def report(record, metrics):
    """Print the comparison of every workload and seed in ``record``; return
    True when no metric regressed and no failed share rose."""
    clean = True
    keys = sorted({(run["workload"], run["seed"]) for run in record["parent"]["runs"]})
    for workload, seed in keys:
        pick = {side: [run for run in record[side]["runs"]
                       if (run["workload"], run["seed"]) == (workload, seed)]
                for side in ("parent", "change")}
        print(f"{workload} seed {seed}")
        for metric in metrics:
            c = compare(pick["parent"], pick["change"], metric)
            verdict = ("gain " if c["gain"] else "") + ("ok" if c["ok"] else "REGRESSED")
            print(f"  {c['name']:<14} {c['parent']:10.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
                  f"-> {c['change']:10.4g}  won {c['wins']}/{c['pairs']}  {verdict}")
            clean &= c["ok"]
        fa, fb = failed_share(pick["parent"]), failed_share(pick["change"])
        rose = fb > fa
        print(f"  {'failed share':<14} {fa:10.4g} -> {fb:.4g}  {'ROSE' if rose else 'ok'}")
        clean &= not rose
    return clean


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, action="append")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--note", default="")
    args = p.parse_args(argv)
    spec = benchmark(args.change)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = collect(args.parent, args.change, workloads, args.seed or [1], args.pairs, seconds)
    record = {
        "command": " ".join(spec["command"]) + f" --workload <workload> --seed <seed>"
                   f" --seconds {seconds:g} --trace 0",
        "note": args.note,
        "workloads": workloads,
        "parent": {"revision": revision(args.parent), "runs": runs["parent"]},
        "change": {"revision": revision(args.change), "runs": runs["change"]},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if report(record, spec["end_to_end"]) else 1


if __name__ == "__main__":
    sys.exit(main())
