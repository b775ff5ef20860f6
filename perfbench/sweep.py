"""Repeat benchmark runs and summarise their spread.

Usage, from the repository root: python3 perfbench/sweep.py

Runs `run.py` ten times per workload in each of two sets, alternating the
sets and workloads run by run, each run with its own seed and the
`run_seconds` of BENCHMARK.json. Prints, per workload and end-to-end
metric, each set's median, quartiles and quartile spread (as a share of
the median), and set 2's median relative to set 1's. Then makes one
traced run per workload and prints its per-layer table.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("ablation", "fluctuation", "regret")
RUNS = 10
SETS = 2


def bench(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    raw = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    for i in range(RUNS):
        for s in range(SETS):
            for w in WORKLOADS:
                seed = 1000 * (s + 1) + i
                out = bench(w, seed, seconds, 0)
                raw[w][s].append(out)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: "
                      + json.dumps(out), file=sys.stderr, flush=True)

    print("| workload | metric | set | median | q1 | q3 | spread | "
          "vs set 1 | failed/attempted | correct |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in WORKLOADS:
        first = {}
        for s, runs in enumerate(raw[w]):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            correct = all(r["correct"] for r in runs)
            for name in runs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in runs]
                unit = runs[0]["metrics"][name]["unit"]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                first.setdefault(name, med)
                print(f"| {w} | {name} ({unit}) | {s + 1} | {med:.4g} | "
                      f"{q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.2%} | "
                      f"{med / first[name] - 1:+.2%} | {failed}/{attempted} "
                      f"| {correct} |")
    traced = {w: bench(w, 1, seconds, 1) for w in WORKLOADS}
    names = list(traced[WORKLOADS[0]]["metrics"])
    print()
    print("| layer metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    for name in names:
        unit = traced[WORKLOADS[0]]["metrics"][name]["unit"]
        cells = [f"{traced[w]['metrics'][name]['value']:.4g}"
                 for w in WORKLOADS]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
