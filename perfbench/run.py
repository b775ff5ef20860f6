"""Benchmark of the ablation, fluctuation and regret studies.

Usage, from the repository root:

    python3 perfbench/run.py --workload {ablation,fluctuation,regret}
        --seed N --seconds S --trace {0,1}

A run first spawns a few set-up probes, then spawns one fresh,
single-threaded worker process per operation round until S seconds have
passed. Each worker calls the library entry point the matching `orra`
subcommand calls, writes its traces and reports under
`.perfbench_out/`, and checks them. With --trace 0 the run reports the
end-to-end metrics (medians over its workers); with --trace 1 every round
is one untraced and one traced worker, and the run reports the per-layer
metrics and the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_BASE = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
# every worker is killed once this long has passed since the run began,
# so a hung or much slower program still ends the run in time
DEADLINE_S = 165.0
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class SetupError(RuntimeError):
    """The package or its configs could not be loaded, or a set-up probe
    failed: no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(workload, mode, out_dir, env, timeout):
    """Run one worker; returns (exit code, record or None). The code is
    None when the worker outlived its timeout and was killed."""
    os.makedirs(out_dir, exist_ok=True)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, out_dir, mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    except BaseException:  # interrupted: leave no worker behind
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(stderr[-2000:])
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
        record["setup_s"] = record["entry_clock"] - start
    except (IndexError, KeyError, TypeError, ValueError):
        record = None
    return proc.returncode, (record if proc.returncode == 0 else None)


def median_layers(records: list) -> dict:
    return {
        name: (statistics.median(r["layers"][name][0] for r in records), unit)
        for name, (_, unit) in records[0]["layers"].items()
    }


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "orra", "__init__.py")):
        raise SetupError("package sources src/orra not found")
    config = WORKLOADS[args.workload]["config"]
    if not os.path.isfile(os.path.join(ROOT, "configs", config)):
        raise SetupError(f"configs/{config} not found")
    env = worker_env()
    run_dir = os.path.join(OUT_BASE, f"{args.workload}-{args.seed}-"
                                     f"{os.getpid()}")
    setups, import_s, config_s = [], [], []
    plain, traced = [], []
    attempted = failed = 0
    failures = []

    def note(rec):
        setups.append(rec["setup_s"])
        import_s.append(rec["import_s"])
        config_s.append(rec["config_s"])

    modes = ("plain", "traced") if args.trace else ("plain",)
    ops = WORKLOADS[args.workload]["ops"]
    try:
        for k in range(SETUP_PROBES):
            code, rec = spawn(args.workload, "setup",
                              os.path.join(run_dir, f"setup{k}"), env,
                              deadline - time.perf_counter())
            if rec is None:
                raise SetupError(f"set-up probe {k} ended with exit code "
                                 f"{code}")
            note(rec)
        t0 = time.perf_counter()
        k = 0
        while True:
            for mode in modes:
                code, rec = spawn(args.workload, mode,
                                  os.path.join(run_dir, f"op{k}"), env,
                                  deadline - time.perf_counter())
                k += 1
                attempted += ops
                if rec is None:
                    failed += ops
                    if code != 3:  # 3: the entry point raised
                        why = "timed out" if code is None else f"exited {code}"
                        failures.append(f"{mode} worker {k} {why}")
                    continue
                note(rec)
                failures += rec["failures"]
                (traced if mode == "traced" else plain).append(rec)
            if time.perf_counter() - t0 >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(OUT_BASE)  # only when no other run is using it
        except OSError:
            pass

    for msg in failures:
        print(f"FAILED: {msg}")
    out = {"correct": not failures, "attempted": attempted, "failed": failed}
    if not plain or (args.trace and not traced):
        out["metrics"] = {}
        return out
    wall = statistics.median(r["wall_s"] for r in plain)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced workers, {len(setups)} set-ups")
    if not args.trace:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            "MB"),
        }
    else:
        metrics = median_layers(traced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["setup.import_s"] = (statistics.median(import_s), "s")
        metrics["setup.config_s"] = (statistics.median(config_s), "s")
        metrics["trace.overhead"] = (traced_wall / wall, "ratio")
        for name in sorted(set(m for r in traced for m in r["missing"])):
            print(f"missing entry point (reported as 0): {name}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    out["metrics"] = {name: {"value": value, "unit": unit}
                      for name, (value, unit) in metrics.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    # every workload runs fixed inputs (see README.md); the seed only
    # names the run's output directory
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through spawn(), which stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = run(args)
    except SetupError as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
