"""One benchmark operation in a fresh process.

Usage: python3 worker.py <workload> <out_dir> <mode>

mode is "setup" (import and load the config, then stop), "plain" (also
call the workload's entry point and check its outputs) or "traced" (the
same with per-layer tracing installed). The last stdout line is a JSON
object with the timings; `entry_clock` is the perf_counter reading just
before the entry point is called, which the parent subtracts from its own
reading at spawn time to get the set-up time, since both read the same
monotonic clock. A check that raises is recorded as a failed check.
Exit code 2 means set-up failed; 3 means the entry point raised.
"""
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# what each workload runs: a shipped config, seed included, with its
# simulated seconds and horizons fixed here, so every run does the same
# work (README.md says why no input follows the benchmark's --seed).
# "ops" counts operations per worker: each ablation arm is one scenario run.
WORKLOADS = {
    "ablation": {"config": "step_event.json", "duration": 300.0, "ops": 4},
    "fluctuation": {"config": "fluctuation.json", "duration": 600.0,
                    "ops": 1},
    "regret": {"config": "step_event.json", "duration": 30.0, "ops": 1,
               "horizons": [10, 20, 50, 100]},
}


def make_config(ScenarioConfig, workload: str):
    """The workload's shipped config with its duration set."""
    spec = WORKLOADS[workload]
    data = ScenarioConfig.from_json(
        os.path.join(ROOT, "configs", spec["config"])
    ).to_dict()
    data["duration"] = spec["duration"]
    return ScenarioConfig.from_dict(data)


def run_entry(workload: str, cfg, out_dir: str):
    from orra.scenario import run_scenario
    from orra.studies import run_ablation, run_regret_study

    if workload == "ablation":
        return run_ablation(cfg, out_dir=out_dir)
    if workload == "fluctuation":
        return run_scenario(cfg, out_dir=out_dir)
    return run_regret_study(cfg, WORKLOADS[workload]["horizons"],
                            out_dir=out_dir)


def check(workload: str, cfg, out, out_dir: str) -> list:
    import checks
    from orra.studies import ARMS

    fails = []
    if workload == "ablation":
        results, _ = out
        traces = {}
        for signal, fleet_on in ARMS:
            res = results[(signal, fleet_on)]
            tr = checks.Trace.read(res.trace_path)
            fails += [f"{signal}/{fleet_on}: {m}" for m in
                      checks.check_trace(tr, res.config, fleet_on)]
            traces[(signal, fleet_on)] = tr
        summary = os.path.join(out_dir, f"{cfg.name}_ablation.json")
        fails += checks.check_ablation(traces, summary, cfg)
        return fails
    if workload == "fluctuation":
        res = out
        tr = checks.Trace.read(res.trace_path)
        fails += checks.check_trace(tr, cfg, True)
        fails += checks.check_disturbance(tr, cfg)
        aging = res.fleet.batteries[0].aging
        fails += checks.check_lifetime_loss(
            res.soc, cfg.fleet.initial_soc,
            [b.lifetime_loss for b in res.fleet.batteries],
            (aging.a, aging.b),
        )
        s = res.surrogate
        fails += checks.check_surrogate(s.sample_df, s.sample_dP, s.weights,
                                        cfg)
        return fails
    res, report = out
    tr = checks.Trace.read(res.trace_path)
    fails += checks.check_trace(tr, cfg, True)
    fails += checks.check_regret(
        report, [i["stage"] for i in res.infos], res.u_star, res.modes,
        res.signal_total, cfg,
    )
    return fails


def main(argv) -> int:
    workload, out_dir, mode = argv[1], argv[2], argv[3]
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    try:
        import orra.studies  # noqa: F401  (the import every run pays)
        from orra.scenario import ScenarioConfig
        t1 = time.perf_counter()
        cfg = make_config(ScenarioConfig, workload)
    except Exception as err:  # set-up failure: no operation was attempted
        print(f"set-up failed: {err!r}", file=sys.stderr)
        return 2
    t2 = time.perf_counter()
    result = {"entry_clock": t2, "import_s": t1 - t0, "config_s": t2 - t1}
    if mode != "setup":
        tracer = None
        if mode == "traced":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t3 = time.perf_counter()
        try:
            out = run_entry(workload, cfg, out_dir)
        except Exception as err:
            print(f"{workload} raised {err!r}", file=sys.stderr)
            return 3
        wall = time.perf_counter() - t3
        import resource
        result["wall_s"] = wall
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics(wall)
            result["missing"] = tracer.missing
        try:
            result["failures"] = check(workload, cfg, out, out_dir)
        except Exception as err:  # a malformed output is a failed check
            result["failures"] = [f"{workload} check raised {err!r}"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
