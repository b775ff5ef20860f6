"""Show that no output check is vacuous.

Usage, from the repository root: python3 perfbench/selftest.py

Runs a short fluctuation scenario and a short regret study, checks that
their real outputs pass, then corrupts a copy of each output in one way
and checks that the matching check fails. Exits 0 when every clean output
passes and every corruption is caught.
"""
import os
import shutil
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from orra.scenario import ScenarioConfig, run_scenario  # noqa: E402
from orra.studies import run_regret_study  # noqa: E402


def remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def fluctuation_outputs():
    cfg = ScenarioConfig.from_json(os.path.join(ROOT, "configs",
                                                "fluctuation.json"))
    cfg = replace(cfg, duration=180.0, seed=11)
    res = run_scenario(cfg, out_dir=OUT)
    aging = res.fleet.batteries[0].aging
    return cfg, res, checks.Trace.read(res.trace_path), (aging.a, aging.b)


def regret_outputs():
    cfg = ScenarioConfig.from_json(os.path.join(ROOT, "configs",
                                                "step_event.json"))
    cfg = replace(cfg, duration=15.0)
    res, report = run_regret_study(cfg, [10, 20, 50], out_dir=OUT)
    return cfg, res, report


def main() -> int:
    cfg, res, tr, aging = fluctuation_outputs()
    rcfg, rres, report = regret_outputs()
    shutil.rmtree(OUT, ignore_errors=True)
    remove_if_empty(os.path.dirname(OUT))
    n = cfg.fleet.n
    s = res.surrogate
    booked = [b.lifetime_loss for b in res.fleet.batteries]
    stages = [i["stage"] for i in rres.infos]

    def trace_check(t):
        return checks.check_trace(t, cfg, True)

    def loss_check(soc, loss):
        return checks.check_lifetime_loss(soc, cfg.fleet.initial_soc, loss,
                                          aging)

    def surrogate_check(dp):
        return checks.check_surrogate(s.sample_df, dp, s.weights, cfg)

    def regret_check(u_star):
        return checks.check_regret(report, stages, u_star, rres.modes,
                                   rres.signal_total, rcfg)

    clean = {
        "trace": trace_check(tr),
        "disturbance": checks.check_disturbance(tr, cfg),
        "lifetime loss": loss_check(res.soc, booked),
        "surrogate": surrogate_check(s.sample_dP),
        "regret": regret_check(rres.u_star),
    }

    shifted = tr.copy()
    soc = shifted.agents("soc", n)
    shifted.set_agents("soc", n, np.vstack([soc[:1], soc[:-1]]))

    redrawn = tr.copy()
    other = replace(cfg, seed=cfg.seed + 1)
    t = redrawn.col("time")
    redrawn.data[:, redrawn.header.index("dist")] = [
        np.random.default_rng([other.seed, int(tk // cfg.fluct_hold)])
        .uniform(cfg.fluct_low, cfg.fluct_high) for tk in t
    ]

    two_sided = tr.copy()
    d, c = two_sided.agents("d", n), two_sided.agents("c", n)
    k = int(np.argmax(d[:, 0]))
    c[k, 0] = 1e-3
    two_sided.set_agents("c", n, c)

    perturbed = list(s.sample_dP)
    perturbed[len(perturbed) // 2] += 1e-4

    off_loss = list(booked)
    off_loss[0] *= 1.001

    moved = rres.u_star.copy()
    bal = np.abs((moved[:, :, 0] - moved[:, :, 1]).sum(axis=1)
                 + rres.signal_total)
    k = int(np.nonzero((bal <= checks.BALANCE_TOL)
                       & (np.abs(moved).sum(axis=(1, 2)) > 0))[0][0])
    col = 0 if rres.modes[k, 0] == 1 else 1
    moved[k, 0, col] += 0.01 if moved[k, 0, col] < 0.5 else -0.01

    corrupted = {
        "SoC shifted by one interval": trace_check(shifted),
        "dist drawn with another seed":
            checks.check_disturbance(redrawn, cfg),
        "charge and discharge in one row": trace_check(two_sided),
        "one surrogate sample perturbed": surrogate_check(perturbed),
        "booked loss off by 0.1%": loss_check(res.soc, off_loss),
        "one u* row moved off target": regret_check(moved),
    }

    ok = True
    for name, fails in clean.items():
        print(f"clean {name}: {'pass' if not fails else fails}")
        ok &= not fails
    for name, fails in corrupted.items():
        caught = bool(fails)
        print(f"{name}: "
              f"{'caught - ' + '; '.join(fails) if caught else 'NOT CAUGHT'}")
        ok &= caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
