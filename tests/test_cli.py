"""Command-line interface: subcommands, exit codes, output routing."""
import copy
import importlib
import json
import multiprocessing
import os
import pickle
import pkgutil
import re
import subprocess
import sys

import pytest

import orra

from orra.cli import build_parser, main
from orra.scenario import (TRACE_SCHEMA, FleetConfig, ScenarioConfig,
                           ScenarioRunner, trace_columns)

NAN, INF = float("nan"), float("inf")


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "short.json"
    cfg = ScenarioConfig(name="clirun", duration=12.0)
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def test_validate_exit_codes(cfg_path, tmp_path, capsys):
    assert main(["validate", cfg_path]) == 0
    assert capsys.readouterr().out == (
        "config ok: clirun (step, AIE, 12 s, fleet of 5)\n")
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"duration": 0.1}))
    assert main(["validate", str(one)]) == 0
    assert capsys.readouterr().out == (
        "config ok: case_study_1 (step, AIE, 0.1 s, fleet of 5)\n")

    assert main(["validate", str(tmp_path / "missing.json")]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2

    bad.write_text(json.dumps({"kind": "ramp"}))
    assert main(["validate", str(bad)]) == 2

    bad.write_text(json.dumps({"optimizer": {"alpha": 1.5}}))
    assert main(["validate", str(bad)]) == 2
    capsys.readouterr()

    # each is rejected when the config loads, before a run could start
    for data in (
        {"duration": float("nan")},
        {"dt_inner": 0.03},  # 3 steps would cover 0.09 s of each 0.1 s
        {"fleet": {"initial_soc": []}},
        {"topology_edges": [[0, 1], [1, 7]]},
        {"fleet": {"capacity": -2.0}},
        {"fleet": 5},
        {"duration": 0.04},  # rounds to no control interval
        {"kind": "fluctuation", "fluct_hold": 0},
        {"kind": "fluctuation", "fluct_hold": float("inf")},
        {"kind": "fluctuation", "fluct_low": 2.0, "fluct_high": -2.0},
        {"fleet": {"capacity": float("nan")}},
        {"grid": {"inertia": float("nan")}},
        {"step_mw": float("nan")},
        {"aie": {"rbf_xi": float("nan")}},
        {"aie": {"rbf_d_min": float("nan")}},
        {"aie": {"rbf_max_samples": 0}},
        {"aie": {"rbf_max_samples": 2}},  # eviction keeps two boundary samples
        {"seed": -1},
        {"seed": 1.5},
        {"optimizer": {"kappa0": float("nan")}},
        {"optimizer": {"gamma": float("nan")}},
        {"aie": {"area_load": float("nan")}},
        {"aie": {"d_prime_fraction": float("nan")}},
        {"optimizer": {"f_threshold": float("nan")}},
        {"aie": {"surrogate_enabled": "no"}},
        {"fleet": {"theta_a": -1.0}},
        {"fleet": {"theta_b": -0.1}},
        {"fleet": {"theta_b": [0.1, 0.1, -0.1, 0.1, 0.1]}},
        # 24 samples spaced rbf_d_min apart: gram condition number 1e19
        {"aie": {"rbf_xi": 1.0, "rbf_d_min": 1e-5}},
        # the name is the stem of every output file
        {"name": "../x"},
        {"name": "a/b"},
        {"name": ""},
        {"name": 5},
        # stage lengths count whole intervals; true would pass as 1
        {"duration": 2.0, "optimizer": {"t_max": True}},
        {"optimizer": {"t_max": 1.5}},
        # a config is an object
        [],
        "abc",
        # no number, or none a float can hold
        {"grid": {"t_gov": "x"}},
        {"fleet": {"theta_a": None}},
        {"fleet": {"initial_soc": [0.5, "x", 0.5, 0.5, 0.5]}},
        {"duration": 10**400},
    ):
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2, data
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert "config ok" not in captured.out

    # the AIE always carries its learned correction: the old switch is
    # refused by name, whichever way it is set
    for value in (True, False):
        bad.write_text(json.dumps({"aie": {"surrogate_enabled": value}}))
        assert main(["validate", str(bad)]) == 2, value
        err = capsys.readouterr().err
        assert "unknown aie fields" in err, err
        assert "Traceback" not in err, err

    # values the battery, droop, plant, schedule, surrogate, kernel, cost
    # and mode rules refused one parameter at a time, now each the domain
    # of a config leaf; the message names the leaf
    for leaf, values in (
        ("fleet.capacity", (0.0, NAN, INF)),
        ("fleet.charge_limit", (NAN, INF)),
        ("fleet.discharge_limit", (NAN, INF)),
        ("fleet.eta_c", (0.0, NAN, INF)),
        ("fleet.eta_d", (NAN, INF)),
        ("fleet.theta_a", (NAN, INF)),
        ("fleet.theta_b", (NAN, INF)),
        ("grid.frr_deadband", (-0.01, NAN, INF)),
        ("grid.frr_slope", (-5.0, NAN, INF)),
        ("grid.inertia", (0.0, NAN, INF, -INF)),
        ("grid.damping", (NAN, INF, -INF)),
        ("grid.t_gov", (NAN, INF, -INF)),
        ("grid.t_turb", (NAN, INF, -INF)),
        ("grid.ramp_limit", (NAN, INF, -INF)),
        ("grid.saturation", (NAN, INF, -INF)),
        ("grid.k_i", (NAN, INF, -INF)),
        ("grid.k_i_area2", (NAN, INF, -INF)),
        ("grid.t_sync", (NAN, INF, -INF)),
        ("grid.inv_droops", ([20.0, NAN, 20.0], [20.0, INF, 20.0],
                             [20.0, -INF, 20.0])),
        ("optimizer.kappa0", (-0.1,)),
        ("optimizer.eps0", (1.5,)),
        ("optimizer.t_max", (0, True, 1.5, 900.0, INF)),
        ("aie.rbf_xi", (NAN, INF, 0.0, -1.0)),
        ("aie.rbf_d_min", (NAN, INF, 0.0, -1.0)),
        ("aie.rbf_max_samples", (0, 2, 3.0, True)),
        ("tau", (0.0,)),
    ):
        section, _, name = leaf.rpartition(".")
        for value in values:
            data = {section: {name: value}} if section else {name: value}
            bad.write_text(json.dumps(data))
            assert main(["validate", str(bad)]) == 2, data
            assert f"config error: {leaf}" in capsys.readouterr().err, data

    # counts the run would round or step through: refused with the leaf
    # named, before an overflow or a list of 1e299 plant-step loads
    for data, leaf in (
        ({"duration": 1e300, "tau": 1e-300, "dt_inner": 1e-300}, "duration"),
        ({"dt_inner": 1e-300}, "dt_inner"),
        ({"dt_inner": 1e-5}, "dt_inner"),  # 10000 steps per interval
    ):
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2, data
        assert f"config error: {leaf}" in capsys.readouterr().err, data

    # a duration that is not whole control intervals, which the run would
    # round half to even (0.25 s to 0.2 s): refused with duration and tau
    # named
    for duration in (0.25, 1.05, 2.45):
        bad.write_text(json.dumps({"duration": duration}))
        assert main(["validate", str(bad)]) == 2, duration
        err = capsys.readouterr().err
        assert "config error: duration" in err and "tau" in err, err

    # a net-load span or a kernel past a float's range: refused with both
    # leaves named, before the draw or the load-time probe overflows
    kernel = ("rbf_xi", "rbf_d_min")
    for data, pair in (
        ({"kind": "fluctuation", "duration": 1.0, "fluct_low": -1e308,
          "fluct_high": 1e308}, ("fluct_low", "fluct_high")),
        ({"aie": {"rbf_d_min": 10**300}}, kernel),  # no overlap at d_min
        ({"aie": {"rbf_xi": 1e300}}, kernel),
        # a hold so short that t // fluct_hold is infinite, of either kind
        ({"kind": "fluctuation", "fluct_hold": 5e-324, "duration": 1.0},
         ("fluct_hold", "duration")),
        ({"fluct_hold": 1e-310, "duration": 1.0}, ("fluct_hold", "duration")),
        # a damping estimate d_prime = area_load * d_prime_fraction = inf
        ({"aie": {"area_load": 1e308, "d_prime_fraction": 10}},
         ("aie.area_load", "aie.d_prime_fraction")),
    ):
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2, data
        err = capsys.readouterr().err
        assert all(leaf in err for leaf in pair), (data, err)
    # the longest hold a float holds still runs, in one window
    long_hold = tmp_path / "hold.json"
    long_hold.write_text(json.dumps({"kind": "fluctuation", "duration": 1.0,
                                     "fluct_hold": 1e308}))
    assert main(["run", str(long_hold), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()

    # relations between the fields of one section: the SoC box, the
    # stepsize decay window, and the per-battery weight lists
    for data, phrase in (
        ({"fleet": {"soc_min": 0.8, "soc_max": 0.2}}, "soc_min"),
        ({"fleet": {"soc_min": 0.5, "soc_max": 0.5, "initial_soc": [0.5]}},
         "soc_min < soc_max"),
        ({"optimizer": {"alpha": 0.8, "beta": 0.7}}, "alpha <= beta"),
        ({"optimizer": {"alpha": 0.3}}, "2*beta - 3*alpha"),
        ({"fleet": {"theta_b": [0.1, 0.1]}},
         "fleet.theta_b lists 2 per-battery values for a fleet of 5"),
        ({"fleet": {"theta_a": [1.0] * 4, "initial_soc": [0.5] * 3}},
         "fleet.theta_a lists 4 per-battery values for a fleet of 3"),
    ):
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2, data
        err = capsys.readouterr().err
        assert "config error" in err and phrase in err, (data, err)
        assert "Traceback" not in err, data


def config_leaves(data, path=()):
    """The path of every leaf of a config dict and of each list item."""
    for key, value in data.items():
        if isinstance(value, dict):
            yield from config_leaves(value, path + (key,))
            continue
        yield path + (key,)
        if isinstance(value, list):
            yield from (path + (key, i) for i in range(len(value)))


def test_every_leaf_rejects_or_runs_each_odd_value(tmp_path, capsys):
    # the step starts at once, so odd plant and fleet values meet it
    cfg = ScenarioConfig(name="fuzz", duration=0.5, step_time=0.0)
    base = json.loads(json.dumps(cfg.to_dict()))
    path, out = tmp_path / "fuzz.json", str(tmp_path / "out")
    leaves = list(config_leaves(base))
    assert len(leaves) == 56  # 48 leaves, 5 initial SoCs, 3 droop slopes
    counts = {"rejected": 0, "ran": 0, "numeric": 0}
    for leaf in leaves:
        name = [k for k in leaf if isinstance(k, str)][-1]
        *outer, last = leaf
        for value in (NAN, INF, -INF, 0, -1, 1e300, True, 1.5):
            data = copy.deepcopy(base)
            node = data
            for key in outer:
                node = node[key]
            default, node[last] = node[last], value
            path.write_text(json.dumps(data))
            code = main(["validate", str(path)])
            err = capsys.readouterr().err
            if code == 2:
                assert name in err, (leaf, value, err)
                counts["rejected"] += 1
                continue
            assert code == 0, (leaf, value)
            # only a choice between true and false takes true
            assert value is not True or type(default) is bool, leaf
            if leaf == ("duration",) and value == 1e300:
                continue  # its record cannot be held: see the test below
            code = main(["run", str(path), "--out", out])
            capsys.readouterr()
            assert code in (0, 3), (leaf, value, code)
            counts["ran" if code == 0 else "numeric"] += 1
    assert sum(counts.values()) == 56 * 8 - 1, counts
    assert counts["rejected"] > counts["ran"] > 0, counts


def test_regret_default_horizons_span_a_decade():
    args = build_parser().parse_args(["regret", "cfg.json"])
    assert args.horizons == sorted(args.horizons)
    assert args.horizons[-1] >= 10 * args.horizons[0]


def test_run_writes_trace_and_curves(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", cfg_path, "--out", str(out), "--curves"]) == 0
    printed = capsys.readouterr().out
    assert (out / "clirun.csv").exists()
    assert (out / "fig5a.csv").exists()
    assert (out / "fig5b.svg").exists()
    assert "nadir" in printed


def test_run_and_validate_load_no_numpy(cfg_path, tmp_path):
    # the studies load per command and the printed line reads float
    # columns; --oracle takes the same path
    code = (
        "import sys\n"
        "from orra.cli import main\n"
        f"status = [main(['validate', {cfg_path!r}]), main(['run', "
        f"{cfg_path!r}, '--oracle', '--out', {str(tmp_path)!r}])]\n"
        "print(status, 'numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    lines = out.stdout.splitlines()
    assert lines[-1] == "[0, 0] False"
    assert lines[-2].startswith("nadir -0.0")
    assert (tmp_path / "clirun.csv").exists()


def test_out_dir_env_fallback(cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("ORRA_OUT_DIR", str(target))
    assert main(["run", cfg_path]) == 0
    assert (target / "clirun.csv").exists()


def test_unusable_out_dir_exits_before_the_run(cfg_path, tmp_path,
                                              monkeypatch, capsys):
    steps = []
    real_step = ScenarioRunner.step

    def counted(self, k):
        steps.append(k)
        real_step(self, k)

    monkeypatch.setattr(ScenarioRunner, "step", counted)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert main(["run", cfg_path, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "file error" in err and "Traceback" not in err
    monkeypatch.setenv("ORRA_OUT_DIR", str(taken))
    assert main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "file error" in err and "Traceback" not in err
    # refused before the first interval; nothing written or overwritten
    assert steps == []
    assert taken.read_text() == "a file, not a directory\n"
    assert not list(tmp_path.rglob("clirun.csv"))


def test_verify_cli(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", cfg_path, "--out", str(out)])
    capsys.readouterr()
    trace = str(out / "clirun.csv")
    assert main(["verify", trace]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]

    lines = open(trace).read().splitlines()
    header = lines[1].split(",")
    cells = lines[5].split(",")
    cells[header.index("soc_1")] = "1.7"
    lines[5] = ",".join(cells)
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(broken)]) == 3

    # unparsable traces are reported, not raised
    broken.write_text("")
    assert main(["verify", str(broken)]) == 3
    capsys.readouterr()

    # a well-formed header with no agent columns, which no config writes
    header, _ = trace_columns(0, 3)
    broken.write_text(f"# schema: {TRACE_SCHEMA}\n" + ",".join(header)
                      + "\n" + ",".join(["0"] * len(header)) + "\n")
    assert main(["verify", str(broken)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"] and not report["checks"]["columns"]["ok"]
    assert "0 agents" in report["checks"]["columns"]["detail"]

    # a path that cannot be read as a file is a file problem
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "file error" in err and "Traceback" not in err

    # a box no SoC comparison can use is refused, not applied: NaN would
    # pass every row, an inverted box fail every row
    for box in (["--soc-min", "nan"], ["--soc-max", "nan"],
                ["--soc-min", "0.9", "--soc-max", "0.1"]):
        assert main(["verify", trace] + box) == 2, box
        captured = capsys.readouterr()
        assert "config error" in captured.err, box
        assert "need 0 <= soc_min < soc_max <= 1" in captured.err, box
        assert "Traceback" not in captured.err and not captured.out, box


def test_verify_cli_takes_the_runs_soc_box(tmp_path, capsys):
    cfg = tmp_path / "low.json"
    cfg.write_text(json.dumps({
        "name": "low", "duration": 5.0,
        "fleet": {"soc_min": 0.1, "initial_soc": [0.15, 0.45, 0.5, 0.55,
                                                  0.65]},
    }))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    trace = str(out / "low.csv")
    # the default box is the shipped fleet's, [0.2, 0.8]
    args = build_parser().parse_args(["verify", trace])
    assert (args.soc_min, args.soc_max) == (0.2, 0.8) == (
        FleetConfig.soc_min, FleetConfig.soc_max)
    assert main(["verify", trace]) == 3
    report = json.loads(capsys.readouterr().out)
    assert not report["checks"]["soc_bounds"]["ok"]
    assert main(["verify", trace, "--soc-min", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_run_with_an_interval_longer_than_the_settle_window(tmp_path,
                                                            capsys):
    # 30 s intervals, ten rows; |df| is still 0.017 Hz on the last row
    for name, extra in (("late", {"step_time": 290.0}), ("early", {})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"name": name, "tau": 30.0,
                                   "dt_inner": 0.1, "duration": 300.0,
                                   **extra}))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "; settle inf s;" in capsys.readouterr().out, name


@pytest.mark.parametrize("droops", [[20.0, 20.0], [20.0, 15.0, 25.0, 20.0]])
def test_any_generator_count_runs_and_verifies(droops, tmp_path, capsys):
    # AGC splits each area's error evenly over however many slopes it has
    cfg = tmp_path / "gens.json"
    cfg.write_text(json.dumps({"name": "gens", "duration": 1.0,
                               "step_time": 0.0,
                               "grid": {"inv_droops": droops}}))
    assert main(["validate", str(cfg)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    trace = str(out / "gens.csv")
    with open(trace) as fh:
        header = fh.read().splitlines()[1].split(",")
    assert [c for c in header if c.startswith("p_m_cg")] == [
        f"p_m_cg{i}" for i in range(1, len(droops) + 1)
    ]
    assert main(["verify", trace]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]


def test_ablation_cli(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["ablation", cfg_path, "--out", str(out), "--curves"]) == 0
    printed = capsys.readouterr().out
    assert (out / "clirun_ablation.json").exists()
    assert (out / "fig6.csv").exists()
    traces = [p.name for p in out.iterdir() if p.suffix == ".csv"]
    assert {
        "clirun_aie_bess.csv", "clirun_ace_bess.csv",
        "clirun_aie_nobess.csv", "clirun_ace_nobess.csv",
    } <= set(traces)
    assert printed.count("nadir") == 4


def test_one_interval_run_and_ablation(tmp_path, capsys):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"duration": 0.1}))
    assert main(["validate", str(cfg)]) == 0
    for command in ("run", "ablation"):
        for curves in ([], ["--curves"]):
            out = tmp_path / f"{command}{len(curves)}"
            argv = [command, str(cfg), "--out", str(out)] + curves
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            assert re.search(r"settle +0\.0 s", captured.out), argv


def test_regret_cli(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["regret", cfg_path, "--horizons", "5", "10", "20", "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert (out / "clirun_regret.json").exists()
    assert "certificates" in printed

    assert main(
        ["regret", cfg_path, "--horizons", "20", "5", "--out", str(out)]
    ) == 2


def test_run_rejects_bad_topology_and_capacity(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"topology_edges": [[0, 1], [1, 7]]}))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "out of range" in capsys.readouterr().err

    bad.write_text(json.dumps({"fleet": {"capacity": -2.0}}))
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 2
    assert "capacity must be positive" in capsys.readouterr().err


def test_run_refuses_a_record_too_large_to_hold(tmp_path, capsys):
    # 1e301 rows: numpy refuses the shape before allocating anything
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"duration": 1e300}))
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "1e+301 control intervals" in capsys.readouterr().err
    # refused before the run: the output directory is not even made
    assert not out.exists()


def test_ablation_refuses_a_record_too_large_to_hold(tmp_path, capsys):
    # the first arm's record is refused before any output is made
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"duration": 1e300}))
    out = tmp_path / "out"
    assert main(["ablation", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1e+301 control intervals" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_ablation_arm_divergence_exits_numeric(tmp_path, capsys,
                                               monkeypatch):
    # two CPUs: the arms run in forked workers, and the first arm's error
    # crosses back into this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: None)
    data = {"duration": 5.0, "step_time": 0.0, "grid": {"inertia": 1e-300}}
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps(data))
    assert main(["ablation", str(cfg), "--out", str(tmp_path / "a")]) == 3
    err = capsys.readouterr().err
    assert multiprocessing.active_children() == []
    # the message `orra run` prints for the first arm, AIE with the fleet
    arm = tmp_path / "arm.json"
    arm.write_text(json.dumps(dict(data, signal="AIE", bess_enabled=True)))
    assert main(["run", str(arm), "--out", str(tmp_path / "r")]) == 3
    assert err == capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite value in ")


def test_finite_divergence_exits_numeric(tmp_path, capsys):
    # df runs past any grid's range without overflowing: exit 3, not 0
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"duration": 3.0, "step_time": 0.0,
                               "step_mw": 1e6}))
    for cmd in ("run", "ablation"):
        assert main([cmd, str(cfg), "--out", str(tmp_path / cmd)]) == 3, cmd
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: df reached "), (cmd, err)
        assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_dual_bound_overflow_exits_numeric(tmp_path, capsys):
    # gamma 1e308 lies in its domain, but the dual bound it sets overflows
    # near 52 s of the step: exit 3, not a trace of infinite bounds
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps({"name": "g", "duration": 60.0,
                               "step_time": 1.0,
                               "optimizer": {"gamma": 1e308}}))
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    for cmd in ("run", "ablation"):
        assert main([cmd, str(cfg), "--out", str(tmp_path / cmd)]) == 3, cmd
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the dual bound ("), err
        assert "optimizer.gamma 1e+308" in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_every_error_survives_pickling():
    # an error raised in a forked worker reaches this process pickled
    found = {}
    for mod in pkgutil.iter_modules(orra.__path__, "orra."):
        for obj in vars(importlib.import_module(mod.name)).values():
            if (isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == mod.name):
                found[obj.__name__] = obj
    assert sorted(found) == [
        "ConfigError", "GridInstabilityError", "IllConditioningError",
        "IncompleteTraceError", "InfillViolationError", "SocViolationError",
        "TopologyError",
    ]
    for cls in found.values():
        err = cls("df")
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)


def test_run_takes_a_large_integer_setting(tmp_path):
    # an integer a float can hold is a number like any other
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"duration": 0.5, "kind": "fluctuation",
                               "fluct_hold": 10**300}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_run_ill_conditioned_surrogate_exits_numeric(tmp_path, capsys,
                                                   monkeypatch):
    # the load-time probe rejects these settings; with it blinded, the
    # refit in the run is the backstop
    from orra import aie

    monkeypatch.setattr(aie, "packed_condition", lambda *args: 1.0)
    cfg = tmp_path / "ill.json"
    cfg.write_text(json.dumps({
        "duration": 12.0, "aie": {"rbf_xi": 1.0, "rbf_d_min": 1e-5},
    }))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 3
    assert "gram condition number" in capsys.readouterr().err


def test_oracle_needs_positive_wear_weight(tmp_path, capsys):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"duration": 2.0, "fleet": {"theta_b": 0.0}}))
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for argv in (["run", str(cfg), "--oracle"], ["regret", str(cfg)]):
        assert main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert "theta_b must be positive" in err
        assert "Traceback" not in err
    # the refusal comes before the run: nothing is written
    assert not out.exists() or not any(out.iterdir())


def test_run_soc_violation_exits_numeric(cfg_path, tmp_path, monkeypatch,
                                         capsys):
    from orra import cli
    from orra.bess import SocViolationError

    def broken(*args, **kwargs):
        raise SocViolationError("soc 0.812000000 outside [0.2, 0.8]")

    monkeypatch.setattr(cli, "run_scenario", broken)
    assert main(["run", cfg_path, "--out", str(tmp_path)]) == 3
    assert "outside [0.2, 0.8]" in capsys.readouterr().err
