"""Study drivers: metrics, ablation, regret report, exports, validation."""
import csv
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
import xml.dom.minidom

import numpy as np
import pytest

from orra.scenario import (
    ConfigError,
    FleetConfig,
    ScenarioConfig,
    ScenarioRunner,
    verify_trace,
)
from orra.studies import (
    arm_label,
    export_ablation_curves,
    export_fluctuation_curves,
    export_step_event_curves,
    nadir,
    run_ablation,
    run_regret_study,
    settle_time,
    stage_cost_gaps,
    stage_lemma_checks,
)


def test_settle_time_pulse():
    t = np.arange(0.0, 30.0, 0.1)
    df = np.where((t >= 5.0) & (t < 8.0), 0.02, 0.0)
    assert settle_time(t, df) == pytest.approx(8.0)
    assert settle_time(t, np.zeros_like(t)) == 0.0
    # re-entering the band never long enough to settle
    df = np.where(t >= 5.0, 0.02, 0.0)
    assert settle_time(t, df) == float("inf")


def test_settle_time_of_one_sample():
    # a one-interval run: never left the band, or never back inside it
    assert settle_time([0.0], [0.001]) == 0.0
    assert settle_time([0.0], [-0.02]) == float("inf")


def test_settle_time_with_intervals_longer_than_its_window():
    # 30 s intervals: one sample inside the band spans the 10 s window
    t = [30.0, 60.0, 90.0, 120.0]
    assert settle_time(t, [0.0, 0.02, 0.03, 0.001]) == 120.0
    assert settle_time(t, [0.0, 0.02, 0.001, 0.02]) == 90.0
    assert settle_time(t, [0.0, 0.02, 0.03, 0.01]) == float("inf")


def test_settle_time_restarts_on_reentry():
    t = np.arange(0.0, 40.0, 0.1)
    df = np.zeros_like(t)
    df[(t >= 5.0) & (t < 8.0)] = 0.02
    df[(t >= 12.0) & (t < 13.0)] = 0.02  # breaks the first quiet stretch
    assert settle_time(t, df) == pytest.approx(13.0)


def test_nadir_is_signed_extreme():
    assert nadir([0.01, -0.05, 0.02]) == -0.05
    assert nadir([0.06, -0.05, 0.0]) == 0.06


def test_arm_labels():
    assert arm_label("AIE", True) == "aie_bess"
    assert arm_label("ACE", False) == "ace_nobess"


@pytest.fixture(scope="module")
def short_oracle_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("runs"))
    cfg = ScenarioConfig(name="short", duration=30.0)
    result = ScenarioRunner(cfg, oracle_every=True).run(out_dir=out)
    return cfg, result


def test_ablation_shares_the_disturbance(tmp_path):
    cfg = ScenarioConfig(name="abl", kind="fluctuation", duration=15.0)
    results, summaries = run_ablation(cfg, out_dir=str(tmp_path))
    assert len(summaries) == 4
    dist_cols = []
    for s in summaries:
        with open(s.trace_path) as fh:
            fh.readline()
            reader = csv.DictReader(fh)
            dist_cols.append(tuple(row["dist"] for row in reader))
        assert np.isfinite(s.nadir_hz)
        assert s.signal_rms >= 0.0
    assert len(set(dist_cols)) == 1  # identical seed, identical net load
    summary_path = tmp_path / "abl_ablation.json"
    entries = json.load(open(summary_path))
    assert [e["signal"] for e in entries] == ["AIE", "ACE", "AIE", "ACE"]
    # fleet participation shrinks the nadir on this shared disturbance
    by_arm = {(e["signal"], e["bess_enabled"]): e for e in entries}
    assert abs(by_arm[("AIE", True)]["nadir_hz"]) < abs(
        by_arm[("AIE", False)]["nadir_hz"]
    )


def ablation_on(cpus, monkeypatch, cfg, out, pin=lambda pid, mask: None):
    """run_ablation as seen by a process allowed `cpus` CPUs, a count or
    the set itself; each forked worker pins itself through `pin`."""
    allowed = set(range(cpus)) if isinstance(cpus, int) else set(cpus)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed)
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    results, summaries = run_ablation(cfg, out_dir=str(out))
    assert multiprocessing.active_children() == []
    return results, summaries


def same_traces(a: dict, b: dict) -> bool:
    """Whether two ablations wrote the same bytes for every arm."""
    assert list(a) == list(b)
    for arm in a:
        with open(a[arm].trace_path, "rb") as fa, \
                open(b[arm].trace_path, "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def test_parallel_ablation_matches_in_process(tmp_path, monkeypatch):
    # fluctuating load: rainflow cycles close and the surrogate fills
    cfg = ScenarioConfig(name="par", kind="fluctuation", duration=90.0)
    one, one_s = ablation_on(1, monkeypatch, cfg, tmp_path / "one")
    two, two_s = ablation_on(2, monkeypatch, cfg, tmp_path / "two")
    assert same_traces(one, two)
    for arm in one:
        a, b = one[arm], two[arm]
        assert [repr(x.lifetime_loss) for x in a.fleet.batteries] == [
            repr(x.lifetime_loss) for x in b.fleet.batteries], arm
        if a.surrogate is None:
            assert b.surrogate is None
        else:
            assert a.surrogate.sample_df == b.surrogate.sample_df, arm
            assert a.surrogate.sample_dP == b.surrogate.sample_dP, arm
        np.testing.assert_array_equal(a.table, b.table, err_msg=str(arm))
    assert any(x.lifetime_loss > 0 for x in one[("AIE", True)].fleet.batteries)
    assert len(one[("AIE", True)].surrogate.sample_df) > 2
    for s, t in zip(one_s, two_s):
        assert s.trace_path != t.trace_path
        s.trace_path = t.trace_path
    assert one_s == two_s


def test_each_arm_worker_pins_to_its_own_cpu(tmp_path, monkeypatch):
    # forked workers share this file: each appends its pid and its mask
    log = tmp_path / "pins"

    def pin(pid, mask):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {pid} {sorted(mask)}\n")

    cfg = ScenarioConfig(name="pin", duration=5.0, step_time=1.0)
    for allowed in ({3, 7}, {0, 1, 2, 5}):
        log.write_text("")
        ablation_on(allowed, monkeypatch, cfg, tmp_path / "a", pin)
        calls = [line.split(" ", 2) for line in log.read_text().splitlines()]
        # one call per worker, from the worker, for itself, each pinned to
        # one CPU of the allowed set and no two to the same
        assert len(calls) == len(allowed)
        assert len({int(p) for p, _, _ in calls}) == len(allowed)
        assert os.getpid() not in {int(p) for p, _, _ in calls}
        assert all(who == "0" for _, who, _ in calls)
        assert sorted(mask for _, _, mask in calls) == sorted(
            f"[{cpu}]" for cpu in allowed)


def test_ablation_finishes_when_pinning_is_refused(tmp_path, monkeypatch):
    def refuse(pid, mask):
        raise OSError(22, "Invalid argument")

    cfg = ScenarioConfig(name="refused", duration=5.0, step_time=1.0)
    one, _ = ablation_on(1, monkeypatch, cfg, tmp_path / "one")
    two, _ = ablation_on(2, monkeypatch, cfg, tmp_path / "two", refuse)
    assert same_traces(one, two)


def test_importing_the_studies_starts_no_process_machinery():
    code = "import sys, orra.studies; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"


def test_stage_checks_on_short_run(short_oracle_run):
    cfg, result = short_oracle_run
    checks = stage_lemma_checks(result, cfg.optimizer.gamma)
    assert checks, "expected at least one stage of length >= 2"
    for c in checks:
        assert c["lemma1"].holds
        assert c["lemma2"].holds
    gaps = stage_cost_gaps(result)
    assert {g["stage"] for g in gaps} == {s for s, _, _ in result.stages}
    for g in gaps:
        assert g["ratio"] >= 0.0


def test_stage_checks_need_oracle_logs():
    r = ScenarioRunner(ScenarioConfig(name="x", duration=2.0)).run(
        write_trace=False
    )
    with pytest.raises(ValueError):
        stage_lemma_checks(r, 10.0)
    with pytest.raises(ValueError):
        stage_cost_gaps(r)


def test_regret_study_report(tmp_path):
    cfg = ScenarioConfig(name="reg", duration=30.0)
    # a numpy integer is a horizon like any other
    result, report = run_regret_study(cfg, [5, 10, np.int64(20), 1000],
                                      out_dir=str(tmp_path))
    assert report["trace"].endswith("reg.csv")
    assert report["skipped_horizons"] == [1000]
    assert [e["horizon"] for e in report["regret"]] == [5, 10, 20]
    assert report["stage_count"] == len(result.stages)
    for c in report["certificates"]:
        assert c["lemma1"]["holds"] and c["lemma2"]["holds"]
    on_disk = json.load(open(tmp_path / "reg_regret.json"))
    assert on_disk == report


def test_regret_study_rejects_bad_horizons(tmp_path):
    cfg = ScenarioConfig(name="reg2", duration=5.0)
    with pytest.raises(ConfigError):
        run_regret_study(cfg, [50, 20], out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_regret_study(cfg, [], out_dir=str(tmp_path))
    # a horizon is a whole interval count: nothing is rounded away
    with pytest.raises(ConfigError, match="horizon 10.9 "):
        run_regret_study(cfg, [10.9, 20], out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="horizon True "):
        run_regret_study(cfg, [True, 20], out_dir=str(tmp_path))
    disabled = ScenarioConfig(name="reg3", duration=5.0, bess_enabled=False)
    with pytest.raises(ConfigError):
        run_regret_study(disabled, [10], out_dir=str(tmp_path))


def csv_header_and_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], len(rows) - 1


def svg_labels(path):
    """A chart's title, legend labels and axis labels; tick labels left out."""
    doc = xml.dom.minidom.parse(path)  # well-formed markup
    return [el.firstChild.data for el in doc.getElementsByTagName("text")
            if el.getAttribute("font-size") != "11"]


def check_artifacts(paths, out, result, expected):
    """`expected` lists (file name, CSV header or SVG labels) in order."""
    assert paths == [os.path.join(out, name) for name, _ in expected]
    for path, (name, want) in zip(paths, expected):
        if name.endswith(".csv"):
            assert csv_header_and_rows(path) == (want, len(result.time)), name
        else:
            assert svg_labels(path) == want, name


def test_curve_exports(short_oracle_run, tmp_path):
    _, oracle = short_oracle_run
    assert oracle.d.shape[1] == 5
    ids = range(1, 6)
    agents = [f"agent {i}" for i in ids]
    fig5 = [
        ("fig5a.csv", ["time_s"] + [f"net_power_{i}_mw" for i in ids]),
        ("fig5a.svg", ["Per-agent net power"] + agents
         + ["time (s)", "net power (MW)"]),
        ("fig5b.csv", ["time_s"] + [f"marginal_{i}" for i in ids]),
        ("fig5b.svg", ["Active-coordinate marginal wear cost"] + agents
         + ["time (s)", "marginal cost"]),
    ]
    fig5c = [
        ("fig5c.csv", ["time_s", "cost_online", "cost_reference"]),
        ("fig5c.svg", ["Instantaneous cost, online vs centralized reference",
                       "online", "reference", "time (s)", "cost"]),
    ]
    out = str(tmp_path / "oracle")
    check_artifacts(export_step_event_curves(oracle, out), out, oracle,
                    fig5 + fig5c)

    plain = ScenarioRunner(
        ScenarioConfig(name="plain", duration=10.0)
    ).run(write_trace=False)
    assert plain.f_oracle is None
    out = str(tmp_path / "plain")
    check_artifacts(export_step_event_curves(plain, out), out, plain, fig5)
    assert sorted(os.listdir(out)) == [name for name, _ in fig5]

    fl = ScenarioRunner(
        ScenarioConfig(name="fl", kind="fluctuation", duration=10.0)
    ).run(write_trace=False)
    out = str(tmp_path / "fl")
    check_artifacts(export_fluctuation_curves(fl, out), out, fl, [
        ("fig7.csv", ["time_s", "net_load_mw", "fleet_power_mw"]
         + [f"soc_{i}" for i in ids]),
        ("fig7_power.svg", ["Net-load fluctuation and fleet response",
                            "net load", "fleet power", "time (s)",
                            "power (MW)"]),
        ("fig7_soc.svg", ["State of charge under fluctuating net load"]
         + [f"battery {i}" for i in ids] + ["time (s)", "SoC"]),
    ])

    # the arms in the order run_ablation returns them
    arms = {arm: fl for arm in [("AIE", True), ("ACE", True),
                                ("AIE", False), ("ACE", False)]}
    labels = ["aie_bess", "ace_bess", "aie_nobess", "ace_nobess"]
    out = str(tmp_path / "abl")
    check_artifacts(export_ablation_curves(arms, out), out, fl, [
        ("fig6.csv", ["time_s"] + [f"df1_{k}_hz" for k in labels]),
        ("fig6.svg", ["Frequency deviation by signal and fleet participation"]
         + labels + ["time (s)", "df area 1 (Hz)"]),
    ])


def test_figure_csv_bytes(short_oracle_run, tmp_path):
    # a header line, then one row per interval of each series' %.10g,
    # every line ended by \r\n
    _, result = short_oracle_run
    out = str(tmp_path)
    export_step_event_curves(result, out)
    lines = ["time_s,cost_online,cost_reference"] + [
        ",".join("%.10g" % v for v in row)
        for row in zip(result.time, result.f_dist, result.f_oracle)
    ]
    with open(os.path.join(out, "fig5c.csv"), "rb") as fh:
        assert fh.read() == "".join(f"{ln}\r\n" for ln in lines).encode()


def test_verify_trace_passes_and_catches_corruption(short_oracle_run, tmp_path):
    _, result = short_oracle_run
    report = verify_trace(result.trace_path)
    assert report["passed"], report
    assert report["rows"] == len(result.time)
    # a passing row check keeps its detail
    bounded = int((result.bound > 0).sum())
    assert {name: report["checks"][name]["detail"] for name in ROW_CHECKS} == {
        name: {"uniform_time": "step 0.1 s",
               "multiplier_bound": f"{bounded} bounded rows"}.get(name, "")
        for name in ROW_CHECKS}

    lines = open(result.trace_path).read().splitlines()
    header = lines[1].split(",")
    soc_col = header.index("soc_0")

    bad = lines[:]
    cells = bad[10].split(",")
    cells[soc_col] = "0.95"
    bad[10] = ",".join(cells)
    p = tmp_path / "bad_soc.csv"
    p.write_text("\n".join(bad) + "\n")
    rep = verify_trace(str(p))
    assert not rep["passed"]
    assert not rep["checks"]["soc_bounds"]["ok"]

    bad = lines[:]
    bad[0] = "# schema: other-v9"
    p = tmp_path / "bad_schema.csv"
    p.write_text("\n".join(bad) + "\n")
    assert not verify_trace(str(p))["checks"]["schema"]["ok"]

    d_col = header.index("d_2")
    c_col = header.index("c_2")
    bad = lines[:]
    cells = bad[20].split(",")
    cells[d_col] = "0.4"
    cells[c_col] = "0.3"
    bad[20] = ",".join(cells)
    p = tmp_path / "bad_dc.csv"
    p.write_text("\n".join(bad) + "\n")
    assert not verify_trace(str(p))["checks"]["one_sided_dispatch"]["ok"]

    # the runner writes 1 (discharge) or 0 (charge, or fleet off), never -1
    bad = lines[:]
    cells = bad[30].split(",")
    cells[header.index("mode_1")] = "-1"
    bad[30] = ",".join(cells)
    p = tmp_path / "bad_mode.csv"
    p.write_text("\n".join(bad) + "\n")
    rep = verify_trace(str(p))
    assert not rep["passed"]
    assert not rep["checks"]["mode_codes"]["ok"]

    # unparsable files are reported as a failed parse check, not raised
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    rep = verify_trace(str(empty))
    assert not rep["passed"]
    assert not rep["checks"]["parse"]["ok"]

    bad = lines[:]
    cells = bad[7].split(",")
    cells[3] = "abc"
    bad[7] = ",".join(cells)
    p = tmp_path / "non_numeric.csv"
    p.write_text("\n".join(bad) + "\n")
    rep = verify_trace(str(p))
    assert not rep["passed"]
    assert not rep["checks"]["parse"]["ok"]
    assert "abc" in rep["checks"]["parse"]["detail"]

    bad = lines[:]
    bad[7] = bad[7].rsplit(",", 1)[0]
    p = tmp_path / "short_row.csv"
    p.write_text("\n".join(bad) + "\n")
    assert not verify_trace(str(p))["checks"]["parse"]["ok"]

    p = tmp_path / "binary.csv"
    p.write_bytes(b"\xff\xfe\x00garbage")
    assert not verify_trace(str(p))["checks"]["parse"]["ok"]


ACCOUNTING = ("p_bess_sum", "p_m_total_sum", "signal_total_sum", "h_balance",
              "stage_count", "stage_clock")
ROW_CHECKS = ("finite", "uniform_time", "soc_bounds", "one_sided_dispatch",
              "mode_codes", "multiplier_bound") + ACCOUNTING

# one edit of a row per case, as new cell values from the row's old ones,
# and the row checks the edited trace fails
ROW_EDITS = {
    "finite": (lambda r: {"df1": np.nan}, {"finite"}),
    "uniform_time": (lambda r: {"time": r["time"] + 0.03},
                     {"uniform_time"}),
    "soc_bounds": (lambda r: {"soc_0": 0.95}, {"soc_bounds"}),
    # d - c keeps its value, so every total still holds
    "one_sided_dispatch": (lambda r: {"d_0": 2 * r["d_0"], "c_0": r["d_0"]},
                           {"one_sided_dispatch"}),
    # the runner writes 1 (discharge) or 0 (charge, or fleet off), never -1
    "mode_codes": (lambda r: {"mode_1": -1.0}, {"mode_codes"}),
    "multiplier_bound": (lambda r: {"lam_0": 2 * r["dual_bound"]},
                         {"multiplier_bound"}),
    "p_bess_sum": (lambda r: {"p_bess": r["p_bess"] + 1e-6}, {"p_bess_sum"}),
    "p_m_total_sum": (lambda r: {"p_m_total": r["p_m_total"] + 1e-6},
                      {"p_m_total_sum"}),
    "signal_total_sum": (lambda r: {"signal_total": r["signal_total"] + 1e-6},
                         {"signal_total_sum"}),
    "h_balance": (lambda r: {"h_0": r["h_0"] + 1e-6}, {"h_balance"}),
    "stage_count": (lambda r: {"stage": r["stage"] + 1}, {"stage_count"}),
    "stage_clock": (lambda r: {"t_opt": r["t_opt"] + 1}, {"stage_clock"}),
    # a NaN fails finite, and only the checks it makes false
    "nan_time": (lambda r: {"time": np.nan}, {"finite", "uniform_time"}),
    "nan_soc": (lambda r: {"soc_0": np.nan}, {"finite"}),
    "nan_lam": (lambda r: {"lam_0": np.nan}, {"finite", "multiplier_bound"}),
    "nan_bound": (lambda r: {"dual_bound": np.nan}, {"finite"}),
    # the first step is judged like the others
    "time_row_1": (lambda r: {"time": r["time"] + 0.03}, {"uniform_time"}),
}
# cases that edit a fixed row, not one inside the run
FIXED_ROWS = {"time_row_1": 1}


@pytest.mark.parametrize("case", ROW_EDITS)
def test_every_row_check_names_its_first_violating_row(case, short_oracle_run,
                                                       tmp_path):
    _, result = short_oracle_run
    lines = open(result.trace_path).read().splitlines()
    header = lines[1].split(",")
    # a row inside the run where battery 0 discharges under a dual bound
    k = FIXED_ROWS[case] if case in FIXED_ROWS else next(
        k for k in range(2, len(result.time) - 1)
        if result.d[k, 0] > 0 and result.bound[k] > 0)
    cells = lines[2 + k].split(",")
    edit, fails = ROW_EDITS[case]
    for name, value in edit(dict(zip(header, map(float, cells)))).items():
        cells[header.index(name)] = repr(value)
    lines[2 + k] = ",".join(cells)
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n")
    rep = verify_trace(str(p))
    assert not rep["passed"]
    assert {name for name in ROW_CHECKS
            if not rep["checks"][name]["ok"]} == fails
    for name in fails:
        assert rep["checks"][name]["detail"] == f"first violation at row {k}"


def test_uniform_time_without_a_finite_step(short_oracle_run, tmp_path):
    # an all-NaN time column leaves no typical step: every step fails,
    # the first at row 1, and the median of no steps is never taken
    _, result = short_oracle_run
    lines = open(result.trace_path).read().splitlines()
    assert lines[1].split(",")[0] == "time"
    bad = lines[:2] + ["nan" + line[line.index(","):] for line in lines[2:]]
    p = tmp_path / "no_time.csv"
    p.write_text("\n".join(bad) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_trace(str(p))
    assert rep["checks"]["finite"]["detail"] == "first violation at row 0"
    assert rep["checks"]["uniform_time"]["detail"] == (
        "first violation at row 1")


@pytest.mark.parametrize("columns,value,failed", [
    (("time",), "inf", {"finite", "uniform_time"}),
    (("time",), "-inf", {"finite", "uniform_time"}),
    (("d_0", "c_0"), "inf",
     {"finite", "one_sided_dispatch", "p_bess_sum", "h_balance"}),
], ids=["inf_time", "minus_inf_time", "inf_d_and_c"])
def test_infinite_cells_are_reported_without_a_warning(columns, value,
                                                       failed, tmp_path):
    # rows 3 and 4 of a 3 s step trace hold infinite cells, so a time step
    # is inf - inf, and so is a sum of d and -c: each check that the cells
    # fail names row 3, and no arithmetic warns
    cfg = ScenarioConfig(name="inf_cells", duration=3.0, step_time=1.0)
    result = ScenarioRunner(cfg).run(out_dir=str(tmp_path))
    lines = open(result.trace_path).read().splitlines()
    header = lines[1].split(",")
    for k in (3, 4):
        cells = lines[2 + k].split(",")
        for name in columns:
            cells[header.index(name)] = value
        lines[2 + k] = ",".join(cells)
    p = tmp_path / "inf_cells.csv"
    p.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_trace(str(p))
    assert {name: check["detail"] for name, check in rep["checks"].items()
            if not check["ok"]} == dict.fromkeys(
                failed, "first violation at row 3")


def test_verify_trace_checks_the_traces_accounting(tmp_path):
    # each total of a row against its parts, and the stage counter and
    # clock against the resets; one corruption fails its one check. The
    # batteries weigh wear differently, so their dispatch differs
    cfg = ScenarioConfig(name="wear", duration=30.0, fleet=FleetConfig(
        theta_a=(400.0, 700.0, 1000.0, 1300.0, 1600.0)))
    result = ScenarioRunner(cfg).run(out_dir=str(tmp_path))
    report = verify_trace(result.trace_path)
    assert all(report["checks"][name]["ok"] for name in ACCOUNTING), report
    lines = open(result.trace_path).read().splitlines()
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]

    def failed(k, edit):
        """The accounting checks a trace fails once row k is edited; each
        names row k."""
        cells = rows[k][:]
        edit(cells)
        bad = lines[:2] + [",".join(r) for r in rows]
        bad[2 + k] = ",".join(cells)
        p = tmp_path / "bad.csv"
        p.write_text("\n".join(bad) + "\n")
        rep = verify_trace(str(p))
        names = {name for name in ACCOUNTING if not rep["checks"][name]["ok"]}
        for name in names:
            assert rep["checks"][name]["detail"] == (
                f"first violation at row {k}"), name
        return names

    d0, d1 = header.index("d_0"), header.index("d_1")
    k = next(k for k, r in enumerate(rows)
             if 0 < float(r[d0]) != float(r[d1]) > 0.1)

    def swap(cells):
        cells[d0], cells[d1] = cells[d1], cells[d0]

    # the fleet total is the same; each agent's balance is not
    assert failed(k, swap) == {"h_balance"}

    cg = header.index("p_m_cg2")
    k = next(k for k, r in enumerate(rows) if abs(float(r[cg])) > 0.1)

    def perturb(cells):
        cells[cg] = repr(float(cells[cg]) + 1e-6)

    assert failed(k, perturb) == {"p_m_total_sum"}

    reset = header.index("reset")
    k = next(k for k, r in enumerate(rows) if k > 0 and r[reset] == "1")

    def drop(cells):
        cells[reset] = "0"

    assert failed(k, drop) == {"stage_count", "stage_clock"}


def test_verify_trace_skips_the_optimizer_checks_without_the_fleet(
        tmp_path):
    cfg = ScenarioConfig(name="off", duration=20.0, bess_enabled=False)
    result = ScenarioRunner(cfg).run(out_dir=str(tmp_path))
    report = verify_trace(result.trace_path)
    assert report["passed"], report
    for name in ("h_balance", "stage_count", "stage_clock"):
        assert report["checks"][name] == {"ok": True,
                                          "detail": "skipped: fleet off"}
    for name in ("p_bess_sum", "p_m_total_sum", "signal_total_sum"):
        assert report["checks"][name] == {"ok": True, "detail": ""}
