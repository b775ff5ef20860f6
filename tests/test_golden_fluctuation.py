"""Behaviour lock: a pinned 120 s net-load run that closes rainflow cycles
and evicts surrogate samples.

A 5 s hold and an 8-sample surrogate cap give 196 optimizer stages and 195
evictions, and every battery closes cycles, so the run reaches the
rainflow and eviction paths that the step golden never does.

The fixture was written by this snippet, run from the repository root:

    import gzip, shutil, tempfile
    from dataclasses import replace
    import numpy as np
    from orra.scenario import ScenarioConfig, ScenarioRunner

    cfg = ScenarioConfig.from_json("configs/fluctuation.json")
    cfg = replace(cfg, duration=120.0, fluct_hold=5.0,
                  aie=replace(cfg.aie, rbf_max_samples=8))
    with tempfile.TemporaryDirectory() as tmp:
        res = ScenarioRunner(cfg).run(out_dir=tmp)
        with open(res.trace_path, "rb") as src, gzip.GzipFile(
            "tests/data/golden_fluct_120s.csv.gz", "wb", mtime=0
        ) as dst:
            shutil.copyfileobj(src, dst)
    np.savez_compressed(
        "tests/data/golden_fluct_120s_loss.npz",
        lifetime_loss=[b.lifetime_loss for b in res.fleet.batteries],
    )

Any change to the fixture needs a CHANGES.md entry saying why.
"""
import gzip
import os
from dataclasses import replace

import numpy as np

from orra.scenario import ScenarioConfig, ScenarioRunner
from test_golden import DATA, read_trace

CONFIG = os.path.join(DATA, os.pardir, os.pardir, "configs",
                      "fluctuation.json")


def test_fluctuation_run_matches_golden_trace(tmp_path):
    cfg = ScenarioConfig.from_json(CONFIG)
    cfg = replace(cfg, duration=120.0, fluct_hold=5.0,
                  aie=replace(cfg.aie, rbf_max_samples=8))
    res = ScenarioRunner(cfg).run(out_dir=str(tmp_path))

    with gzip.open(os.path.join(DATA, "golden_fluct_120s.csv.gz"), "rt") as fh:
        want = read_trace(fh.read().splitlines())
    with open(res.trace_path) as fh:
        got = read_trace(fh.read().splitlines())
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2].shape == want[2].shape
    header = want[1].split(",")
    for k, name in enumerate(header):
        np.testing.assert_allclose(
            got[2][:, k], want[2][:, k], rtol=1e-9, atol=1e-9, err_msg=name
        )
    assert len(res.stages) == 196

    loss = np.load(os.path.join(DATA, "golden_fluct_120s_loss.npz"))
    booked = [b.lifetime_loss for b in res.fleet.batteries]
    assert min(booked) > 0.0  # every battery closed a cycle
    np.testing.assert_allclose(booked, loss["lifetime_loss"], rtol=1e-9,
                               atol=0)
