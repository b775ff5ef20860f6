"""Behaviour lock: the two ablation arms the step golden does not reach.

A 60 s step run on the classic control error (shares sigma_i*ACE, no
surrogate) and a 60 s step run with the fleet sitting out (AIE with the
surrogate, no dispatch). Neither runs the reference solve.

The fixtures were written by this snippet, run from the repository root:

    import gzip, shutil, tempfile
    from dataclasses import replace
    from orra.scenario import ScenarioConfig, ScenarioRunner

    base = replace(ScenarioConfig.from_json("configs/step_event.json"),
                   duration=60.0)
    for fixture, cfg in (
        ("golden_step_ace_60s.csv.gz", replace(base, signal="ACE")),
        ("golden_step_fleet_off_60s.csv.gz",
         replace(base, bess_enabled=False)),
    ):
        with tempfile.TemporaryDirectory() as tmp:
            res = ScenarioRunner(cfg).run(out_dir=tmp)
            with open(res.trace_path, "rb") as src, gzip.GzipFile(
                "tests/data/" + fixture, "wb", mtime=0
            ) as dst:
                shutil.copyfileobj(src, dst)

Any change to the fixtures needs a CHANGES.md entry saying why.
"""
import gzip
import os
from dataclasses import replace

import numpy as np
import pytest

from orra.scenario import ScenarioConfig, ScenarioRunner
from test_golden import CONFIG, DATA, read_trace


@pytest.mark.parametrize("fixture,change", [
    ("golden_step_ace_60s.csv.gz", {"signal": "ACE"}),
    ("golden_step_fleet_off_60s.csv.gz", {"bess_enabled": False}),
], ids=["ace", "fleet_off"])
def test_step_arm_matches_golden_trace(fixture, change, tmp_path):
    cfg = replace(ScenarioConfig.from_json(CONFIG), duration=60.0, **change)
    res = ScenarioRunner(cfg).run(out_dir=str(tmp_path))

    with gzip.open(os.path.join(DATA, fixture), "rt") as fh:
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
