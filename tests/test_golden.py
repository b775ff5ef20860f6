"""Behaviour lock: a pinned 60 s step run with the reference solve on.

The fixture was written by this snippet, run from the repository root:

    import gzip, shutil, tempfile
    from dataclasses import replace
    import numpy as np
    from orra.scenario import ScenarioConfig, ScenarioRunner

    cfg = replace(ScenarioConfig.from_json("configs/step_event.json"),
                  duration=60.0)
    with tempfile.TemporaryDirectory() as tmp:
        res = ScenarioRunner(cfg, oracle_every=True).run(out_dir=tmp)
        with open(res.trace_path, "rb") as src, gzip.GzipFile(
            "tests/data/golden_step_60s.csv.gz", "wb", mtime=0
        ) as dst:
            shutil.copyfileobj(src, dst)
    np.savez_compressed("tests/data/golden_step_60s_oracle.npz",
                        f_oracle=res.f_oracle, u_star=res.u_star)

Any change to the fixture needs a CHANGES.md entry saying why.
"""
import gzip
import os
from dataclasses import replace

import numpy as np

from orra.scenario import ScenarioConfig, ScenarioRunner

HERE = os.path.dirname(__file__)
DATA = os.path.join(HERE, "data")
CONFIG = os.path.join(HERE, os.pardir, "configs", "step_event.json")


def read_trace(lines):
    """(schema line, header line, numeric rows) of a trace's text lines."""
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    return lines[0], lines[1], data


def test_step_run_matches_golden_trace(tmp_path):
    cfg = replace(ScenarioConfig.from_json(CONFIG), duration=60.0)
    res = ScenarioRunner(cfg, oracle_every=True).run(out_dir=str(tmp_path))

    with gzip.open(os.path.join(DATA, "golden_step_60s.csv.gz"), "rt") as fh:
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

    oracle = np.load(os.path.join(DATA, "golden_step_60s_oracle.npz"))
    np.testing.assert_allclose(res.f_oracle, oracle["f_oracle"],
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(res.u_star, oracle["u_star"], rtol=0, atol=1e-6)
