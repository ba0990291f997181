"""All six workloads at a twentieth of their size, checks on."""

import json
import os
import subprocess
import sys
import time

import spec
from conftest import BENCH

#: The smoke run's budget on an otherwise idle two-core box.
SMOKE_LIMIT_S = 15.0


def test_smoke_run_checks_every_workload(tmp_path):
    out = tmp_path / "smoke.json"
    begun = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - begun
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < SMOKE_LIMIT_S

    with open(out) as fh:
        results = json.load(fh)["workloads"]
    assert list(results) == [w.name for w in spec.WORKLOADS]
    gated = {m.name for m in spec.END_TO_END}
    for name, entry in results.items():
        line = entry["end_to_end"]
        assert line["correct"] is True and line["failed"] == 0, name
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == gated
        assert all(m["value"] > 0 for m in line["metrics"].values()), name
    # Every metric is printed by name with its unit.
    for metric in spec.END_TO_END:
        assert f"{metric.name} " in done.stdout


def test_a_traced_smoke_run_reports_every_layer_metric():
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--workload", "serve_recovery", "--trace", "1"],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().split("\n")[-1])
    assert line["correct"] is True
    assert set(line["metrics"]) == {m.name for m in spec.PER_LAYER}
    assert line["metrics"]["recovery.failovers"]["value"] >= 3
    assert line["metrics"]["checkpoint.restore_s"]["value"] > 0
    assert line["metrics"]["trace.attributed_share"]["value"] > 0.9
