"""``BENCHMARK.json`` against the frozen spec and the driver's limits."""

import json
import os
import re
import subprocess
import sys

import spec
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_what_the_spec_says():
    assert load() == spec.benchmark_json()


def test_benchmark_json_stays_inside_the_drivers_limits():
    doc = load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/wallclock"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]
             + doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_open_loop_rates_are_constants_and_no_cost_model_is_consulted():
    for workload in spec.WORKLOADS:
        if isinstance(workload, spec.ServeSpec):
            assert workload.rate > 0 and workload.open > 0
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name)) as fh:
                source = fh.read()
            assert "repro.harness" not in source, name
            assert "CostModel" not in source, name


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark."""
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks" / "wallclock",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = load()["command"] + ["--workload", "serve_steady", "--seed",
                                   "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
