"""Tier-2 wrapper around the conformance sweep engine.

Everything here is marked ``conform`` and excluded from the default
(tier-1) run; execute with ``pytest -m conform``.  A couple of cheap
harness-mechanics tests (report schema, CLI plumbing, shrinker) stay
unmarked so tier-1 still exercises the machinery itself.
"""

import json
import subprocess
import sys

import pytest

from repro.conform import (
    SweepConfig,
    build_report,
    make_cell_spec,
    reference_run,
    render_report,
    run_sweep,
    shrink_failure,
    sweep_cell,
    workload_names,
    write_report,
)
from tests.integration.test_transport_failover import needs_sockets

REPORT_KEYS = {"version", "tool", "config", "cells", "totals", "ok"}
CELL_KEYS = {"workload", "strategy", "transport", "engine",
             "total_events", "crash_points", "failures", "ok"}


# ======================================================================
# Harness mechanics (cheap — runs in tier-1)
# ======================================================================
def test_report_schema_keys():
    config = SweepConfig(workloads=["hello"], transports=["memory"],
                         strategies=["lock_sync"])
    cells = run_sweep(config)
    report = build_report(config, cells)
    assert set(report) == REPORT_KEYS
    assert report["version"] == 1
    assert report["tool"] == "repro conform"
    for cell in report["cells"]:
        assert set(cell) == CELL_KEYS
    assert report["totals"]["cells"] == len(cells) == 1
    assert report["totals"]["failures"] == 0
    assert report["ok"] is True
    assert "PASS" in render_report(report)
    assert json.loads(json.dumps(report)) == report   # JSON-serialisable


def test_report_round_trips_through_file(tmp_path):
    config = SweepConfig(workloads=["hello"], transports=["memory"],
                         strategies=["lock_sync"], stride=3)
    report = build_report(config, run_sweep(config))
    path = tmp_path / "conform.json"
    write_report(str(path), report)
    assert json.loads(path.read_text()) == report


def test_stride_reduces_crash_points():
    spec = make_cell_spec("hello", "lock_sync", "memory")
    full = sweep_cell(spec)
    strided = sweep_cell(spec, stride=2)
    assert strided.total_events == full.total_events
    assert strided.crash_points == (full.total_events + 1) // 2
    assert full.ok and strided.ok


def test_shrinker_finds_earliest_failure():
    """Feed the shrinker a fabricated failure at the last crash point of
    a cell where *every* point 'fails' (a check that always trips would
    be a bug; here we just exercise the scan order)."""
    spec = make_cell_spec("hello", "lock_sync", "memory")
    reference = reference_run(spec)
    # Pretend only odd points were tried and the one at the end failed.
    tried = list(range(1, reference.total_events + 1, 2))
    failing = {"crash_at": tried[-1], "kind": "divergence", "detail": "x"}
    shrunk = shrink_failure(spec, reference, failing, tried)
    # No real failure exists below it, so the original entry survives
    # untouched (the shrinker only replaces on a reproduced failure).
    assert shrunk["crash_at"] == tried[-1]
    assert "shrunk_from" not in shrunk


def test_workload_registry_is_stable():
    assert tuple(workload_names()) == ("counter", "fileio", "hello")
    with pytest.raises(KeyError, match="counter"):
        from repro.conform import get_workload
        get_workload("nope")


# ======================================================================
# Tier-2: the sweeps themselves
# ======================================================================
@pytest.mark.conform
@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
@pytest.mark.parametrize("transport", [
    "memory", "faulty:flaky",
    # Every crash index again over localhost TCP: delivery is driven by
    # the caller, so the cell is as deterministic as the in-memory one.
    pytest.param("socket", marks=[pytest.mark.socket, needs_sockets]),
])
def test_counter_sweep_has_zero_divergences(strategy, transport):
    spec = make_cell_spec("counter", strategy, transport)
    cell = sweep_cell(spec)
    assert cell.crash_points == cell.total_events > 0
    assert cell.failures == []


@pytest.mark.conform
@pytest.mark.slow
def test_full_quick_matrix_passes():
    config = SweepConfig(workloads=["hello", "counter"])
    report = build_report(config, run_sweep(config))
    assert report["ok"], render_report(report)
    assert report["totals"]["failures"] == 0
    assert report["totals"]["cells"] == 8


@pytest.mark.conform
@pytest.mark.slow
def test_conform_cli_quick_smoke(tmp_path):
    """The acceptance-criteria command: exit 0, valid JSON, zero
    failures."""
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "conform", "--workload", "counter",
         "--quick", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["totals"]["failures"] == 0


# ======================================================================
# Chained-failover sweeps (replica-group supervisor)
# ======================================================================
CHAIN_CELL_KEYS = {"workload", "strategy", "transport", "engine",
                   "depth", "checkpoint_interval", "crash_points",
                   "layers", "errors", "ok"}


def test_chained_report_schema_keys():
    from repro.conform import (
        ChainedConfig, build_chained_report, render_chained_report,
        run_chained_sweep,
    )
    config = ChainedConfig(workloads=["hello"], transports=["memory"],
                           strategies=["lock_sync"], depth=1, stride=4)
    cells = run_chained_sweep(config)
    report = build_chained_report(config, cells)
    assert set(report) == REPORT_KEYS
    assert report["tool"] == "repro conform --chained"
    for cell in report["cells"]:
        assert set(cell) == CHAIN_CELL_KEYS
        for layer in cell["layers"]:
            assert {"generation", "pinned", "total_events",
                    "transfer_events", "crash_points", "failures",
                    "records_fenced", "steady_checkpoints"} <= set(layer)
    assert report["ok"] is True
    assert "PASS" in render_chained_report(report)
    assert json.loads(json.dumps(report)) == report


@pytest.mark.conform
@pytest.mark.slow
@pytest.mark.parametrize("transport", ["memory", "faulty:flaky"])
def test_chained_counter_sweep_passes(transport):
    from repro.conform import make_chained_spec, sweep_chained_cell
    spec = make_chained_spec("counter", "lock_sync", transport, depth=2)
    cell = sweep_chained_cell(spec)
    assert cell.ok, cell.as_dict()
    assert cell.crash_points > 0
    assert len(cell.layers) == 2
    # Mid-transfer crash points were swept in every layer, and the
    # fenced-record probe proved stale-epoch records are discarded.
    for layer in cell.layers:
        assert layer.transfer_events >= 2
        assert layer.crash_points == layer.total_events
    assert any(layer.records_fenced > 0 for layer in cell.layers[1:])


@pytest.mark.conform
@pytest.mark.slow
def test_chained_conform_cli_smoke(tmp_path):
    """The CI invocation: pinned seed, exit 0, valid JSON artifact."""
    out = tmp_path / "chained.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "conform", "--chained",
         "--workload", "counter", "--strategy", "lock_sync",
         "--depth", "2", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["totals"]["failures"] == 0
    assert report["totals"]["records_fenced"] > 0
