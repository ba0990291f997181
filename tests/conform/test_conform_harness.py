"""Tier-2 wrapper around the conformance sweep engine.

Everything here is marked ``conform`` and excluded from the default
(tier-1) run; execute with ``pytest -m conform``.  A couple of cheap
harness-mechanics tests (report schema, CLI plumbing, shrinker) stay
unmarked so tier-1 still exercises the machinery itself.
"""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.conform import (
    CellSpec,
    Config,
    Crash,
    build_report,
    failure,
    reference_run,
    render_report,
    run_sweep,
    shrink_failure,
    sweep_chained,
    sweep_plain,
    workload_names,
    write_report,
)
from repro.conform.sweep import sweep      # the loop itself, not a mode
from tests.integration.test_transport_failover import needs_sockets

REPORT_KEYS = ["version", "tool", "config", "cells", "totals", "ok"]
LAYER_KEYS = ["generation", "pinned", "total_events", "transfer_events",
              "crash_points", "records_fenced", "steady_checkpoints",
              "failures", "ok"]
#: mode -> (a one-cell config, tool, config keys, cell keys, totals
#: keys).  Key *order* is part of the pinned format: the reports are
#: dumped unsorted and compared by sha256.
SCHEMAS = {
    "plain": (
        dict(transports=["memory"], strategies=["lock_sync"]),
        "repro conform",
        ["workloads", "strategies", "transports", "engines", "seed",
         "digest_interval", "stride"],
        ["workload", "strategy", "transport", "engine", "total_events",
         "crash_points", "failures", "ok"],
        ["cells", "crash_points", "failures"],
    ),
    "chained": (
        dict(transports=["memory"], strategies=["lock_sync"], depth=1,
             stride=4),
        "repro conform --chained",
        ["workloads", "strategies", "transports", "engines", "depth",
         "seed", "stride", "chunk_bytes", "batch_records",
         "checkpoint_intervals"],
        ["workload", "strategy", "transport", "engine",
         "checkpoint_interval", "depth", "crash_points", "layers",
         "errors", "ok"],
        ["cells", "crash_points", "failures", "records_fenced",
         "steady_checkpoints"],
    ),
    "byzantine": (
        dict(),
        "repro conform --byzantine",
        ["workloads", "n_members", "seed", "digest_interval", "stride",
         "engine", "variants", "follower_member"],
        ["workload", "engine", "variants", "digest_epochs",
         "output_ordinals", "cells", "failures", "ok"],
        ["cells", "corruption_points", "failures"],
    ),
}


# ======================================================================
# Harness mechanics (cheap — runs in tier-1)
# ======================================================================
@pytest.mark.parametrize("mode", sorted(SCHEMAS))
def test_report_schema_keys(mode):
    options, tool, config_keys, cell_keys, totals_keys = SCHEMAS[mode]
    config = Config(workloads=["hello"], mode=mode, **options)
    cells = run_sweep(config)
    report = build_report(config, cells)
    assert list(report) == REPORT_KEYS
    assert report["version"] == 1
    assert report["tool"] == tool
    assert list(report["config"]) == config_keys
    assert list(report["totals"]) == totals_keys
    for cell in report["cells"]:
        assert list(cell) == cell_keys
        for layer in cell.get("layers", []):
            assert list(layer) == LAYER_KEYS
    assert report["totals"]["cells"] == len(cells) == 1
    assert report["totals"]["failures"] == 0
    assert report["ok"] is True
    assert "PASS" in render_report(report)
    assert json.loads(json.dumps(report)) == report   # JSON-serialisable


def test_report_round_trips_through_file(tmp_path):
    config = Config(workloads=["hello"], transports=["memory"],
                    strategies=["lock_sync"], stride=3)
    report = build_report(config, run_sweep(config))
    path = tmp_path / "conform.json"
    write_report(str(path), report)
    assert json.loads(path.read_text()) == report


def test_stride_reduces_crash_points():
    spec = CellSpec("hello", "lock_sync", "memory")
    full = sweep_plain(spec)
    strided = sweep_plain(spec, stride=2)
    assert strided["total_events"] == full["total_events"]
    assert strided["crash_points"] == (full["total_events"] + 1) // 2
    assert full["ok"] and strided["ok"]


def test_shrinker_finds_earliest_failure():
    """Feed the shrinker a fabricated failure at the last crash point of
    a cell where *every* point 'fails' (a check that always trips would
    be a bug; here we just exercise the scan order)."""
    spec = CellSpec("hello", "lock_sync", "memory")
    reference = reference_run(spec, Crash)
    # Pretend only odd points were tried and the one at the end failed.
    tried = list(range(1, reference.total_events + 1, 2))
    failing = failure(Crash(tried[-1]), "divergence", "x")
    skipped = [Crash(at) for at in range(1, tried[-1]) if at not in tried]
    shrunk = shrink_failure(spec, reference, failing, skipped)
    # No real failure exists below it, so the original entry survives
    # untouched (the shrinker only replaces on a reproduced failure).
    assert shrunk["crash_at"] == tried[-1]
    assert "shrunk_from" not in shrunk


def test_shrinker_reduces_a_strided_failure_to_the_minimal_point():
    """A reference log corrupted mid-way fails ``log_prefix`` only at
    crash points late enough to have delivered that record; a strided
    sweep that first sees a later one is shrunk back to the earliest."""
    spec = CellSpec("counter", "lock_sync", "memory")
    reference = reference_run(spec, Crash)
    delivered = list(reference.delivered)
    delivered[len(delivered) // 2] += b"\x00"
    doctored = replace(reference, delivered=delivered)

    def schedule(stride):
        return [Crash(at) for at in
                range(1, reference.total_events + 1, stride)]

    _, full = sweep(spec, doctored, schedule)
    minimal = full[0]["crash_at"]
    swept, unshrunk = sweep(spec, doctored, schedule, stride=3,
                            shrink=False)
    assert Crash(minimal) not in swept      # the stride stepped over it
    assert unshrunk[0]["crash_at"] > minimal
    _, shrunk = sweep(spec, doctored, schedule, stride=3)
    assert shrunk[0]["kind"] == "log_prefix"
    assert shrunk[0]["crash_at"] == minimal
    assert shrunk[0]["shrunk_from"] == unshrunk[0]["crash_at"]


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
    cell = sweep_plain(CellSpec("counter", strategy, transport))
    assert cell["crash_points"] == cell["total_events"] > 0
    assert cell["failures"] == []


@pytest.mark.conform
@pytest.mark.slow
def test_full_quick_matrix_passes():
    config = Config(workloads=["hello", "counter"])
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
@pytest.mark.conform
@pytest.mark.slow
@pytest.mark.parametrize("transport", ["memory", "faulty:flaky"])
def test_chained_counter_sweep_passes(transport):
    spec, = Config(["counter"], mode="chained", strategies=["lock_sync"],
                   transports=[transport], depth=2).matrix()
    cell = sweep_chained(spec)
    assert cell["ok"], cell
    assert cell["crash_points"] > 0
    assert len(cell["layers"]) == 2
    # Mid-transfer crash points were swept in every layer, and the
    # fenced-record probe proved stale-epoch records are discarded.
    for layer in cell["layers"]:
        assert layer["transfer_events"] >= 2
        assert layer["crash_points"] == layer["total_events"]
    assert any(layer["records_fenced"] > 0 for layer in cell["layers"][1:])


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
