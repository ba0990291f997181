"""Tier-2 wrapper around the Byzantine corruption sweep.

Same split as :mod:`tests.conform.test_conform_harness`: cheap
mechanics tests (reference probe, single cells) run in tier-1; the
heavier full-matrix and CLI sweeps carry ``conform`` + ``slow`` marks.  The byzantine sweep is fast — every workload is tiny —
so even the 'slow' cells finish in seconds.
"""

import json
import subprocess
import sys

import pytest

from repro.conform import Config, Lie, check, reference_run, sweep_byzantine


def _spec(workload, **options):
    spec, = Config([workload], mode="byzantine", **options).matrix()
    return spec


# ======================================================================
# Harness mechanics (cheap — runs in tier-1; the report schema is
# checked with the other modes' in test_conform_harness.py)
# ======================================================================
def test_reference_probe_enumerates_artifacts():
    """The honest probe discovers the lie targets: every output the
    group gated, and the final digest epoch (0 for a single-threaded
    workload, where no schedule records are logged)."""
    reference = reference_run(_spec("hello"), Lie)
    assert reference.final_epoch == 0
    assert len(reference.output_ordinals) >= 1
    assert reference.stable    # console output captured
    multi = reference_run(_spec("counter"), Lie)
    assert multi.final_epoch > 0
    assert multi.digest_epochs  # periodic digests were certified


def test_single_corruption_cell_passes():
    """One seeded lying-proposer cell end to end: the corrupted output
    is outvoted before release and the run stays byte-identical."""
    spec = _spec("hello")
    reference = reference_run(spec, Lie)
    entry = check(spec, Lie(("output", reference.output_ordinals[0]), 0),
                  reference)
    assert entry is None
    entry = check(spec, Lie(("digest", reference.final_epoch), 1),
                  reference)
    assert entry is None


# ======================================================================
# Tier-2: the sweeps themselves
# ======================================================================
@pytest.mark.conform
@pytest.mark.slow
@pytest.mark.parametrize("workload", ["hello", "counter", "fileio"])
def test_byzantine_sweep_has_zero_failures(workload):
    cell = sweep_byzantine(_spec(workload))
    assert cell["ok"], cell
    assert cell["cells"] > 0
    # Every artifact was lied about twice: once by the proposer, once
    # by a follower.
    assert cell["cells"] == 2 * (cell["digest_epochs"]
                                 + cell["output_ordinals"])


@pytest.mark.conform
@pytest.mark.slow
@pytest.mark.parametrize("workload", ["hello", "counter"])
def test_byzantine_variants_sweep_passes(workload):
    cell = sweep_byzantine(_spec(workload, variants="step+slice"))
    assert cell["ok"], cell


@pytest.mark.conform
@pytest.mark.slow
def test_byzantine_conform_cli_smoke(tmp_path):
    """The CI invocation: exit 0, valid JSON artifact, zero failures."""
    out = tmp_path / "byzantine.json"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "conform", "--byzantine",
         "--variants", "--json", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert report["totals"]["failures"] == 0
    assert report["config"]["variants"] == "step+slice"
