"""The oracle, proven to bite.

Every other conform test asserts that cells are *green*.  These make
each failure kind fire once — through a doctored reference, or a fault
that cannot trigger — so "all green" is a falsifiable statement: a
refactor that quietly stops comparing something turns one of these red.
Each test asserts the entry's ``kind`` *and* its fault coordinates.

Tier-1 (unmarked): ``hello`` / ``counter``, inline, a few milliseconds
each.  Specs come from :meth:`Config.matrix`, so every test judges
exactly the cell its sweep would.
"""

from dataclasses import replace

import pytest

from repro.conform import (
    Config,
    Crash,
    CrashChain,
    Lie,
    cell,
    check,
    execute,
    judge,
    reference_run,
)


# ======================================================================
# The pair: one fail-stop
# ======================================================================
@pytest.fixture(scope="module")
def pair():
    spec, = Config(["counter"], strategies=["lock_sync"],
                   transports=["memory"]).matrix()
    return spec, reference_run(spec, Crash)


def test_honest_cell_is_green(pair):
    spec, reference = pair
    assert check(spec, Crash(reference.total_events // 2),
                 reference) is None


def test_output_mismatch_fires_on_a_doctored_stable_env(pair):
    spec, reference = pair
    doctored = replace(reference, stable={
        **reference.stable, "console": reference.stable["console"] + "x",
    })
    entry = check(spec, Crash(3), doctored)
    assert entry["kind"] == "output_mismatch"
    assert entry["crash_at"] == 3
    assert "console" in entry["detail"]


def test_divergence_fires_on_a_flipped_digest_component(pair):
    spec, reference = pair
    (name, value), rest = reference.final_digest[0], reference.final_digest[1:]
    doctored = replace(reference, final_digest=((name, value ^ 1),) + rest)
    entry = check(spec, Crash(3), doctored)
    assert entry["kind"] == "divergence"
    assert entry["crash_at"] == 3
    assert entry["components"] == [name]


def test_log_prefix_fires_on_a_corrupted_reference_log(pair):
    spec, reference = pair
    doctored = replace(reference, delivered=[
        reference.delivered[0] + b"\x00", *reference.delivered[1:],
    ])
    # Crash at the last event, so the delivered log is certainly
    # non-empty and its first record is compared.
    entry = check(spec, Crash(reference.total_events), doctored)
    assert entry["kind"] == "log_prefix"
    assert entry["crash_at"] == reference.total_events


def test_no_failover_fires_when_the_pair_never_crashes(pair):
    spec, reference = pair
    beyond = reference.total_events + 1
    entry = check(spec, Crash(beyond), reference)
    assert entry["kind"] == "no_failover"
    assert entry["crash_at"] == beyond


# ======================================================================
# The chain: a crash per generation
# ======================================================================
def _chained_spec(**options):
    spec, = Config(["counter"], mode="chained", strategies=["lock_sync"],
                   transports=["memory"], **options).matrix()
    return spec


def test_no_failover_fires_when_a_generation_outlives_its_schedule():
    spec = _chained_spec()
    reference = reference_run(spec, CrashChain)
    schedule = (5, 9999)          # generation 1 has far fewer events
    entry = check(spec, CrashChain(schedule), reference)
    assert entry["kind"] == "no_failover"
    assert entry["crash_schedule"] == list(schedule)
    assert entry["crash_at"] == 9999


def test_unbounded_replay_fires_when_the_slack_is_forced_negative(
        monkeypatch):
    spec = _chained_spec(checkpoint_intervals=[3])
    reference = reference_run(spec, CrashChain)
    pilot = execute(spec, CrashChain())[0].reports[0]
    assert pilot.steady_checkpoints > 0
    last = CrashChain((pilot.events,))
    # Honest under the real slack ...
    assert check(spec, last, reference) is None
    # ... and over budget once no tail at all is tolerated.
    monkeypatch.setattr(cell, "REPLAY_SLACK", -10**6)
    entry = check(spec, last, reference)
    assert entry["kind"] == "unbounded_replay"
    assert entry["crash_schedule"] == [pilot.events]
    assert entry["crash_at"] == pilot.events


# ======================================================================
# The voting group: a lie
# ======================================================================
@pytest.fixture(scope="module")
def voting():
    spec, = Config(["hello"], mode="byzantine").matrix()
    return spec, reference_run(spec, Lie)


def _lying_follower(reference):
    """Member 1 lies about the first output."""
    return Lie(("output", reference.output_ordinals[0]), 1)


def test_lie_not_injected_fires_on_an_artifact_that_never_occurs(voting):
    spec, reference = voting
    entry = check(spec, Lie(("output", 9999), 0), reference)
    assert entry["kind"] == "lie_not_injected"
    assert entry["lie"] == ["output", 9999]
    assert entry["lie_member"] == 0
    assert entry["role"] == "proposer"


def test_wrong_conviction_fires_when_judged_against_another_member(voting):
    spec, reference = voting
    lie = _lying_follower(reference)
    group, _ = execute(spec, lie)
    # Judged for what it was, the run is clean ...
    assert judge(group, lie, reference) is None
    # ... judged as if member 2 had lied, member 1's conviction is wrong.
    entry = judge(group, replace(lie, member=2), reference)
    assert entry["kind"] == "wrong_conviction"
    assert entry["lie"] == list(lie.at) and entry["lie_member"] == 2
    assert "[2]" in entry["detail"] and "[1]" in entry["detail"]


def test_false_positive_fires_when_a_lying_run_is_judged_honest(voting):
    spec, reference = voting
    group, _ = execute(spec, _lying_follower(reference))
    # (``judge`` would stop one check earlier, at ``lie_not_injected``:
    # a lie fired that the honest fault never armed.)
    entry = cell.conviction(group, Lie(), reference)
    assert entry["kind"] == "false_positive"
    assert entry["lie"] == [] and entry["extra_lies"] == []
    assert "[1]" in entry["detail"]
