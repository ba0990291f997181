"""The oracle, proven to bite.

Every other conform test asserts that cells are *green*.  These make
each failure kind fire once — through a doctored reference, or a fault
that cannot trigger — so "all green" is a falsifiable statement: a
refactor that quietly stops comparing something turns one of these red.
Each test asserts the entry's ``kind`` *and* its fault coordinates.

Tier-1 (unmarked): ``hello`` / ``counter``, inline, a few milliseconds
each.
"""

from dataclasses import replace

import pytest

from repro.conform import (
    byzantine_reference,
    chained_reference,
    check_chain,
    check_corruption,
    check_crash_point,
    get_workload,
    make_byzantine_spec,
    make_cell_spec,
    make_chained_spec,
    reference_run,
)
from repro.conform import byzantine, chained
from repro.env.environment import Environment


# ======================================================================
# The pair: one fail-stop
# ======================================================================
@pytest.fixture(scope="module")
def pair():
    spec = make_cell_spec("counter", "lock_sync", "memory")
    return spec, reference_run(spec)


def test_honest_cell_is_green(pair):
    spec, reference = pair
    assert check_crash_point(spec, reference.total_events // 2,
                             reference) is None


def test_output_mismatch_fires_on_a_doctored_stable_env(pair):
    spec, reference = pair
    doctored = replace(reference, stable={
        **reference.stable, "console": reference.stable["console"] + "x",
    })
    entry = check_crash_point(spec, 3, doctored)
    assert entry["kind"] == "output_mismatch"
    assert entry["crash_at"] == 3
    assert "console" in entry["detail"]


def test_divergence_fires_on_a_flipped_digest_component(pair):
    spec, reference = pair
    (name, value), rest = reference.final_digest[0], reference.final_digest[1:]
    doctored = replace(reference, final_digest=((name, value ^ 1),) + rest)
    entry = check_crash_point(spec, 3, doctored)
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
    entry = check_crash_point(spec, reference.total_events, doctored)
    assert entry["kind"] == "log_prefix"
    assert entry["crash_at"] == reference.total_events


def test_no_failover_fires_when_the_pair_never_crashes(pair):
    spec, reference = pair
    beyond = reference.total_events + 1
    entry = check_crash_point(spec, beyond, reference)
    assert entry["kind"] == "no_failover"
    assert entry["crash_at"] == beyond


# ======================================================================
# The chain: a crash per generation
# ======================================================================
def test_no_failover_fires_when_a_generation_outlives_its_schedule():
    spec = make_chained_spec("counter", "lock_sync", "memory", depth=2)
    reference = chained_reference(spec)
    schedule = [5, 9999]          # generation 1 has far fewer events
    entry = check_chain(spec, schedule, reference)
    assert entry["kind"] == "no_failover"
    assert entry["crash_schedule"] == schedule
    assert entry["crash_at"] == 9999


def test_unbounded_replay_fires_when_the_slack_is_forced_negative(
        monkeypatch):
    spec = make_chained_spec("counter", "lock_sync", "memory", depth=1,
                             checkpoint_interval=3)
    reference = chained_reference(spec)
    group, _ = chained.build_group(spec, [])
    pilot = group.run(get_workload("counter").main_class)
    assert pilot.generations[0].steady_checkpoints > 0
    last = pilot.generations[0].events
    # Honest under the real slack ...
    assert check_chain(spec, [last], reference) is None
    # ... and over budget once no tail at all is tolerated.
    monkeypatch.setattr(chained, "_REPLAY_SLACK", -10**6)
    entry = check_chain(spec, [last], reference)
    assert entry["kind"] == "unbounded_replay"
    assert entry["crash_schedule"] == [last]
    assert entry["crash_at"] == last


# ======================================================================
# The voting group: a lie
# ======================================================================
@pytest.fixture(scope="module")
def voting():
    spec = make_byzantine_spec("hello")
    return spec, byzantine_reference(spec)


def _lying_follower_run(spec, reference):
    """One run with member 1 lying about the first output."""
    env = Environment()
    lie_at = ("output", reference.output_ordinals[0])
    group = byzantine.build_group(spec, env, lie_at=lie_at, lie_member=1)
    return group.run(get_workload(spec["workload"]).main_class), env


def test_lie_not_injected_fires_on_an_artifact_that_never_occurs(voting):
    spec, reference = voting
    entry = check_corruption(spec, reference, ("output", 9999), 0)
    assert entry["kind"] == "lie_not_injected"
    assert entry["lie"] == ["output", 9999]
    assert entry["lie_member"] == 0
    assert entry["role"] == "proposer"


def test_wrong_conviction_fires_when_judged_against_another_member(voting):
    spec, reference = voting
    result, env = _lying_follower_run(spec, reference)
    # Judged for what it was, the run is clean ...
    assert byzantine._check_result(spec, result, env, reference,
                                   expected_liar=1) == []
    # ... judged as if member 2 had lied, member 1's conviction is wrong.
    entries = byzantine._check_result(spec, result, env, reference,
                                      expected_liar=2)
    assert [entry["kind"] for entry in entries] == ["wrong_conviction"]
    assert "[2]" in entries[0]["detail"] and "[1]" in entries[0]["detail"]


def test_false_positive_fires_when_a_lying_run_is_judged_honest(voting):
    spec, reference = voting
    result, env = _lying_follower_run(spec, reference)
    entries = byzantine._check_result(spec, result, env, reference,
                                      expected_liar=None)
    assert [entry["kind"] for entry in entries] == ["false_positive"]
    assert "[1]" in entries[0]["detail"]
