"""Quorum-voted digests: the Byzantine acceptance scenarios.

A 3-member voting group must (a) be a no-op for honest runs — output
and final state byte-identical to the unreplicated reference; (b)
outvote, quarantine, and re-arm a lying primary (corrupted digest and
corrupted output payload, separately) without losing exactly-once
outputs; (c) quarantine a bit-flipped follower without disturbing the
run; (d) under the step+slice multi-variant guard, stay silent on
honest runs and alarm on injected divergence.
"""

import pytest

from repro.env.environment import Environment
from repro.errors import (
    AlreadyRanError,
    ReplicationError,
    VariantDivergenceError,
)
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.runtime.digest import compute_state_digest
from repro.replication.machine import run_unreplicated
from repro.replication.supervisor import MemberState, default_generation_settings
from repro.replication.voting import VotingGroup

OUTPUT_PROGRAM = """
class Main {
    static void main(String[] args) {
        int fd = Files.open("out.txt", "w");
        for (int i = 0; i < 4; i++) {
            Files.writeLine(fd, "line " + i);
        }
        Files.close(fd);
        System.println("wrote 4 lines");
    }
}
"""

MULTI_PROGRAM = """
    class W extends Thread {
        static Object lock = new Object();
        static int shared;
        void run() {
            for (int i = 0; i < 60; i++) {
                synchronized (lock) { shared = shared + 1; }
            }
        }
    }
    class Main {
        static void main(String[] args) {
            W a = new W(); W b = new W();
            a.start(); b.start(); a.join(); b.join();
            System.println(W.shared);
        }
    }
"""


@pytest.fixture(scope="module")
def output_registry():
    return compile_program(OUTPUT_PROGRAM)


@pytest.fixture(scope="module")
def multi_registry():
    return compile_program(MULTI_PROGRAM)


def _reference(registry):
    env = Environment()
    result, jvm = run_unreplicated(
        registry, "Main", env=env, settings=default_generation_settings(0)
    )
    assert result.ok
    return env.snapshot_stable(), compute_state_digest(jvm, env)


@pytest.fixture(scope="module")
def output_reference(output_registry):
    return _reference(output_registry)


@pytest.fixture(scope="module")
def multi_reference(multi_registry):
    return _reference(multi_registry)


def _config(**overrides):
    overrides.setdefault("strategy", "thread_sched")
    overrides.setdefault("batch_records", 1)
    overrides.setdefault("digest_interval", 2)
    return ReplicationConfig(voting=True, **overrides)


def _assert_matches_reference(env, voting_result, reference):
    ref_stable, ref_digest = reference
    assert voting_result.result.ok
    assert env.snapshot_stable() == ref_stable
    final = compute_state_digest(voting_result.final_jvm, env)
    assert final.components == ref_digest.components


# ======================================================================
# Honest runs
# ======================================================================
def test_honest_group_matches_reference(output_registry, output_reference):
    env = Environment()
    group = VotingGroup(output_registry, env=env, config=_config())
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.incidents == []
    assert result.final_era == 0
    _assert_matches_reference(env, result, output_reference)
    # Every output went through the gate with a certificate behind it.
    assert result.metrics.outputs_gated >= 6     # 4 writes + open + close...
    assert result.metrics.quorum_certs > 0
    assert result.metrics.votes_cast >= 3 * result.metrics.quorum_certs \
        - result.metrics.votes_cast  # at least quorum-many votes happened
    for slot in result.members:
        assert slot.state == MemberState.HEALTHY


def test_honest_multithreaded_digests_certified(multi_registry,
                                                multi_reference):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config())
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.incidents == []
    _assert_matches_reference(env, result, multi_reference)
    # Periodic digests were proposed and certified by all three members.
    assert result.metrics.quorum_certs > 2
    assert result.metrics.vote_bytes > 0


# ======================================================================
# Lying primary
# ======================================================================
def test_lying_primary_digest_is_deposed_and_rearmed(multi_registry,
                                                     multi_reference):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        lie_at=("digest", 2), lie_member=0,
    ))
    result = group.run("Main")
    assert result.outcome in ("completed", "completed_in_recovery")
    _assert_matches_reference(env, result, multi_reference)
    # Exactly one incident: member 0, the deposed proposer.
    assert [i.member for i in result.incidents] == [0]
    incident = result.incidents[0]
    assert incident.role == "proposer"
    assert incident.era == 0
    assert result.final_era >= 1
    assert result.metrics.members_quarantined == 1
    if result.outcome == "completed":
        # The liar was re-armed into era 1 as a follower.
        assert incident.rearmed and incident.rearmed_era == 1
        assert result.metrics.members_rearmed == 1
        assert result.members[0].state == MemberState.HEALTHY
        assert result.members[0].rearms == 1


def test_group_metrics_fold_eras_by_sum_and_high_water_by_max(
        multi_registry):
    """Two eras (a deposed proposer): the group's lifetime metrics sum
    each era's counters, but a high-water mark is the highest any era
    reached — the summed ``largest_l_asn`` was a lock sequence number
    nobody ever held.  (The other mark, ``retained_records_max``, stays
    0 under voting; tests/replication/test_metrics.py folds it.)"""
    group = VotingGroup(multi_registry, env=Environment(), config=_config(
        lie_at=("digest", 2), lie_member=0,
    ))
    result = group.run("Main")
    eras = [m for report in result.reports
            for m in (report.primary_metrics, report.recovery_metrics)
            if m is not None]
    assert result.final_era >= 1
    marks = [m.largest_l_asn for m in eras]
    assert sum(marks) > max(marks) > 0
    assert result.metrics.largest_l_asn == max(marks)
    for counter in ("bytes_sent", "records_sent", "instructions",
                    "locks_acquired"):
        assert getattr(result.metrics, counter) \
            == sum(getattr(m, counter) for m in eras) > 0
    # Group-owned counters are untouched by the fold.
    assert result.metrics.members_quarantined == 1
    assert all(m.votes_cast == m.members_quarantined == 0 for m in eras)


def test_lying_primary_output_is_outvoted_before_release(output_registry,
                                                         output_reference):
    env = Environment()
    group = VotingGroup(output_registry, env=env, config=_config(
        lie_at=("output", 2), lie_member=0,
    ))
    result = group.run("Main")
    assert result.outcome in ("completed", "completed_in_recovery")
    # The corrupted payload never reached the environment and the
    # uncertain output was re-executed exactly once with honest args.
    _assert_matches_reference(env, result, output_reference)
    assert [i.member for i in result.incidents] == [0]
    assert result.incidents[0].subject == "output"
    assert group.injector.fired  # the lie actually happened


# ======================================================================
# Lying follower
# ======================================================================
def test_lying_follower_is_quarantined_not_the_run(multi_registry,
                                                   multi_reference):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        lie_at=("digest", 2), lie_member=1,
    ))
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.final_era == 0          # no deposition
    _assert_matches_reference(env, result, multi_reference)
    assert [i.member for i in result.incidents] == [1]
    incident = result.incidents[0]
    assert incident.role == "follower"
    assert result.metrics.members_quarantined == 1
    if incident.rearmed:
        assert result.metrics.members_rearmed == 1
        assert result.members[1].state == MemberState.HEALTHY


def test_lying_follower_output_vote(output_registry, output_reference):
    env = Environment()
    group = VotingGroup(output_registry, env=env, config=_config(
        lie_at=("output", 1), lie_member=2,
    ))
    result = group.run("Main")
    assert result.outcome == "completed"
    _assert_matches_reference(env, result, output_reference)
    assert [i.member for i in result.incidents] == [2]


# ======================================================================
# Multi-variant execution guard
# ======================================================================
def test_variants_silent_on_honest_run(multi_registry, multi_reference):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        variants="step+slice",
    ))
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.divergences == []
    assert result.metrics.variant_divergences == 0
    _assert_matches_reference(env, result, multi_reference)
    # The members really ran on alternating engines.
    engines = [slot.engine for slot in result.members]
    assert len(set(engines)) == 2


def test_variants_alarm_on_injected_divergence(multi_registry):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        variants="step+slice", lie_at=("digest", 2), lie_member=1,
    ))
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.metrics.variant_divergences == 1
    divergence = result.divergences[0]
    assert divergence.member == 1
    assert divergence.engine == result.members[1].engine
    assert divergence.engine not in divergence.majority_engines


def test_variants_fail_stop_raises(multi_registry):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        variants="step+slice", variant_fail_stop=True,
        lie_at=("digest", 2), lie_member=1,
    ))
    with pytest.raises(VariantDivergenceError) as exc:
        group.run("Main")
    assert exc.value.divergence.member == 1


# ======================================================================
# Config validation and misc
# ======================================================================
def test_voting_requires_lockstep_strategy(output_registry):
    with pytest.raises(ReplicationError):
        VotingGroup(output_registry,
                    config=ReplicationConfig(voting=True,
                                             strategy="lock_sync"))


def test_voting_rejects_even_groups(output_registry):
    with pytest.raises(ReplicationError):
        VotingGroup(output_registry, config=_config(n_members=4))


def test_voting_rejects_crash_injection(output_registry):
    with pytest.raises(ReplicationError):
        VotingGroup(output_registry, config=_config(crash_at=3))


def test_single_shot(output_registry):
    env = Environment()
    group = VotingGroup(output_registry, env=env, config=_config())
    assert group.run("Main").result.ok
    with pytest.raises(AlreadyRanError):
        group.run("Main")


def test_degenerate_single_member_group(output_registry, output_reference):
    """f = 0: one member certifies its own proposals (quorum of one)."""
    env = Environment()
    group = VotingGroup(output_registry, env=env,
                        config=_config(n_members=1))
    result = group.run("Main")
    assert result.outcome == "completed"
    _assert_matches_reference(env, result, output_reference)


def test_voting_rejects_hot_backup(output_registry):
    with pytest.raises(ReplicationError):
        VotingGroup(output_registry, config=_config(hot_backup=True))


def test_fault_budget_rejects_too_many_liars(output_registry):
    """Two distinct liars is f+1 at n=3: the seeded fault exceeds what
    the quorum can mask, so the config is rejected up front."""
    with pytest.raises(ReplicationError):
        VotingGroup(output_registry, config=_config(
            lie_at=("output", 1), lie_member=0,
            lie_specs=((("output", 2), 1),),
        ))


# ======================================================================
# Two simultaneous liars (f = 2)
# ======================================================================
def test_dual_liars_both_convicted_at_n5(multi_registry, multi_reference):
    """n = 5 masks two simultaneous liars: the lying proposer is
    deposed and the lying follower quarantined, in one run, with the
    output still matching the serial reference."""
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        n_members=5,
        lie_at=("digest", 2), lie_member=0,
        lie_specs=((("digest", 2), 1),),
    ))
    result = group.run("Main")
    assert result.outcome in ("completed", "completed_in_recovery")
    _assert_matches_reference(env, result, multi_reference)
    assert sorted(i.member for i in result.incidents) == [0, 1]
    assert result.metrics.members_quarantined == 2
    assert len(group.injector.fired) == 2


def test_dual_follower_liars_no_deposition(output_registry,
                                           output_reference):
    env = Environment()
    group = VotingGroup(output_registry, env=env, config=_config(
        n_members=5,
        lie_at=("output", 1), lie_member=1,
        lie_specs=((("output", 2), 3),),
    ))
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.final_era == 0          # the proposer stayed honest
    _assert_matches_reference(env, result, output_reference)
    assert sorted(i.member for i in result.incidents) == [1, 3]


# ======================================================================
# Engine demotion
# ======================================================================
def test_requested_demotion_lands_at_a_safe_point(multi_registry,
                                                  multi_reference):
    """A pending demotion rebuilds every member onto the target engine
    at the next replayable boundary and the run completes there."""
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config())
    assert group.base_config.engine == "slice"
    group.request_demotion("step")
    result = group.run("Main")
    assert result.outcome == "completed"
    _assert_matches_reference(env, result, multi_reference)
    assert group.base_config.engine == "step"
    assert all(slot.engine == "step" for slot in group.slots)
    assert group.metrics.engine_demotions == 1
    assert group.demotions and group.demotions[0][1] == "step"


def test_demotion_to_current_engine_is_a_noop(multi_registry,
                                              multi_reference):
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config())
    group.request_demotion("slice")
    result = group.run("Main")
    assert result.outcome == "completed"
    _assert_matches_reference(env, result, multi_reference)
    assert group.metrics.engine_demotions == 0
    assert group.demotions == []


def test_demotion_rejects_unknown_engine(multi_registry):
    group = VotingGroup(multi_registry, config=_config())
    with pytest.raises(ReplicationError):
        group.request_demotion("turbo")


def test_on_divergence_hook_fires_before_demotion_policy(multi_registry):
    """The hook a fleet's DegradationController subscribes to: every
    confirmed VariantDivergence is pushed to it as it is ruled."""
    env = Environment()
    group = VotingGroup(multi_registry, env=env, config=_config(
        variants="step+slice", lie_at=("digest", 2), lie_member=1,
    ))
    seen = []
    group.on_divergence = seen.append
    result = group.run("Main")
    assert result.outcome == "completed"
    assert len(seen) == 1
    assert seen[0] is result.divergences[0]
