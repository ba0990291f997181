"""Replica-group supervisor: survive repeated failures, not just one.

The acceptance scenario for checkpoint-based re-integration: a group
must survive *k* successive primary crashes — including one that lands
mid-state-transfer — over a faulty transport, and still produce output
byte-identical to an unreplicated run, with every environment effect
applied exactly once and every re-integration digest-verified.
"""

import pytest

from repro.env.environment import Environment
from repro.errors import AlreadyRanError, ReplicationError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.runtime.digest import compute_state_digest
from repro.replication.machine import run_unreplicated
from repro.replication.supervisor import (
    ReplicaGroup,
    default_generation_settings,
)
from repro.replication.transport import FAULT_PROFILES, FaultyTransport

PROGRAM = """
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

#: g0 crashes a few events after its transfer completes; g1 crashes
#: *during* chunk shipment (mid-state-transfer); g2 crashes after
#: re-transfer; g3 runs to completion.  Three successive failures, one
#: of them torn.
CHAIN = {0: 8, 1: 2, 2: 9}


@pytest.fixture(scope="module")
def registry():
    return compile_program(PROGRAM)


@pytest.fixture(scope="module")
def reference(registry):
    env = Environment()
    result, jvm = run_unreplicated(registry, "Main", env=env)
    assert result.ok
    return env.snapshot_stable(), compute_state_digest(jvm, env)


def _group(registry, env, **kwargs):
    kwargs.setdefault("batch_records", 1)
    kwargs.setdefault("chunk_bytes", 256)
    return ReplicaGroup(registry, env=env, config=ReplicationConfig(**kwargs))


def _flaky_per_generation(generation):
    return FaultyTransport(FAULT_PROFILES["flaky"],
                           seed=1234 + 17 * generation)


# ======================================================================
# The acceptance scenario
# ======================================================================
@pytest.mark.parametrize("strategy",
                         ["lock_sync", "thread_sched", "lock_intervals"])
def test_survives_three_chained_crashes(registry, reference, strategy):
    ref_stable, ref_digest = reference
    env = Environment()
    group = _group(registry, env, strategy=strategy,
                   crash_schedule=dict(CHAIN),
                   transport=_flaky_per_generation)
    result = group.run("Main")

    assert result.outcome == "completed"
    assert result.failures_survived == 3
    assert result.final_generation == 3
    outcomes = [r.outcome for r in group.reports]
    assert outcomes[0] == "crashed"
    assert outcomes[1] == "crashed_in_transfer"
    assert outcomes[2] == "crashed"
    assert outcomes[3] in ("completed", "completed_in_recovery")

    # Byte-identical output, exactly-once env effects.
    assert env.snapshot_stable() == ref_stable
    # Digest-equal final machine state.
    assert compute_state_digest(group.final_jvm, env).diff(ref_digest) == []


def test_mid_transfer_crash_keeps_previous_basis(registry, reference):
    """A torn transfer must not advance the recovery basis: generation 2
    re-recovers from checkpoint C_1 (the last complete one), and the
    torn generation's records are fenced out, provably discarded."""
    ref_stable, _ = reference
    env = Environment()
    group = _group(registry, env, crash_schedule=dict(CHAIN),
                   transport=_flaky_per_generation)
    result = group.run("Main")

    assert result.records_fenced > 0
    # Every completed transfer was digest-verified before adoption.
    restored = sum(r.recovery_metrics.checkpoints_restored
                   for r in group.reports
                   if r.recovery_metrics is not None)
    assert restored >= 1
    assert env.snapshot_stable() == ref_stable


def test_no_crash_completes_like_baseline(registry, reference):
    ref_stable, ref_digest = reference
    env = Environment()
    group = _group(registry, env)
    result = group.run("Main")
    assert result.outcome == "completed"
    assert result.failures_survived == 0
    assert env.snapshot_stable() == ref_stable
    assert compute_state_digest(group.final_jvm, env).diff(ref_digest) == []


def test_single_failover_over_clean_transport(registry, reference):
    ref_stable, _ = reference
    env = Environment()
    group = _group(registry, env, crash_schedule={0: 10})
    result = group.run("Main")
    assert result.failures_survived == 1
    assert group.reports[0].detection_intervals > 0
    assert env.snapshot_stable() == ref_stable


def test_checkpoint_traffic_is_accounted(registry):
    env = Environment()
    group = _group(registry, env, crash_schedule={0: 12})
    result = group.run("Main")
    assert result.checkpoint_bytes_shipped > 0
    for report in group.reports:
        assert report.checkpoint_chunks > 0
        assert report.primary_metrics.checkpoints_shipped >= 1


def test_detector_is_reset_between_generations(registry):
    env = Environment()
    group = _group(registry, env, crash_schedule={0: 8, 1: 8})
    group.run("Main")
    # The final (surviving) generation reuses the same detector object;
    # had reset() not cleared the previous generations' suspicion, the
    # run would have begun already-suspected.
    assert group.detector.suspected is False
    for report in group.reports[:-1]:
        assert report.detection_intervals > 0


def test_crash_budget_is_enforced(registry):
    env = Environment()
    group = _group(registry, env, crash_schedule={0: 5, 1: 5, 2: 5},
                   max_failures=2)
    with pytest.raises(ReplicationError):
        group.run("Main")


def test_group_runs_once(registry):
    env = Environment()
    group = _group(registry, env)
    group.run("Main")
    with pytest.raises(AlreadyRanError):
        group.run("Main")


@pytest.mark.parametrize("option", [
    {"crash_at": 40}, {"hot_backup": True}, {"digest_interval": 2},
])
def test_pair_only_options_are_rejected_not_ignored(registry, option):
    """A group has no use for these: accepting them would mean a
    crash_at=40 that never crashes and a digest_interval=2 that never
    emits a digest."""
    name, = option
    with pytest.raises(ReplicationError, match=name):
        _group(registry, Environment(), **option)


def test_generation_settings_are_distinct():
    seen = {(s.clock_offset_ms, s.entropy_seed, s.scheduler_seed)
            for s in (default_generation_settings(g) for g in range(6))}
    assert len(seen) == 6
