"""Robustness of the replication layer against abuse and edge inputs."""

import pytest

from repro.env.environment import Environment
from repro.errors import RecoveryError, ReplicationError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, parse_log
from repro.replication.records import (
    LockAcqRecord,
    ScheduleRecord,
    encode,
)

HELLO = """
class Main {
    static void main(String[] args) { System.println("hi"); }
}
"""


def test_parse_log_rejects_garbage():
    with pytest.raises(ReplicationError):
        parse_log([b"\xff\xff\xffgarbage"])


def test_backup_with_foreign_lock_log_diverges_loudly():
    """Feeding the backup a log from a *different* program must produce
    a RecoveryError, not silent corruption."""
    env = Environment()
    machine = ReplicatedJVM(compile_program("""
        class Main {
            static Object lock = new Object();
            static void main(String[] args) {
                synchronized (lock) { }
                System.println("done");
            }
        }
    """), env=env, config=ReplicationConfig(strategy="lock_sync"))
    machine.run("Main")
    # Corrupt the delivered log: claim the main thread's first
    # acquisition was the lock's *second* (l_asn 2 never precedes 1).
    bogus = encode(LockAcqRecord((0,), 1, 1, 2))
    machine.channel.delivered[:] = [bogus]
    with pytest.raises((RecoveryError, Exception)):
        machine.replay_backup("Main")


def test_schedule_log_with_impossible_progress_detected():
    env = Environment()
    machine = ReplicatedJVM(compile_program(HELLO), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    # A schedule record claiming the main thread switched to a thread
    # that never exists.
    machine.channel.delivered[:] = [
        encode(ScheduleRecord(2, 1, 0, -1, (9, 9, 9), (0,)))
    ]
    with pytest.raises(RecoveryError):
        machine.replay_backup("Main")


def test_crash_at_zero_events_never_fires():
    env = Environment()
    machine = ReplicatedJVM(compile_program(
        "class Main { static void main(String[] args) { } }"
    ), env=env, config=ReplicationConfig(crash_at=1))
    result = machine.run("Main")
    # The program logs nothing, so the injector never reaches event 1.
    assert result.outcome == "primary_completed"


def test_machine_metrics_available_after_both_outcomes():
    env = Environment()
    machine = ReplicatedJVM(compile_program(HELLO), env=env)
    result = machine.run("Main")
    assert result.primary_metrics.output_commits == 1
    assert result.backup_metrics is None  # cold backup never ran

    env = Environment()
    machine = ReplicatedJVM(compile_program(HELLO), env=env,
                            config=ReplicationConfig(crash_at=2))
    result = machine.run("Main")
    assert result.failed_over
    assert result.backup_metrics is not None
    assert result.primary_metrics is not machine.backup_metrics


def test_backup_log_accessor_is_a_copy():
    env = Environment()
    machine = ReplicatedJVM(compile_program(HELLO), env=env)
    machine.run("Main")
    log = machine.channel.backup_log()
    log.clear()
    assert machine.channel.backup_log()  # original unaffected


def test_double_failover_is_not_a_thing():
    """Once the primary crashed and the backup finished, a second run()
    on the same machine is a misuse: the primary is already bootstrapped."""
    env = Environment()
    machine = ReplicatedJVM(compile_program(HELLO), env=env,
                            config=ReplicationConfig(crash_at=2))
    machine.run("Main")
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        machine.run("Main")
