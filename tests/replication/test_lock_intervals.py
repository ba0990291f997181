"""Interval-coalesced lock replication (the §6 optimization, implemented)."""

import pytest

from repro.env.environment import Environment
from repro.errors import RecoveryError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.lock_intervals import BackupIntervalLockSync
from repro.replication.machine import ReplicatedJVM, parse_log
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import LockIntervalRecord, decode_record, encode
from repro.runtime.monitors import Monitor
from repro.runtime.threads import JavaThread, ThreadState

MULTI = """
class Counter {
    int n;
    synchronized void add(int d) { n = n + d; }
    synchronized int get() { return n; }
}
class W extends Thread {
    Counter c; int d;
    W(Counter c, int d) { this.c = c; this.d = d; }
    void run() { for (int i = 0; i < 100; i++) { c.add(d); } }
}
class Main {
    static void main(String[] args) {
        Counter c = new Counter();
        W a = new W(c, 1); W b = new W(c, 10);
        a.start(); b.start(); a.join(); b.join();
        System.println("total=" + c.get());
    }
}
"""


def test_interval_record_round_trip():
    rec = LockIntervalRecord((0, 3), 1234)
    assert decode_record(encode(rec)) == rec


def test_intervals_compress_the_log_versus_per_acquisition():
    def records_for(strategy):
        env = Environment()
        machine = ReplicatedJVM(compile_program(MULTI), env=env,
                                config=ReplicationConfig(strategy=strategy))
        machine.run("Main")
        machine.channel.flush()
        return machine, parse_log(machine.channel.backup_log())

    plain_machine, plain = records_for("lock_sync")
    interval_machine, intervals = records_for("lock_intervals")

    assert len(plain.lock_acqs) > 5 * len(intervals.intervals)
    assert interval_machine.primary_metrics.bytes_sent < \
        plain_machine.primary_metrics.bytes_sent
    # No id maps at all: lock identities never cross the wire.
    assert intervals.id_maps == []
    # The intervals cover every acquisition.
    covered = sum(r.count for r in intervals.intervals)
    assert covered == interval_machine.primary_metrics.locks_acquired


def test_interval_replay_reaches_identical_state():
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(
                                strategy="lock_intervals"))
    result = machine.run("Main")
    assert result.final_result.ok
    primary_digest = machine.primary_jvm.state_digest()
    replay = machine.replay_backup("Main")
    assert replay.ok
    assert machine.backup_jvm.state_digest() == primary_digest
    assert env.console.transcript() == "total=1100\n"


def test_interval_crash_sweep_exactly_once():
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(
                                strategy="lock_intervals"))
    machine.run("Main")
    events = machine.shipper.injector.events
    for crash_at in range(1, events + 1):
        env = Environment()
        machine = ReplicatedJVM(compile_program(MULTI), env=env,
                                config=ReplicationConfig(
                                    strategy="lock_intervals",
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.console.transcript() == "total=1100\n", crash_at


def _thread(vid):
    t = JavaThread(vid, None)
    t.state = ThreadState.RUNNABLE
    return t


def test_backup_enforces_interval_turns():
    backup = BackupIntervalLockSync(
        [LockIntervalRecord((0,), 2), LockIntervalRecord((0, 0), 1)],
        ReplicationMetrics(),
    )
    a, b = _thread((0,)), _thread((0, 0))
    m = Monitor()
    assert backup.may_acquire(b, m) is False
    assert backup.may_acquire(a, m) is True
    backup.on_acquired(a, m)
    assert backup.may_acquire(b, m) is False   # a's interval has 1 left
    backup.on_acquired(a, m)
    assert backup.may_acquire(b, m) is True    # now b's turn
    backup.on_acquired(b, m)
    assert not backup.in_recovery
    # Post-recovery: everyone admitted.
    assert backup.may_acquire(a, m) is True


def test_backup_detects_foreign_acquisition():
    backup = BackupIntervalLockSync(
        [LockIntervalRecord((0,), 1)], ReplicationMetrics(),
    )
    impostor = _thread((9,))
    with pytest.raises(RecoveryError, match="interval replay diverged"):
        backup.on_acquired(impostor, Monitor())


def test_single_threaded_program_is_one_interval_per_commit():
    source = """
        class Main {
            static Object lock = new Object();
            static void main(String[] args) {
                for (int i = 0; i < 50; i++) { synchronized (lock) { } }
                System.println("done");
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                strategy="lock_intervals"))
    machine.run("Main")
    machine.channel.flush()
    parsed = parse_log(machine.channel.backup_log())
    # All 50 acquisitions coalesce into a single interval (flushed at
    # the output commit for the println).
    assert len(parsed.intervals) == 1
    assert parsed.intervals[0].count == 50
