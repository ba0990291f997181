"""Hot backup: the paper's 'keeping the backup updated' extension.

A hot backup replays the log *during* normal operation, pausing
whenever it would need a record that has not been delivered yet
(starvation).  At failover only the undelivered tail remains, so
recovery work is near zero.  These tests cover all three strategies,
crash sweeps, and the recovery-work advantage over a cold backup.
"""

import pytest

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM

MULTI = """
class Counter {
    int n;
    synchronized void add(int d) { n = n + d; }
    synchronized int get() { return n; }
}
class W extends Thread {
    Counter c; int d;
    W(Counter c, int d) { this.c = c; this.d = d; }
    void run() { for (int i = 0; i < 80; i++) { c.add(d); } }
}
class Main {
    static void main(String[] args) {
        Counter c = new Counter();
        W a = new W(c, 1); W b = new W(c, 10);
        a.start(); b.start(); a.join(); b.join();
        System.println("total=" + c.get());
        int fd = Files.open("out.txt", "w");
        Files.writeLine(fd, "v=" + c.get());
        Files.close(fd);
    }
}
"""

STRATEGIES = ("lock_sync", "thread_sched", "lock_intervals")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hot_backup_tracks_primary_to_identical_state(strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(
                                strategy=strategy,
                                hot_backup=True))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    # The backup ran alongside and reached the same state, with every
    # output suppressed (no duplicates on the console or in the file).
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.transcript() == "total=880\n"
    assert env.fs.contents("out.txt") == "v=880\n"
    assert machine.backup_metrics.outputs_suppressed >= 2


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_hot_backup_crash_sweep(strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(
                                strategy=strategy,
                                hot_backup=True))
    machine.run("Main")
    events = machine.shipper.injector.events
    step = max(1, events // 20)
    for crash_at in range(1, events + 1, step):
        env = Environment()
        machine = ReplicatedJVM(compile_program(MULTI), env=env,
                                config=ReplicationConfig(
                                    strategy=strategy,
                                    hot_backup=True,
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.failed_over, crash_at
        assert result.final_result.ok, crash_at
        assert env.console.transcript() == "total=880\n", crash_at
        assert env.fs.contents("out.txt") == "v=880\n", crash_at


def test_hot_backup_reduces_recovery_work():
    """At the crash, a cold backup must replay the whole delivered log;
    the hot backup has already consumed all but the most recent batch."""
    source = """
        class Main {
            static Object lock = new Object();
            static void main(String[] args) {
                int acc = 0;
                for (int i = 0; i < 400; i++) {
                    synchronized (lock) { acc = acc + i; }
                }
                System.println(acc);
                for (int i = 0; i < 400; i++) {
                    synchronized (lock) { acc = acc + 1; }
                }
                System.println(acc);
            }
        }
    """
    # Find a late crash point.
    probe_env = Environment()
    probe = ReplicatedJVM(compile_program(source), env=probe_env,
                          config=ReplicationConfig(strategy="lock_sync"))
    probe.run("Main")
    crash_at = probe.shipper.injector.events - 1

    env = Environment()
    hot = ReplicatedJVM(compile_program(source), env=env,
                        config=ReplicationConfig(
                            strategy="lock_sync",
                            hot_backup=True,
                            crash_at=crash_at))
    result = hot.run("Main")
    assert result.failed_over and result.final_result.ok
    hot_total = hot.backup_jvm.instructions

    env = Environment()
    cold = ReplicatedJVM(compile_program(source), env=env,
                         config=ReplicationConfig(
                             strategy="lock_sync",
                             crash_at=crash_at))
    result = cold.run("Main")
    assert result.failed_over and result.final_result.ok
    cold_total = cold.backup_jvm.instructions

    # Both backups execute roughly the same program in total...
    assert abs(hot_total - cold_total) < cold_total * 0.05
    # ...but the hot backup did nearly all of it *before* the crash:
    # its post-crash recovery work is a small fraction of the cold
    # backup's full-log replay.
    hot_recovery = hot_total - hot.hot_precrash_instructions
    assert hot_recovery < cold_total * 0.25, (hot_recovery, cold_total)


def test_hot_backup_starves_rather_than_running_ahead():
    """During normal operation the hot backup never executes an output
    the primary has not yet committed — the console shows each line
    exactly once even though two JVMs execute the program."""
    source = """
        class Main {
            static void main(String[] args) {
                for (int i = 0; i < 6; i++) {
                    System.println("line " + i);
                }
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                strategy="lock_sync",
                                hot_backup=True))
    machine.run("Main")
    assert env.console.lines() == [f"line {i}" for i in range(6)]
    assert machine.backup_metrics.outputs_reexecuted == 0


def test_hot_backup_single_threaded_thread_sched():
    """Single-threaded programs log no schedule records; the hot TS
    backup paces itself on native records alone."""
    source = """
        class Main {
            static void main(String[] args) {
                int t = System.currentTimeMillis();
                System.println("ok " + (t > 0));
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                strategy="thread_sched",
                                hot_backup=True))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.lines() == ["ok true"]
