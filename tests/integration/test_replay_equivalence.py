"""Full-log replay equivalence: the backup, driven only by the log,
reconstructs the primary's exact final state (digest equality) for
every workload under both strategies — despite different scheduler
seeds, clock offsets, and entropy."""

import pytest

from repro.env.environment import Environment
from repro.errors import ReproError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.workloads import ALL_WORKLOADS


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_workload_replay_reaches_identical_state(workload, strategy):
    env = Environment()
    workload.prepare_env(env, "test")
    machine = ReplicatedJVM(workload.compile("test"), env=env,
                            config=ReplicationConfig(strategy=strategy))
    result = machine.run(workload.main_class)
    assert result.outcome == "primary_completed"
    assert result.final_result.ok
    primary_digest = machine.primary_jvm.state_digest()
    console_after_primary = env.console.transcript()

    replay = machine.replay_backup(workload.main_class)
    assert replay.ok, replay.uncaught
    assert machine.backup_jvm.state_digest() == primary_digest
    # Replay suppressed every output: nothing was emitted twice.
    assert env.console.transcript() == console_after_primary
    assert machine.backup_metrics.outputs_suppressed > 0


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_replay_consumes_every_logged_record(strategy):
    source = """
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
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy=strategy))
    machine.run("Main")
    machine.replay_backup("Main")
    backup = machine.backup_jvm
    if strategy == "lock_sync":
        assert not backup.sync.admission.in_recovery
        assert backup.sync.admission.remaining() == 0
    else:
        assert not backup.scheduler.controller.in_recovery
        assert backup.scheduler.controller.remaining() == 0
    assert machine.backup_metrics.records_replayed > 0


def test_thread_sched_replay_reproduces_racy_interleaving():
    """Under replicated thread scheduling even data races replay
    identically (R4B makes all shared data schedule-protected)."""
    source = """
        class Racer extends Thread {
            static int shared;
            static String trace = "";
            String tag;
            Racer(String tag) { this.tag = tag; }
            void run() {
                for (int i = 0; i < 80; i++) {
                    shared = shared + 1;
                    trace = trace + tag;
                }
            }
        }
        class Main {
            static void main(String[] args) {
                Racer a = new Racer("a"); Racer b = new Racer("b");
                a.start(); b.start(); a.join(); b.join();
                System.println(Racer.trace.hashCode() + ":" + Racer.shared);
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    primary_digest = machine.primary_jvm.state_digest()
    replay = machine.replay_backup("Main")
    assert replay.ok
    assert machine.backup_jvm.state_digest() == primary_digest


def test_backup_allocation_order_matches_primary():
    """Correct replay reproduces the allocation sequence, so heap oids
    coincide — the strong form of 'identical state transitions'."""
    source = """
        class Node { Node next; }
        class Builder extends Thread {
            static Node head;
            static Object lock = new Object();
            void run() {
                for (int i = 0; i < 30; i++) {
                    synchronized (lock) {
                        Node n = new Node();
                        n.next = head;
                        head = n;
                    }
                }
            }
        }
        class Main {
            static void main(String[] args) {
                Builder a = new Builder(); Builder b = new Builder();
                a.start(); b.start(); a.join(); b.join();
                System.println("built");
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    machine.replay_backup("Main")
    primary_oids = [o.oid for o in machine.primary_jvm.heap.objects]
    backup_oids = [o.oid for o in machine.backup_jvm.heap.objects]
    assert primary_oids == backup_oids
