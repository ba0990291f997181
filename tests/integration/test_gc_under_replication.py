"""Garbage collection interacting with replication.

The paper's §4.3 concern: GC must not become a divergence channel.
With the mitigations in place (soft refs strong, finalizers detached
and local), replay must reach identical state even when collections
fire at allocation-pressure points, and even when primary and backup
use *different* heap thresholds (R0: environments differ)."""

import pytest

from dataclasses import replace

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.runtime.jvm import JVMConfig

CHURN = """
class Node { Node next; int[] payload; }
class Churner extends Thread {
    static Object lock = new Object();
    static int shared;
    void run() {
        Node head = null;
        for (int i = 0; i < 60; i++) {
            Node n = new Node();
            n.payload = new int[30];
            n.payload[0] = i;
            n.next = head;
            head = n;
            if (i % 8 == 0) { head = null; }  // drop garbage
            synchronized (lock) { shared = shared + 1; }
        }
    }
}
class Main {
    static void main(String[] args) {
        Churner a = new Churner(); Churner b = new Churner();
        a.start(); b.start(); a.join(); b.join();
        System.gc();
        System.println("shared=" + Churner.shared);
    }
}
"""


@pytest.mark.parametrize("strategy",
                         ["lock_sync", "thread_sched", "lock_intervals"])
def test_replay_identical_despite_gc_pressure(strategy):
    config = JVMConfig(heap_gc_threshold=4_000)
    env = Environment()
    machine = ReplicatedJVM(compile_program(CHURN), env=env,
                            config=ReplicationConfig(
                                strategy=strategy,
                                jvm_config=config))
    result = machine.run("Main")
    assert result.final_result.ok
    assert machine.primary_jvm.collector.stats.collections >= 1

    replay = machine.replay_backup("Main")
    assert replay.ok
    # GC freed objects, yet the digests (over *reachable* state) match.
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.transcript() == "shared=120\n"


def test_failover_with_gc_pressure():
    config = JVMConfig(heap_gc_threshold=4_000)
    env = Environment()
    machine = ReplicatedJVM(compile_program(CHURN), env=env,
                            config=ReplicationConfig(jvm_config=config))
    machine.run("Main")
    events = machine.shipper.injector.events
    step = max(1, events // 12)
    for crash_at in range(1, events + 1, step):
        env = Environment()
        machine = ReplicatedJVM(compile_program(CHURN), env=env,
                                config=ReplicationConfig(
                                    jvm_config=config,
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.console.transcript() == "shared=120\n", crash_at


def test_finalizers_do_not_perturb_replication_counters():
    """Finalizers run detached: br_cnt/mon_cnt of application threads
    must not depend on when collections happen, or thread-sched replay
    targets would never match."""
    source = """
        class Tracked {
            static int finalized;
            void finalize() { finalized = finalized + 1; }
        }
        class Main {
            static void main(String[] args) {
                for (int i = 0; i < 20; i++) {
                    Tracked t = new Tracked();
                }
                System.gc();
                System.println("finalized>=19: " + (Tracked.finalized >= 19));
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    result = machine.run("Main")
    assert result.final_result.ok
    replay = machine.replay_backup("Main")
    assert replay.ok
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.transcript() == "finalized>=19: true\n"
