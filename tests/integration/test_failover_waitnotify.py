"""Failover through condition synchronization (wait/notify).

The hardest replay territory: threads block in wait sets, wake via
notify, and re-acquire monitors — the re-acquisition is itself a
logged lock acquisition (the paper stores the monitor's l_asn in the
schedule record for exactly this reason).  These tests crash-sweep a
producer-consumer pipeline under both strategies."""

import pytest

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM

PIPELINE = """
class Cell {
    int value;
    boolean full;
    synchronized void put(int v) {
        while (full) { this.wait(); }
        value = v; full = true;
        this.notifyAll();
    }
    synchronized int take() {
        while (!full) { this.wait(); }
        full = false;
        this.notifyAll();
        return value;
    }
}

class Producer extends Thread {
    Cell cell; int n;
    Producer(Cell c, int n) { cell = c; this.n = n; }
    void run() {
        for (int i = 1; i <= n; i++) { cell.put(i * i); }
        cell.put(-1);
    }
}

class Consumer extends Thread {
    Cell cell;
    int total;
    Consumer(Cell c) { cell = c; }
    void run() {
        int v = cell.take();
        while (v != -1) {
            total = total + v;
            v = cell.take();
        }
    }
}

class Main {
    static void main(String[] args) {
        Cell cell = new Cell();
        Producer p = new Producer(cell, 12);
        Consumer c = new Consumer(cell);
        p.start(); c.start();
        p.join(); c.join();
        System.println("total=" + c.total);
    }
}
"""

EXPECTED = "total=650\n"  # sum of squares 1..12


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_pipeline_replicates_without_failure(strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(PIPELINE), env=env,
                            config=ReplicationConfig(strategy=strategy))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    assert env.console.transcript() == EXPECTED
    replay = machine.replay_backup("Main")
    assert replay.ok
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.transcript() == EXPECTED  # suppressed on replay


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_pipeline_crash_sweep(strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(PIPELINE), env=env,
                            config=ReplicationConfig(strategy=strategy))
    machine.run("Main")
    total_events = machine.shipper.injector.events
    assert total_events > 10

    step = max(1, total_events // 30)
    for crash_at in range(1, total_events + 1, step):
        env = Environment()
        machine = ReplicatedJVM(compile_program(PIPELINE), env=env,
                                config=ReplicationConfig(
                                    strategy=strategy,
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.failed_over, crash_at
        assert result.final_result.ok, (crash_at,
                                        result.final_result.uncaught)
        assert env.console.transcript() == EXPECTED, crash_at


def test_multiple_waiters_wake_in_replayed_order():
    """Three consumers share one queue; the order in which they drain
    items is schedule-dependent, so replay must pin it.  We verify by
    digest equality under thread scheduling."""
    source = """
        class Queue {
            int[] items;
            int head; int tail;
            Queue(int cap) { items = new int[cap]; }
            synchronized void push(int v) {
                items[tail] = v; tail = tail + 1;
                this.notifyAll();
            }
            synchronized int pop() {
                while (head == tail) { this.wait(); }
                int v = items[head];
                head = head + 1;
                return v;
            }
        }
        class Drainer extends Thread {
            Queue q; int got;
            Drainer(Queue q) { this.q = q; }
            void run() {
                for (int i = 0; i < 4; i++) { got = got + q.pop(); }
            }
        }
        class Main {
            static void main(String[] args) {
                Queue q = new Queue(64);
                Drainer[] ds = new Drainer[3];
                for (int i = 0; i < 3; i++) {
                    ds[i] = new Drainer(q);
                    ds[i].start();
                }
                for (int v = 1; v <= 12; v++) { q.push(v); }
                int sum = 0;
                for (int i = 0; i < 3; i++) {
                    ds[i].join();
                    sum = sum + ds[i].got;
                }
                System.println("sum=" + sum);
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    result = machine.run("Main")
    assert result.final_result.ok
    assert env.console.transcript() == "sum=78\n"
    machine.replay_backup("Main")
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
