"""Negative results the paper predicts: where replication breaks.

The paper is explicit that replicated lock acquisition is only sound
under R4A (no data races) and that soft references are a divergence
channel (§4.3).  These tests *demonstrate* both failure modes, plus the
baseline fact that un-replicated schedules genuinely diverge (the
threat the whole system exists to handle)."""

import pytest

from repro.env.environment import Environment
from repro.errors import DivergenceError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import (
    DEFAULT_BACKUP,
    DEFAULT_PRIMARY,
    ReplicatedJVM,
    run_unreplicated,
)
from repro.runtime.jvm import JVMConfig

RACY = """
    class Racer extends Thread {
        static int shared;
        void run() {
            for (int i = 0; i < 400; i++) {
                int tmp = shared;
                int pad = 0;
                for (int k = 0; k < 6; k++) { pad = pad + k; }
                shared = tmp + 1 + pad - pad;
            }
        }
    }
    class Main {
        static void main(String[] args) {
            Racer a = new Racer(); Racer b = new Racer();
            a.start(); b.start(); a.join(); b.join();
            System.println(Racer.shared);
        }
    }
"""


def test_unreplicated_replicas_diverge_without_coordination():
    """Identical program + identical inputs but different scheduler
    seeds produce different results — the paper's problem statement."""
    results = set()
    for settings in (DEFAULT_PRIMARY, DEFAULT_BACKUP):
        env = Environment()
        _, jvm = run_unreplicated(
            compile_program(RACY), "Main", env=env, settings=settings,
        )
        results.add(env.console.transcript())
    assert len(results) == 2


#: Two workers race an unsynchronized read-modify-write on one field;
#: every bit of the result lives in the heap, none in the statics.
RACY_CELL = """
    class Cell { int state; }
    class Worker extends Thread {
        Cell cell;
        Worker(Cell c) { this.cell = c; }
        void run() {
            for (int i = 0; i < 400; i++) {
                this.cell.state = this.cell.state * 3 + i;
            }
        }
    }
    class Main {
        static void main(String[] args) {
            Cell cell = new Cell();
            Worker a = new Worker(cell);
            Worker b = new Worker(cell);
            a.start(); b.start(); a.join(); b.join();
        }
    }
"""


def _racy_cell(strategy, digest_interval=None):
    machine = ReplicatedJVM(
        compile_program(RACY_CELL), env=Environment(),
        config=ReplicationConfig(strategy=strategy,
                                 digest_interval=digest_interval))
    assert machine.run("Main").final_result.ok
    return machine


def test_racy_cell_replays_to_the_same_state_under_thread_sched():
    machine = _racy_cell("thread_sched")
    assert machine.replay_backup("Main").ok
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()


def test_racy_cell_state_digest_sees_the_lock_sync_divergence():
    """R4A is violated: the backup replays the lock order (there is
    none) but not the interleaving, finishes cleanly, and holds another
    state — which only a digest of that state can tell."""
    machine = _racy_cell("lock_sync")
    assert machine.replay_backup("Main").ok
    assert machine.backup_jvm.state_digest() != \
        machine.primary_jvm.state_digest()


def test_racy_cell_final_digest_check_raises_under_lock_sync():
    machine = _racy_cell("lock_sync", digest_interval=4)
    with pytest.raises(DivergenceError) as excinfo:
        machine.replay_backup("Main")
    assert excinfo.value.components == ("heap",)


def test_figure1_data_race_defeats_lock_replication():
    """The paper's Figure 1: a guard not protected by a monitor lets
    different schedules invoke a synchronized method a different number
    of times, so the lock acquisition *sequence itself* differs between
    seeds — lock-order replication cannot replicate what is not a
    function of lock order."""
    source = """
        class Formatter {
            static int constructed;
            Formatter() { constructed = constructed + 1; }
        }
        class Example extends Thread {
            static Formatter shared_data = null;     // Figure 1, line 2
            static Object lock = new Object();
            static int inits;
            void run() {
                int warm = 0;
                for (int k = 0; k < 40; k++) { warm = warm + k; }
                if (shared_data == null) {            // guard NOT in a monitor
                    int pad = 0;
                    for (int k = 0; k < 30; k++) { pad = pad + k; }
                    shared_data = new Formatter();
                    synchronized (lock) {
                        inits = inits + 1 + warm - warm + pad - pad;
                    }
                }
            }
        }
        class Main {
            static void main(String[] args) {
                Example a = new Example(); Example b = new Example();
                a.start(); b.start(); a.join(); b.join();
                System.println(Example.inits + "/" + Formatter.constructed);
            }
        }
    """
    acquisition_profiles = set()
    for seed in range(12):
        env = Environment()
        from repro.replication.machine import ReplicaSettings
        _, jvm = run_unreplicated(
            compile_program(source), "Main", env=env,
            settings=ReplicaSettings(seed, 0, seed),
        )
        acquisition_profiles.add(
            (jvm.sync.total_acquisitions, env.console.transcript())
        )
    # Different seeds produce different lock-acquisition sequences:
    # R4A is violated and the technique's precondition fails.
    assert len(acquisition_profiles) > 1


def test_soft_reference_divergence_without_mitigation():
    """§4.3: with soft references actually collectible, replicas with
    different GC pressure diverge.  We model the 'different
    environments' with different heap thresholds (R0)."""
    source = """
        class Main {
            static void main(String[] args) {
                SoftReference cache = new SoftReference(new Object());
                int[] pressure = new int[2000];
                pressure[0] = 1;
                System.gc();
                if (cache.get() == null) {
                    System.println("cache MISS path");
                } else {
                    System.println("cache HIT path");
                }
            }
        }
    """
    outcomes = set()
    for strong in (True, False):
        env = Environment()
        config = JVMConfig(soft_refs_strong=strong)
        _, _ = run_unreplicated(compile_program(source), "Main", env=env,
                                jvm_config=config)
        outcomes.add(env.console.transcript())
    assert outcomes == {"cache HIT path\n", "cache MISS path\n"}


def test_soft_reference_mitigation_keeps_replicas_identical():
    """With the paper's treat-as-strong mitigation, GC pressure
    differences are invisible: both 'replicas' take the HIT path."""
    source = """
        class Main {
            static void main(String[] args) {
                SoftReference cache = new SoftReference(new Object());
                int[] pressure = new int[2000];
                pressure[0] = 1;
                System.gc();
                System.println(cache.get() != null);
            }
        }
    """
    outcomes = set()
    for threshold in (3_000, 4_000_000):
        env = Environment()
        config = JVMConfig(heap_gc_threshold=threshold)
        run_unreplicated(compile_program(source), "Main", env=env,
                         jvm_config=config)
        outcomes.add(env.console.transcript())
    assert outcomes == {"true\n"}
