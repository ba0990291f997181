"""State digests: computation, wire round-trip, lockstep verification,
divergence detection on a corrupted replay, and the incremental
(dirty-set) digester agreeing with the full walk at every epoch."""

import pytest

from repro.env.environment import Environment
from repro.errors import DivergenceError, ReplicationError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.digest import (
    DigestRecord,
    DigestVerifier,
    IncrementalStateDigest,
)
from repro.replication.machine import ReplicatedJVM, parse_log
from repro.replication.records import decode_record, encode
from repro.runtime.digest import COMPONENTS, StateDigest, compute_state_digest
from repro.runtime.jvm import RunHooks
from repro.runtime.values import JObject

COUNTER = """
class Counter {
    int value;
    synchronized void inc() { this.value = this.value + 1; }
    synchronized int get() { return this.value; }
}
class Worker extends Thread {
    Counter counter;
    int reps;
    Worker(Counter c, int reps) { this.counter = c; this.reps = reps; }
    void run() {
        int i = 0;
        while (i < this.reps) { this.counter.inc(); i = i + 1; }
    }
}
class Main {
    static void main() {
        Counter c = new Counter();
        Worker a = new Worker(c, 6);
        Worker b = new Worker(c, 6);
        a.start();
        b.start();
        a.join();
        b.join();
        System.println("total=" + c.get());
    }
}
"""


def _machine(strategy="thread_sched", **kw):
    kw.setdefault("digest_interval", 1)
    return ReplicatedJVM(compile_program(COUNTER), env=Environment(),
                         config=ReplicationConfig(strategy=strategy, **kw))


# ======================================================================
# StateDigest / compute_state_digest
# ======================================================================
def test_digest_components_and_diff():
    machine = _machine()
    machine.run("Main")
    digest = compute_state_digest(machine.primary_jvm, machine.env)
    assert tuple(name for name, _ in digest.components) == COMPONENTS
    assert digest.diff(digest) == []
    tweaked = StateDigest(tuple(
        (name, value ^ 1 if name == "heap" else value)
        for name, value in digest.components
    ))
    assert digest.diff(tweaked) == ["heap"]


def test_digest_is_oid_insensitive():
    """Two runs with different allocation histories but equal state
    digest identically — references are named by visit order."""
    source = """
    class Box { int v; }
    class Main {
        static Box keep;
        static void main() {
            %s
            Box b = new Box();
            b.v = 42;
            Main.keep = b;
        }
    }
    """
    digests = []
    for garbage in ("", "Box g1 = new Box(); Box g2 = new Box();"):
        machine = ReplicatedJVM(compile_program(source % garbage),
                                env=Environment())
        machine.run("Main")
        digests.append(compute_state_digest(machine.primary_jvm))
    assert digests[0].diff(digests[1], names=("heap",)) == []


# ======================================================================
# Incremental digester vs full walk
# ======================================================================
class _IncrementalComparer(RunHooks):
    """At every slice end, the incremental digester must agree with a
    fresh full walk — over live, still-mutating state."""

    def __init__(self, env):
        self.env = env
        self.digester = None
        self.compared = 0

    def on_slice_end(self, jvm, thread, reason):
        if self.digester is None:
            self.digester = IncrementalStateDigest(jvm, self.env)
        incremental = self.digester.compute()
        full = compute_state_digest(jvm, self.env)
        assert incremental.components == full.components, \
            incremental.diff(full)
        self.compared += 1


def test_incremental_digest_matches_full_walk_every_slice():
    from repro.runtime.jvm import JVM, JVMConfig
    from repro.runtime.stdlib import default_natives

    env = Environment()
    jvm = JVM(compile_program(COUNTER), default_natives(),
              env.attach("inc"),
              JVMConfig(quantum_base=20, quantum_jitter=8))
    comparer = _IncrementalComparer(env)
    jvm.run_hooks = comparer
    result = jvm.run("Main")
    assert result.ok, result.uncaught
    assert comparer.compared > 3
    # Steady state actually reuses cached hashes — the point of the
    # dirty-set walk — while still re-hashing what mutated.
    assert comparer.digester.items_reused > 0
    assert comparer.digester.items_hashed > 0


def test_incremental_digest_sees_quiescence_and_mutation():
    machine = _machine()
    machine.run("Main")
    jvm = machine.primary_jvm
    digester = IncrementalStateDigest(jvm, machine.env)
    first = digester.compute()
    hashed_cold = digester.items_hashed

    # Nothing mutated: the second pass reuses every object hash and
    # reports the identical digest.
    second = digester.compute()
    assert second.components == first.components
    assert digester.items_hashed == hashed_cold

    # A field write stamped with the heap era (as every interpreter
    # mutation site stamps it) re-hashes that object and changes the
    # heap component.
    counter = next(
        obj for obj in jvm.heap.objects
        if getattr(obj, "class_name", None) == "Counter"
    )
    counter.fields["value"] += 1
    counter.mut_era = jvm.heap.era
    third = digester.compute()
    assert third.diff(first) == ["heap"]
    assert third.components == \
        compute_state_digest(jvm, machine.env).components


# ======================================================================
# DigestRecord on the wire
# ======================================================================
def test_digest_record_round_trips():
    record = DigestRecord(7, True, (("heap", (1 << 127) + 12345),
                                    ("env", 0)))
    decoded = decode_record(encode(record))
    assert decoded == record
    assert decoded.digest.as_dict()["heap"] == (1 << 127) + 12345


def test_digest_kind_is_core_reserved():
    from repro.replication.records import KIND_DIGEST, register_record_kind
    with pytest.raises(ReplicationError, match="already registered"):
        register_record_kind(KIND_DIGEST, DigestRecord.read, core=True)


def test_parse_log_buckets_digest_records():
    record = DigestRecord(1, False, (("heap", 5),))
    parsed = parse_log([encode(record)])
    assert parsed.digests == [record]


# ======================================================================
# Primary emission + backup verification
# ======================================================================
def test_primary_emits_periodic_and_final_digests():
    machine = _machine("thread_sched", digest_interval=1)
    machine.run("Main")
    assert machine.primary_metrics.digest_records >= 2
    assert machine.primary_metrics.digest_bytes > 0
    parsed = parse_log(machine.channel.backup_log())
    periodic = [r for r in parsed.digests if not r.final]
    finals = [r for r in parsed.digests if r.final]
    assert len(periodic) == machine.primary_metrics.schedule_records
    assert len(finals) == 1


def test_lock_sync_emits_final_digest_only():
    """Without a replicated interleaving, mid-run global states are not
    comparable: lock_sync ships exactly one end-of-run digest."""
    machine = _machine("lock_sync", digest_interval=1)
    machine.run("Main")
    parsed = parse_log(machine.channel.backup_log())
    assert [r.final for r in parsed.digests] == [True]


def test_replay_verifies_every_epoch():
    machine = _machine("thread_sched", digest_interval=1)
    machine.run("Main")
    result = machine.replay_backup("Main")
    assert result.ok
    verifier = machine._backup.verifier
    assert verifier.final_verified
    assert verifier.epochs_verified == \
        machine.primary_metrics.digest_records
    assert verifier.pending == 0


@pytest.mark.parametrize("strategy", ["thread_sched", "lock_sync"])
def test_failover_sweep_passes_digest_checks(strategy):
    probe = _machine(strategy)
    probe.run("Main")
    reference = compute_state_digest(probe.primary_jvm)
    events = probe.shipper.injector.events
    for crash_at in range(1, events + 1):
        machine = probe.clone(crash_at=crash_at)
        result = machine.run("Main")
        assert result.failed_over, crash_at
        assert result.final_result.ok, crash_at
        final = compute_state_digest(machine.backup_jvm)
        assert reference.diff(final) == [], crash_at


def test_digest_disabled_by_default():
    machine = ReplicatedJVM(compile_program(COUNTER), env=Environment(),
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    assert machine.primary_metrics.digest_records == 0
    assert parse_log(machine.channel.backup_log()).digests == []


def test_clone_carries_digest_interval():
    machine = _machine(digest_interval=3)
    assert machine.clone().digest_interval == 3
    assert machine.clone(digest_interval=None).digest_interval is None


# ======================================================================
# Corrupted replay is caught at the first divergent epoch
# ======================================================================
class _CorruptingHooks(RunHooks):
    """Mutates a Counter object's field on the backup mid-replay, then
    delegates to the verifier's hooks — modelling silent state
    corruption that output comparison would never see."""

    def __init__(self, inner, after_epoch, epoch_source):
        self._inner = inner
        self._after = after_epoch
        self._epochs = epoch_source
        self.corrupted_at = None

    def _maybe_corrupt(self, jvm):
        if self.corrupted_at is None and self._epochs() >= self._after:
            for thread in jvm.scheduler.threads:
                for frame in thread.frames:
                    for value in frame.locals:
                        if (isinstance(value, JObject)
                                and value.class_name == "Counter"):
                            value.fields["value"] += 100
                            self.corrupted_at = self._epochs()
                            return

    def on_slice_end(self, jvm, thread, reason):
        self._maybe_corrupt(jvm)
        self._inner.on_slice_end(jvm, thread, reason)

    def on_exit(self, jvm, result):
        self._inner.on_exit(jvm, result)


def test_corrupted_replay_raises_divergence_error():
    machine = _machine("thread_sched", digest_interval=1)
    machine.run("Main")
    assert machine.primary_metrics.digest_records > 2

    replayer = machine._build_backup(hold=False, boot=("Main", None))
    backup = replayer.jvm
    hooks = _CorruptingHooks(
        backup.run_hooks, after_epoch=1,
        epoch_source=replayer.driver.digest_epoch_source(),
    )
    backup.run_hooks = hooks
    with pytest.raises(DivergenceError) as excinfo:
        backup.run_to_completion()
    err = excinfo.value
    assert hooks.corrupted_at is not None
    # Caught at the first digest epoch after the corruption, naming the
    # corrupted component.
    assert "heap" in err.components
    assert err.epoch > hooks.corrupted_at - 1
    assert f"epoch {err.epoch}" in str(err)


def test_verifier_reports_first_divergent_epoch_in_order(monkeypatch):
    base = (("heap", 1), ("frames", 2), ("monitors", 3), ("sched", 4))
    bad = (("heap", 99), ("frames", 2), ("monitors", 3), ("sched", 4))

    class _FrozenJVM:
        pass

    records = [DigestRecord(1, False, base), DigestRecord(2, False, bad)]
    epochs = {"n": 0}
    verifier = DigestVerifier(records, None,
                              epoch_source=lambda: epochs["n"])

    monkeypatch.setattr(IncrementalStateDigest, "compute",
                        lambda self, include_env=True: StateDigest(base))
    epochs["n"] = 2
    with pytest.raises(DivergenceError) as excinfo:
        verifier.check_slice(_FrozenJVM())
    assert excinfo.value.epoch == 2
    assert excinfo.value.components == ("heap",)
    assert verifier.epochs_verified == 1
