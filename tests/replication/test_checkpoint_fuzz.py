"""Round-trip fuzzing of the checkpoint wire format.

The chunk framing and the snapshot envelope must be exact inverses:
``Checkpoint -> to_chunks -> CheckpointAssembler -> Checkpoint`` is the
identity for any payload, any chunk size, any delivery order, and any
amount of duplication (retransmission after a torn transfer).  On top
of the framing, two structurally interesting snapshots round-trip
through a full restore: an (almost) empty heap right after bootstrap,
and a machine frozen mid-``wait()`` with a thread parked on a monitor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.minijava import compile_program
from repro.replication.checkpoint import (
    Checkpoint,
    CheckpointAssembler,
    CheckpointChunkRecord,
    DeltaAssembler,
    compose_delta,
    restore_checkpoint,
    take_checkpoint,
    take_delta_checkpoint,
)
from repro.runtime.digest import StateDigest, compute_state_digest
from repro.replication.records import decode_record, encode
from repro.replication.sehandlers import SideEffectManager
from repro.runtime.jvm import JVM, RunHooks
from repro.runtime.stdlib import default_natives

digests = st.lists(
    st.tuples(st.text(min_size=1, max_size=12),
              st.integers(min_value=0, max_value=2**128 - 1)),
    max_size=4,
).map(lambda pairs: StateDigest(tuple(pairs)))


# ======================================================================
# Framing: encode/decode and chunk reassembly
# ======================================================================
@given(generation=st.integers(min_value=0, max_value=1000),
       digest=digests, payload=st.binary(max_size=600))
@settings(max_examples=60, deadline=None)
def test_checkpoint_encode_decode_roundtrip(generation, digest, payload):
    ckpt = Checkpoint(generation, digest, payload)
    assert Checkpoint.decode(ckpt.encode()) == ckpt


@given(generation=st.integers(min_value=0, max_value=50),
       payload=st.binary(max_size=600),
       chunk_bytes=st.integers(min_value=1, max_value=128),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_chunked_transfer_roundtrip_any_order(generation, payload,
                                              chunk_bytes, data):
    ckpt = Checkpoint(generation, StateDigest(()), payload)
    chunks = ckpt.to_chunks(chunk_bytes)
    # Each chunk survives the record wire format on its own.
    chunks = [decode_record(encode(c)) for c in chunks]
    order = data.draw(st.permutations(range(len(chunks))))

    assembler = CheckpointAssembler()
    for pos, index in enumerate(order):
        got = assembler.feed(chunks[index])
        if pos < len(order) - 1:
            assert got is None
            # Re-feeding an already-seen chunk (retransmission) is a
            # no-op and never completes the transfer early.
            assert assembler.feed(chunks[index]) is None
        else:
            assert got == ckpt
    # Post-completion duplicates are ignored too.
    assert assembler.feed(chunks[0]) is None


@given(payload=st.binary(min_size=80, max_size=300))
@settings(max_examples=20, deadline=None)
def test_inconsistent_chunk_total_is_rejected(payload):
    ckpt = Checkpoint(3, StateDigest(()), payload)
    chunks = ckpt.to_chunks(32)
    assert len(chunks) >= 2
    assembler = CheckpointAssembler()
    assembler.feed(chunks[0])
    forged = CheckpointChunkRecord(3, chunks[1].index,
                                   chunks[1].total + 1, chunks[1].data)
    with pytest.raises(ReplicationError):
        assembler.feed(forged)


# ======================================================================
# Full snapshots through a real restore
# ======================================================================
def _roundtrip(ckpt, registry, env):
    """Ship through chunks, reassemble, restore into a fresh session."""
    assembler = CheckpointAssembler()
    restored = None
    for chunk in ckpt.to_chunks(96):
        got = assembler.feed(decode_record(encode(chunk)))
        if got is not None:
            restored = got
    assert restored == ckpt
    session = env.attach("restore-fuzz")
    try:
        se = SideEffectManager()
        jvm = restore_checkpoint(restored, registry, default_natives(),
                                 session, se_manager=se)
        return compute_state_digest(jvm, include_env=False)
    finally:
        session.destroy()


def test_empty_heap_snapshot_roundtrips():
    registry = compile_program(
        "class Main { static void main(String[] args) {} }")
    env = Environment()
    session = env.attach("origin")
    jvm = JVM(registry, default_natives(), session)
    jvm.bootstrap("Main", [])
    ckpt = take_checkpoint(jvm, SideEffectManager(), generation=0)
    assert _roundtrip(ckpt, registry, env).diff(ckpt.digest) == []


def test_mid_monitor_wait_snapshot_roundtrips():
    """Freeze a machine while a thread is parked in ``wait()`` and
    round-trip it: waiter sets, monitor ownership, and the blocked
    thread's frame stack must all survive the wire."""
    registry = compile_program("""
        class Gate {
            synchronized void park() { this.wait(); }
            synchronized void release() { this.notify(); }
        }
        class Waiter extends Thread {
            Gate g;
            Waiter(Gate g) { this.g = g; }
            void run() { g.park(); }
        }
        class Main {
            static void main(String[] args) {
                Gate g = new Gate();
                Waiter w = new Waiter(g);
                w.start();
                while (!w.isAlive()) { Thread.yield(); }
                Thread.sleep(50);
                g.release();
                w.join();
                System.println("released");
            }
        }
    """)

    class _Pause(Exception):
        pass

    class PauseOnWait(RunHooks):
        def on_slice_end(self, jvm, thread, reason):
            if any(t.state.name == "WAITING"
                   for t in jvm.scheduler.threads):
                raise _Pause()

    env = Environment()
    session = env.attach("origin")
    jvm = JVM(registry, default_natives(), session)
    jvm.run_hooks = PauseOnWait()
    jvm.bootstrap("Main", [])
    with pytest.raises(_Pause):
        jvm.run_to_completion()
    jvm.scheduler.release_current()

    assert any(t.state.name == "WAITING" for t in jvm.scheduler.threads)
    ckpt = take_checkpoint(jvm, SideEffectManager(), generation=1)
    assert _roundtrip(ckpt, registry, env).diff(ckpt.digest) == []


# ======================================================================
# Incremental checkpoints: delta composition ≡ fresh full capture
# ======================================================================
MUTATOR = """
    class Node { int v; Node next; }
    class Main {
        static Node head;
        static int total;
        static void main(String[] args) {
            int[] arr = new int[24];
            for (int i = 0; i < 400; i++) {
                Node n = new Node();
                n.v = i; n.next = head; head = n;
                arr[i % 24] = arr[(i + 7) % 24] + i;
                if (i % 3 == 0) { head = head.next; }
                total = total + arr[i % 24];
            }
            System.println(total);
        }
    }
"""


class _Paused(Exception):
    pass


class _PauseAfter(RunHooks):
    """Stop the run loop after a budget of execution slices."""

    def __init__(self) -> None:
        self.budget = 0

    def on_slice_end(self, jvm, thread, reason):
        if self.budget <= 0:
            return
        self.budget -= 1
        if self.budget == 0:
            raise _Paused()


def _run_slices(jvm, hooks, n) -> bool:
    """Advance ``n`` slices; True if the program finished instead."""
    hooks.budget = n
    try:
        jvm.run_to_completion()
    except _Paused:
        jvm.scheduler.release_current()
        return False
    return True


@pytest.fixture(scope="module")
def mutator_registry():
    return compile_program(MUTATOR)


@given(boundaries=st.lists(st.integers(min_value=1, max_value=5),
                           min_size=2, max_size=5),
       chunk_bytes=st.integers(min_value=16, max_value=512))
@settings(max_examples=12, deadline=None)
def test_delta_chain_composes_to_fresh_full(mutator_registry, boundaries,
                                            chunk_bytes):
    """The bounded-log invariant, state-level: a full snapshot plus any
    chain of delta checkpoints, each framed through the chunk wire
    format and composed in order, is *byte-identical* to a fresh full
    checkpoint captured at the same execution point — dirty-object
    tracking missed nothing, freed oids were dropped, and composition
    reproduced the heap walk exactly."""
    env = Environment()
    session = env.attach("delta-fuzz")
    try:
        jvm = JVM(mutator_registry, default_natives(), session)
        hooks = _PauseAfter()
        jvm.run_hooks = hooks
        jvm.bootstrap("Main", [])

        _run_slices(jvm, hooks, boundaries[0])
        se = SideEffectManager()
        basis = take_checkpoint(jvm, se, generation=7, sched_epoch=0)
        jvm.heap.advance_era()

        for seq, steps in enumerate(boundaries[1:], start=1):
            done = _run_slices(jvm, hooks, steps)
            delta = take_delta_checkpoint(
                jvm, se, generation=7, seq=seq, base_seq=seq - 1,
                sched_epoch=seq,
            )
            # The delta must survive its own chunk framing before it
            # may touch the basis.
            assembler = DeltaAssembler()
            reassembled = None
            for chunk in delta.to_chunks(chunk_bytes):
                got = assembler.feed(decode_record(encode(chunk)))
                if got is not None:
                    reassembled = got
            assert reassembled == delta

            basis = compose_delta(basis, reassembled)
            fresh = take_checkpoint(jvm, se, generation=7, sched_epoch=seq)
            assert basis.digest.diff(fresh.digest) == []
            assert basis.payload == fresh.payload
            jvm.heap.advance_era()
            if done:
                break
    finally:
        session.destroy()


def test_composed_checkpoint_restores_and_verifies(mutator_registry):
    """A composed snapshot passes the restore-time digest check — the
    adoption path's gate — and the restored machine finishes the
    program with the same output as an undisturbed run."""
    env = Environment()
    session = env.attach("origin")
    jvm = JVM(mutator_registry, default_natives(), session)
    hooks = _PauseAfter()
    jvm.run_hooks = hooks
    jvm.bootstrap("Main", [])

    _run_slices(jvm, hooks, 2)
    se = SideEffectManager()
    basis = take_checkpoint(jvm, se, generation=0)
    jvm.heap.advance_era()
    _run_slices(jvm, hooks, 3)
    delta = take_delta_checkpoint(jvm, se, generation=0, seq=1, base_seq=0)
    composed = compose_delta(basis, delta)

    scratch = env.attach("adopted")
    try:
        restored = restore_checkpoint(composed, mutator_registry,
                                      default_natives(), scratch,
                                      se_manager=SideEffectManager())
        result = restored.run_to_completion()
        assert result.ok
    finally:
        scratch.destroy()
    # The originating machine, left undisturbed, prints the same total.
    jvm.run_hooks = RunHooks()
    assert jvm.run_to_completion().ok
    lines = env.console.lines()
    assert len(lines) == 2 and lines[0] == lines[1]


def test_out_of_order_delta_is_refused(mutator_registry):
    """Composing a delta onto a basis it was not captured against must
    fail loudly: generation and base-seq checks are load-bearing."""
    env = Environment()
    session = env.attach("origin")
    jvm = JVM(mutator_registry, default_natives(), session)
    hooks = _PauseAfter()
    jvm.run_hooks = hooks
    jvm.bootstrap("Main", [])
    _run_slices(jvm, hooks, 2)
    se = SideEffectManager()
    basis = take_checkpoint(jvm, se, generation=3)
    jvm.heap.advance_era()
    _run_slices(jvm, hooks, 2)
    delta = take_delta_checkpoint(jvm, se, generation=4, seq=1, base_seq=0)
    with pytest.raises(ReplicationError, match="generation"):
        compose_delta(basis, delta)


def test_tampered_digest_is_not_adopted():
    """Verification on arrival: a checkpoint whose digest does not match
    the state it restores to must be refused, not adopted."""
    registry = compile_program(
        "class Main { static void main(String[] args) {} }")
    env = Environment()
    session = env.attach("origin")
    jvm = JVM(registry, default_natives(), session)
    jvm.bootstrap("Main", [])
    ckpt = take_checkpoint(jvm, SideEffectManager(), generation=0)
    name, value = ckpt.digest.components[0]
    forged = Checkpoint(0, StateDigest(
        ((name, value ^ 1),) + ckpt.digest.components[1:]), ckpt.payload)

    scratch = env.attach("victim")
    try:
        with pytest.raises(ReplicationError):
            restore_checkpoint(forged, registry, default_natives(), scratch)
    finally:
        scratch.destroy()
