"""Delta composition over monitors and GC, and against hostile deltas.

``test_checkpoint_fuzz.py`` proves composition on ``MUTATOR``, which
has no monitors and frees nothing reliably.  Here a producer/consumer
program with a small GC threshold drives the two paths it misses:

* monitor blocks that gain and lose entry queues and wait sets from
  one delta to the next, and monitors that go dead with their object;
* oids freed between deltas.

After every delta the composed basis must be byte-identical to a fresh
full capture.  Then each malformed delta must be refused with
:class:`ReplicationError`, and the basis it was offered must still
compose the genuine delta to the fresh capture afterwards.
"""

import pytest

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.minijava import compile_program
from repro.replication.checkpoint import (
    Checkpoint,
    DeltaCheckpoint,
    compose_delta,
    take_checkpoint,
    take_delta_checkpoint,
)
from repro.replication.sehandlers import SideEffectManager
from repro.runtime.jvm import JVM, JVMConfig, RunHooks
from repro.runtime.stdlib import default_natives
from repro.runtime.values import JArray, JObject

HANDOFF = """
    class Box {
        int v;
        synchronized void put(int x) { v = v + x; this.notifyAll(); }
        synchronized int take() {
            while (v == 0) { this.wait(); }
            int r = v; v = 0; return r;
        }
    }
    class Worker extends Thread {
        Box in; Box out; int n;
        Worker(Box in, Box out, int n) {
            this.in = in; this.out = out; this.n = n;
        }
        void run() {
            for (int i = 0; i < n; i++) {
                int x = in.take();
                Box tmp = new Box();
                synchronized (tmp) { tmp.v = x; int[] junk = new int[12]; }
                out.put(tmp.v + 1);
            }
        }
    }
    class Main {
        static Box shared;
        static void main(String[] args) {
            Box a = new Box();
            Box b = new Box();
            shared = b;
            Worker w1 = new Worker(a, b, 12);
            Worker w2 = new Worker(a, b, 12);
            w1.start(); w2.start();
            int total = 0;
            for (int i = 0; i < 24; i++) {
                a.put(1);
                total = total + b.take();
            }
            w1.join(); w2.join();
            System.println("" + total);
        }
    }
"""

#: Short quanta so threads interleave inside the monitors; a small GC
#: threshold so every few deltas free the dead ``tmp`` boxes.
CONFIG = JVMConfig(heap_gc_threshold=400, quantum_base=7, quantum_jitter=5)


class _Paused(Exception):
    pass


class _PauseAfter(RunHooks):
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
def handoff_registry():
    return compile_program(HANDOFF)


def _start(registry, slices=1):
    env = Environment()
    jvm = JVM(registry, default_natives(), env.attach("compose"), CONFIG)
    hooks = _PauseAfter()
    jvm.run_hooks = hooks
    jvm.bootstrap("Main", [])
    _run_slices(jvm, hooks, slices)
    return env, jvm, hooks


def test_monitor_and_gc_chain_composes_to_fresh_full(handoff_registry):
    env, jvm, hooks = _start(handoff_registry)
    se = SideEffectManager()
    basis = take_checkpoint(jvm, se, generation=1)
    jvm.heap.advance_era()

    freed = 0
    gained = {"entry": set(), "wait": set()}
    lost = {"entry": set(), "wait": set()}
    dead = set()
    before = {m[0]: m for m in basis.state().monitors}
    seq = 0
    done = False
    while not done:
        seq += 1
        done = _run_slices(jvm, hooks, 1)
        freed += len(jvm.heap.freed_oids())
        delta = take_delta_checkpoint(jvm, se, generation=1, seq=seq,
                                      base_seq=seq - 1, sched_epoch=seq)
        # A basis that arrived from the wire has no byte index yet; the
        # one parsed from its payload must splice the same bytes.
        wire = Checkpoint.decode(basis.encode())
        assert wire.index is None
        basis = compose_delta(basis, delta)
        assert compose_delta(wire, delta).payload == basis.payload
        fresh = take_checkpoint(jvm, se, generation=1, sched_epoch=seq)
        assert basis.payload == fresh.payload, seq
        assert basis.digest.diff(fresh.digest) == []

        after = {m[0]: m for m in fresh.state().monitors}
        for oid, block in after.items():
            old = before.get(oid)
            for name, pos in (("entry", 5), ("wait", 6)):
                had = bool(old and old[pos])
                if block[pos] and not had:
                    gained[name].add(oid)
                elif had and not block[pos]:
                    lost[name].add(oid)
        dead |= before.keys() - after.keys()
        before = after
        jvm.heap.advance_era()

    assert env.console.lines() == ["48"]
    assert seq > 20
    assert freed > 0
    assert gained["entry"] & lost["entry"]
    assert gained["wait"] & lost["wait"]
    assert dead


# ----------------------------------------------------------------------
# Hostile deltas
# ----------------------------------------------------------------------
def _ghost(oid):
    return JObject("Box", {"v": 0}, oid)


def _object(jvm, class_name):
    return next(obj for obj in jvm.heap.objects
                if isinstance(obj, JObject) and obj.class_name == class_name)


def _dirty(jvm, obj):
    obj.mut_era = jvm.heap.era


def _retype(jvm, basis):
    box = _object(jvm, "Box")
    retyped = JArray("int", [], box.oid)
    jvm.heap.objects[jvm.heap.objects.index(box)] = retyped
    _dirty(jvm, retyped)


def _unknown_in_body(jvm, basis):
    worker = _object(jvm, "Worker")
    worker.fields["in"] = _ghost(jvm.heap._next_oid + 50)
    _dirty(jvm, worker)


def _freed_in_body(jvm, basis):
    worker = _object(jvm, "Worker")
    worker.fields["in"] = _ghost(min(_freed_basis_oids(jvm, basis)))
    _dirty(jvm, worker)


def _unknown_in_static(jvm, basis):
    jvm.statics[("Main", "shared")] = _ghost(jvm.heap._next_oid + 50)


def _unknown_in_frame_local(jvm, basis):
    frame = jvm.main_thread.frames[0]
    frame.locals[0] = _ghost(jvm.heap._next_oid + 50)


def _dirty_twice(jvm, basis):
    box = _object(jvm, "Box")
    jvm.heap.objects.append(box)
    _dirty(jvm, box)


MUTATIONS = {
    "retyped_oid": (_retype, "re-types oid"),
    "oid_dirty_twice": (_dirty_twice, "twice"),
    "unknown_oid_in_dirty_body": (_unknown_in_body, "unknown oid"),
    "freed_oid_in_dirty_body": (_freed_in_body, "unknown oid"),
    "unknown_oid_in_static": (_unknown_in_static, "unknown oid"),
    "unknown_oid_in_frame_local": (_unknown_in_frame_local, "unknown oid"),
}


def _freed_basis_oids(jvm, basis):
    return jvm.heap.freed_oids() & basis.state().by_oid.keys()


def _genuine(registry):
    """A basis, then a state that freed some of its objects, captured
    two ways: the genuine delta and the fresh full snapshot it composes
    to."""
    env, jvm, hooks = _start(registry, slices=3)
    se = SideEffectManager()
    basis = take_checkpoint(jvm, se, generation=2)
    jvm.heap.advance_era()
    while not _freed_basis_oids(jvm, basis):
        assert not _run_slices(jvm, hooks, 1)
    delta = take_delta_checkpoint(jvm, se, generation=2, seq=1, base_seq=0)
    fresh = take_checkpoint(jvm, se, generation=2)
    return jvm, se, basis, delta, fresh


def _refused(basis, delta, fresh, hostile, match):
    """``hostile`` is refused; ``basis`` still composes ``delta``."""
    payload = basis.payload
    fields = (basis.generation, basis.digest, basis.sched_epoch)
    with pytest.raises(ReplicationError, match=match):
        compose_delta(basis, hostile)
    assert basis.payload is payload
    assert (basis.generation, basis.digest, basis.sched_epoch) == fields
    assert compose_delta(basis, delta).payload == fresh.payload


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_hostile_state_is_refused_and_basis_untouched(handoff_registry,
                                                      case):
    jvm, se, basis, delta, fresh = _genuine(handoff_registry)
    mutate, match = MUTATIONS[case]
    mutate(jvm, basis)
    hostile = take_delta_checkpoint(jvm, se, generation=2, seq=1,
                                    base_seq=0)
    _refused(basis, delta, fresh, hostile, match)


def _with_payload(delta, payload):
    return DeltaCheckpoint(delta.generation, delta.seq, delta.base_seq,
                           delta.sched_epoch, delta.digest, payload)


BYTE_CASES = {
    "truncated_half": (lambda p: p[:len(p) // 2], "truncated"),
    "truncated_last_byte": (lambda p: p[:-1], "truncated"),
    "trailing_bytes": (lambda p: p + b"\x00", "trailing bytes"),
    "wrong_state_version": (lambda p: b"\x63" + p[1:], "version 99"),
}


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_malformed_delta_bytes_are_refused_and_basis_untouched(
        handoff_registry, case):
    _, _, basis, delta, fresh = _genuine(handoff_registry)
    edit, match = BYTE_CASES[case]
    hostile = _with_payload(delta, edit(delta.payload))
    _refused(basis, delta, fresh, hostile, match)


def _unknown_kind(basis):
    payload = bytearray(basis.payload)
    payload[basis.heap_index().shells[0]] = 5
    return bytes(payload)


def _swap_first_two_objects(basis):
    # Re-encode with the first two heap objects exchanged.
    index = basis.heap_index()
    p = basis.payload
    shells, bodies = index.shells, index.bodies
    return (p[:shells[0]] + p[shells[1]:shells[2]] + p[shells[0]:shells[1]]
            + p[shells[2]:bodies[0]] + p[bodies[1]:bodies[2]]
            + p[bodies[0]:bodies[1]] + p[bodies[2]:])


WIRE_BASIS_CASES = {
    "truncated": (lambda b: b.payload[:-1], "truncated"),
    "trailing_bytes": (lambda b: b.payload + b"\x00", "trailing bytes"),
    "wrong_state_version": (lambda b: b"\x63" + b.payload[1:],
                            "version 99"),
    "unknown_object_kind": (_unknown_kind, "kind 5"),
    "oids_out_of_order": (_swap_first_two_objects, "ascending oid order"),
}


@pytest.mark.parametrize("case", sorted(WIRE_BASIS_CASES))
def test_malformed_wire_basis_is_refused(handoff_registry, case):
    """A basis that arrived from the wire is checked once, as its byte
    index is parsed, before anything is spliced from it."""
    _, _, basis, delta, _ = _genuine(handoff_registry)
    edit, match = WIRE_BASIS_CASES[case]
    wire = Checkpoint(basis.generation, basis.digest, edit(basis))
    with pytest.raises(ReplicationError, match=match):
        compose_delta(wire, delta)
