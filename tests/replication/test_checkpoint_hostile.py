"""Hostile checkpoint bytes end in ``ReplicationError`` or adoption.

A backup composes every delta onto its basis and restores the result
before adopting it.  Whatever bytes arrive, that must either refuse
them with a typed ``ReplicationError`` or adopt a state whose digest
matches: never a ``KeyError`` from an oid nothing resolves, a
``ValueError`` from an enum name, or a ``LinkageError`` from a method
name.  The class-lock table is checked on its own, because the digest
hashes a class lock only once its monitor has been used.
"""

import random

import pytest

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.fleet.fleet import Fleet
from repro.fleet.traffic import TrafficSpec, generate
from repro.replication.checkpoint import (
    Checkpoint,
    DeltaCheckpoint,
    _encode_state,
    _read_state,
    compose_delta,
    restore_checkpoint,
)
from repro.replication.config import ReplicationConfig
from repro.replication.core import ReplicaSet


@pytest.fixture(scope="module")
def served():
    """The last steady delta of a served shard, the basis it composes
    onto, and what a restore needs."""
    adopted = []
    spied = ReplicaSet._adopt_steady

    def spy(self, composed, delta):
        if delta is not None:
            adopted.append((self._ckpt, delta))
        spied(self, composed, delta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ReplicaSet, "_adopt_steady", spy)
        fleet = Fleet(1, config=ReplicationConfig(checkpoint_interval=32))
        group = fleet.groups[0]
        fleet.start()
        for request in generate(TrafficSpec(n_requests=200, seed=5)):
            fleet.submit(request.text)
            group.pump()
        fleet.stop()
    base, delta = adopted[-1]
    return base, delta, group.registry, group.natives


def _adopt(served, checkpoint):
    _, _, registry, natives = served
    env = Environment()
    session = env.attach("hostile")
    try:
        restore_checkpoint(checkpoint, registry, natives, session)
    finally:
        session.destroy()


def _mutate(rng, payload: bytes) -> bytes:
    data = bytearray(payload)
    kind = rng.randrange(3)
    if kind == 0:
        bit = rng.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
    elif kind == 1:
        del data[rng.randrange(len(data)):]
    else:
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def test_mutated_deltas_and_bases_are_refused_or_adopted(served):
    base, delta, _, _ = served
    rng = random.Random(20030622)
    refused = 0
    for i in range(3000):
        if i % 2:
            tampered = DeltaCheckpoint(
                delta.generation, delta.seq, delta.base_seq,
                delta.sched_epoch, delta.digest,
                _mutate(rng, delta.payload))

            def attempt():
                _adopt(served, compose_delta(base, tampered))
        else:
            tampered = Checkpoint(base.generation, base.digest,
                                  _mutate(rng, base.payload),
                                  base.sched_epoch)

            def attempt():
                tampered.heap_index()
                _adopt(served, tampered)
        try:
            attempt()
        except ReplicationError:
            refused += 1
        except Exception as exc:
            pytest.fail(f"mutation {i} escaped as {exc!r}")
    assert refused > 2000


# ----------------------------------------------------------------------
# One field at a time, through the structured state
# ----------------------------------------------------------------------
def _tampered(served, edit) -> Checkpoint:
    base = served[0]
    state = _read_state(base.payload)
    edit(state)
    return Checkpoint(base.generation, base.digest,
                      _encode_state(state)[0], base.sched_epoch)


def _main(state):
    return next(t for t in state.threads if t["frames"])


def _bad_oid(state):
    return max(state.by_oid) + 1


def _set_sync(state):
    _main(state)["frames"][0]["sync_oid"] = _bad_oid(state)


def _add_held(state):
    _main(state)["frames"][0]["held_oids"].append(_bad_oid(state))


def _set_thread_object(state):
    _main(state)["thread_object_oid"] = _bad_oid(state)


def _set_blocked_on(state):
    _main(state)["blocked_on_oid"] = _bad_oid(state)


def _set_class_lock(state):
    state.class_locks["Main"] = _bad_oid(state)


@pytest.mark.parametrize("edit", [
    _set_sync, _add_held, _set_thread_object, _set_blocked_on,
    _set_class_lock,
], ids=["sync-oid", "held-oid", "thread-object-oid", "blocked-on-oid",
        "class-lock-oid"])
def test_an_unresolvable_oid_is_refused_before_restore(served, edit):
    tampered = _tampered(served, edit)
    with pytest.raises(ReplicationError, match="unknown oid"):
        tampered.heap_index()
    with pytest.raises(ReplicationError, match="unknown oid"):
        _adopt(served, tampered)


def _rename_state(state):
    _main(state)["state"] = "star~ed"


def _rename_reason(state):
    state.last_reason = "quantun"


def _rename_method(state):
    _main(state)["frames"][0]["method"] = "mayn"


def _list_key(state):
    state.se_state = {(1, 2): 3}


@pytest.mark.parametrize("edit, message", [
    (_rename_state, "names no ThreadState 'star~ed'"),
    (_rename_reason, "names no SliceEnd 'quantun'"),
    (_rename_method, "does not link"),
    (_list_key, "dict key is a list"),
], ids=["thread-state", "slice-end", "method", "dict-key"])
def test_a_misnamed_field_is_a_replication_error(served, edit, message):
    with pytest.raises(ReplicationError, match=message):
        _adopt(served, _tampered(served, edit))


# ----------------------------------------------------------------------
# The class-lock table
# ----------------------------------------------------------------------
def _share_lock(state):
    names = sorted(state.class_locks)
    state.class_locks[names[0]] = state.class_locks[names[1]]


def _rename_lock(state):
    state.class_locks["Mayn"] = state.class_locks.pop("Main")


def _lock_on_kv(state):
    kv = next(obj for obj in state.objects
              if getattr(obj, "class_name", None) == "Kv")
    state.class_locks["Main"] = kv.oid


def _lock_on_array(state):
    array = next(obj for obj in state.objects if hasattr(obj, "data"))
    state.class_locks["Main"] = array.oid


@pytest.mark.parametrize("edit, message", [
    (_share_lock, "two classes one class-lock object"),
    (_rename_lock, "unknown class 'Mayn'"),
    (_lock_on_kv, "not a plain Object"),
    (_lock_on_array, "not a plain Object"),
], ids=["shared", "renamed", "on-a-kv", "on-an-array"])
def test_a_tampered_class_lock_table_is_refused(served, edit, message):
    with pytest.raises(ReplicationError, match=message):
        _adopt(served, _tampered(served, edit))


def test_the_untampered_basis_and_delta_adopt(served):
    base, delta, _, _ = served
    _adopt(served, _tampered(served, lambda state: None))
    _adopt(served, compose_delta(base, delta))
