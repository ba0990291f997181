"""Byte and digest identity of the replication codecs, pinned.

The wire varints, the checkpoint value codec and the digest's scalar
tokens run once per heap value on the checkpoint path, so they are
written for speed.  A faster kernel must still produce every byte and
every digest value the format has always produced.  This file holds
that oracle two ways:

* sha256 pins of real outputs — one steady checkpoint basis with its
  state digest, and whole encoded logs under ``lock_sync`` and
  ``thread_sched``, unwrapped (pair) and inside epoch envelopes (group);
* edges a pin would only catch by luck — bool vs int tags and tokens,
  ints from 2**63 up, and the checkpoint codec against the spec in
  ``wire_spec.py``.
"""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.env.channel import Channel
from repro.env.environment import Environment
from repro.fleet.fleet import Fleet
from repro.fleet.traffic import TrafficSpec, generate
from repro.errors import ReplicationError
from repro.replication.checkpoint import (
    Checkpoint,
    _read_value,
    _write_value,
    restore_checkpoint,
)
from repro.replication.commit import LogShipper
from repro.replication.config import ReplicationConfig
from repro.replication.digest import IncrementalStateDigest
from repro.replication.machine import ReplicatedJVM
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import (
    KIND_EPOCH,
    LockAcqRecord,
    NativeResultRecord,
    ScheduleRecord,
    encode,
)
from repro.replication.supervisor import ReplicaGroup
from repro.replication.wire import Reader, Writer
from repro.runtime.digest import _scalar_token, compute_state_digest
from repro.runtime.stdlib import default_natives
from repro.runtime.values import JArray, JObject
from repro.workloads import DB, DB_SERVER

from tests.replication.wire_spec import (
    spec_checkpoint_value, spec_leb128, spec_zigzag,
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# A steady checkpoint basis and its digest
# ----------------------------------------------------------------------
BASIS_PAYLOAD_SHA = (
    "cc632e65072b1db75988a7c95aff1f388f9c4c127baf0d1e62d0ed70409dd13b"
)
BASIS_DIGEST = {
    "heap": "2e8bd70d080c2d3f021cf2980f17b7f8",
    "frames": "07c09af5d54dc6d9becc870901729b56",
    "monitors": "3b1d56d56671e9d0bb96526e42cfcd51",
    "sched": "5875d9eb0951e4b1f530747c24ac25db",
}
LIVE_DIGEST = {
    "heap": "2e8bd70d080c2d3f021cf2980f17b7f8",
    "frames": "a65766b73ec9fbbe205cf68f74cb743c",
    "monitors": "45f7f4a65e815ab8f3e8a338a79ccadb",
    "sched": "083d099d01c24f0f0d81a558dd5889a5",
}


def test_steady_basis_payload_and_digest_are_pinned():
    fleet = Fleet(1, config=ReplicationConfig(checkpoint_interval=32))
    group = fleet.groups[0]
    fleet.start()
    for request in generate(TrafficSpec(n_requests=200, seed=5)):
        fleet.submit(request.text)
        group.pump()
    # Both digest walks, over the primary parked at its request wait.
    jvm = group.active_jvm
    live = compute_state_digest(jvm, include_env=False)
    assert live.hex() == LIVE_DIGEST
    assert IncrementalStateDigest(jvm).compute(include_env=False) == live
    fleet.stop()
    assert group.reports[-1].steady_checkpoints == 25
    basis = group._ckpt
    assert len(basis.payload) == 1406
    assert _sha(basis.payload) == BASIS_PAYLOAD_SHA
    assert basis.digest.hex() == BASIS_DIGEST


def test_version_2_payload_is_refused_by_name():
    # Version 2 ended with an image of the stable environment; version
    # 3 dropped it.  An old payload must be refused, never misread.
    fleet = Fleet(1, config=ReplicationConfig(checkpoint_interval=32))
    fleet.start()
    fleet.stop()
    basis = fleet.groups[0]._ckpt
    old = Checkpoint(basis.generation, basis.digest,
                     b"\x02" + basis.payload[1:])
    refused = "checkpoint state version 2 is not supported \\(expected 3\\)"
    with pytest.raises(ReplicationError, match=refused):
        old.state()
    with pytest.raises(ReplicationError, match=refused):
        old.heap_index()
    env = Environment()
    with pytest.raises(ReplicationError, match=refused):
        restore_checkpoint(old, DB_SERVER.compile("test"), default_natives(),
                           env.attach("v2"))


# ----------------------------------------------------------------------
# Whole encoded logs
# ----------------------------------------------------------------------
LOG_PINS = {
    ("pair", "lock_sync"): (
        1395, 14436,
        "5cad6661561adb504943f7cc5eebf653f8051472e0b41f84129dc6185fd31e05"),
    ("pair", "thread_sched"): (
        132, 4589,
        "d28e614ffc681d7800e0c78dab140790a8aad64f0a295a7f0851bfab0d27685f"),
    ("group", "lock_sync"): (
        1394, 18503,
        "898ff1f6b38b19cab4ca9749221ca575c52aee8f2acb2da47d74d7d427b76053"),
    ("group", "thread_sched"): (
        131, 4867,
        "8994b7f0d3e736f40a251b57db5176cb647d22235faaa286dd31c4aec03bc097"),
}


@pytest.mark.parametrize("kind, strategy", sorted(LOG_PINS))
def test_encoded_log_is_pinned(kind, strategy):
    env = Environment()
    DB.prepare_env(env, "test")
    if kind == "pair":
        machine = ReplicatedJVM(DB.compile("test"), env=env, config=(
            ReplicationConfig(strategy=strategy, digest_interval=4)))
        machine.run(DB.main_class)
        log = machine.channel.delivered
    else:
        machine = ReplicaGroup(DB.compile("test"), env=env, config=(
            ReplicationConfig(strategy=strategy)))
        machine.run(DB.main_class)
        log = machine._active.channel.delivered
    framed = b"".join(len(r).to_bytes(4, "big") + r for r in log)
    assert (len(log), sum(map(len, log)), _sha(framed)) \
        == LOG_PINS[(kind, strategy)]


def test_epoch_envelope_matches_spec():
    records = [LockAcqRecord((0, 1), 1000, 12, 50000),
               ScheduleRecord(900, -1, 3, -1, (0, 2), (0,)),
               NativeResultRecord((0,), 3, "Sys.now()J", -2**40)]
    shipper = LogShipper(Channel(), ReplicationMetrics(), epoch=300)
    header = spec_leb128(KIND_EPOCH) + spec_leb128(300)
    assert shipper._encode_batch(records) == [
        header + spec_leb128(len(encode(r))) + encode(r) for r in records
    ]


# ----------------------------------------------------------------------
# Token and tag edges
# ----------------------------------------------------------------------
def test_scalar_tokens_keep_types_apart():
    tokens = {repr(v): _scalar_token(v, id)
              for v in (True, 1, 1.0, "1", None, False, 0)}
    assert tokens == {
        "True": "iTrue", "1": "i1", "1.0": "f1.0", "'1'": "s'1'",
        "None": "null", "False": "iFalse", "0": "i0",
    }
    assert _scalar_token(2**63, id) == f"i{2**63}"
    assert _scalar_token(-7, id) == "i-7"


def _checkpoint_bytes(v) -> bytes:
    w = Writer()
    _write_value(w, v)
    return w.bytes()


def test_checkpoint_bool_and_int_tags_stay_apart():
    assert _checkpoint_bytes(True) == b"\x04\x01"
    assert _checkpoint_bytes(False) == b"\x04\x00"
    assert _checkpoint_bytes(1) == b"\x01\x02"
    assert _checkpoint_bytes(0) == b"\x01\x00"
    assert _checkpoint_bytes(2**63) == b"\x01" + spec_leb128(2**64 + 1)
    r = Reader(b"\x04\x01\x01\x02")
    assert [_read_value(r, id), _read_value(r, id)] == [True, 1]
    assert [type(v) for v in (_read_value(Reader(b"\x04\x01"), id),
                              _read_value(Reader(b"\x01\x02"), id))] \
        == [bool, int]


_REFS = [JObject("Kv", {}, 7), JArray("int", [], 300)]
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2**63 - 2, 2**64 + 2), st.floats(), st.text(),
    st.binary(max_size=8), st.sampled_from(_REFS),
)
_CHECKPOINT_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner,
                    max_size=3),
), max_leaves=12)


@given(_CHECKPOINT_VALUES)
def test_checkpoint_value_codec_matches_spec(v):
    assert _checkpoint_bytes(v) == spec_checkpoint_value(v)


def _decoded(v):
    """What the reader rebuilds: tuples come back as lists, references
    through the resolver."""
    if isinstance(v, (list, tuple)):
        return [_decoded(item) for item in v]
    if isinstance(v, dict):
        return {key: _decoded(item) for key, item in v.items()}
    return v


_INT64_VALUES = st.recursive(st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**63 - 1),
    st.floats(allow_nan=False), st.text(), st.binary(max_size=8),
    st.sampled_from(_REFS),
), lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=3),
), max_leaves=12)


@given(_INT64_VALUES)
def test_checkpoint_reader_decodes_spec_bytes(v):
    by_oid = {ref.oid: ref for ref in _REFS}
    r = Reader(spec_checkpoint_value(v))
    decoded = _read_value(r, by_oid.__getitem__)
    assert r.exhausted
    assert decoded == _decoded(v)
    assert repr(decoded) == repr(_decoded(v))   # bool stays bool


def test_spec_zigzag_is_what_the_writer_uses():
    # Writer.svarint and the checkpoint codec's int path agree with one
    # spec on both sides of every sign and width edge.
    for v in (0, -1, 1, 2**31 - 1, -2**31, 2**63 - 1, -2**63, 2**63,
              2**64, -2**63 - 1):
        assert Writer().svarint(v).bytes() == spec_leb128(spec_zigzag(v))
        assert _checkpoint_bytes(v) == b"\x01" + spec_leb128(spec_zigzag(v))
