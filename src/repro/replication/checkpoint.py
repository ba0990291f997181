"""Checkpoint state transfer: a complete, wire-framed JVM snapshot.

Re-integrating a fresh backup after a failover needs more than the log:
the new backup never saw the beginning of the run, so the promoted
primary must hand it a *snapshot* of everything the replica state
machine contains — heap (including unreachable objects, so allocation
counters and GC trigger points survive exactly), statics, every thread
with its frames and progress counters, monitor ownership and queues,
the scheduler's runnable order, virtual time, and the side-effect
manager's volatile-state bookkeeping.  The stable environment is not
in it: files, the console and the response log are the outside world,
which survives the primary and is shared with every replica, so a
snapshot that copied them would only grow with every response served.

The snapshot is serialized with the same compact wire format as log
records and shipped as a sequence of
:class:`CheckpointChunkRecord` messages *through the ordinary log
channel*, so chunk transfer inherits the channel's flush/ack protocol
and the crash injector's event counter (a transfer can be killed
mid-flight and must be restartable).  The assembled checkpoint embeds
the sender's :class:`~repro.runtime.digest.StateDigest`; the
receiver re-derives the digest from the *restored* JVM and refuses a
snapshot whose digest does not match — a corrupted or torn transfer is
detected, never silently adopted.

Two invariants make restore exact rather than approximate:

* **oids are preserved** — references serialize as allocation-order
  object ids and every heap object (garbage included) crosses the
  wire, so ``used_cells``, allocation counters, and identity-hash
  values are bit-identical after restore;
* **thread registration order is preserved** — the scheduler wakes
  expired timers by walking ``scheduler.threads`` in registration
  order, so the snapshot serializes threads in exactly that order.

Lock *ids* (``l_id``) are a per-generation naming scheme assigned by
the active coordination strategy, and each promotion renames from
scratch (``l_asn`` counters, which the digest covers, are preserved).
Since v2 they *are* serialized: steady-state checkpoint adoption
truncates the log mid-generation, which can drop the IdMap records
that named locks first acquired before the checkpoint — the restored
state must therefore carry those names so the retained log tail stays
resolvable.  Promotion still strips them.

Steady-state incremental checkpoints (:class:`DeltaCheckpoint`) reuse
the same state layout but serialize only the heap objects mutated
since the heap's last ``advance_era()`` plus the oids freed since
then; the (small) non-heap sections ship whole.
:func:`compose_delta` merges a delta onto a full snapshot by splicing
encoded bytes: it decodes only the delta, copies each clean base
object's encoded shell and body through the base's per-object byte
index (:class:`_HeapIndex`), and takes the delta's non-heap bytes
verbatim.  The result is byte-identical to decoding the base, applying
the delta and re-encoding, and it embeds the digest the primary
computed at delta capture time — so composition errors are caught
exactly like torn transfers, by digest mismatch on restore.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import LinkageError, ReplicationError
from repro.replication.records import (
    KIND_CHECKPOINT_CHUNK,
    KIND_CHECKPOINT_DELTA,
    register_record_kind,
)
from repro.replication.wire import Reader, Writer
from repro.runtime.digest import StateDigest, compute_state_digest
from repro.runtime.frames import Frame
from repro.runtime.jvm import JVM
from repro.runtime.monitors import get_monitor
from repro.runtime.scheduler import SliceEnd
from repro.runtime.threads import ROOT_VID, JavaThread, ThreadState
from repro.runtime.values import INT_ONLY, IntMemo, JArray, JObject

Vid = Tuple[int, ...]

#: Bump when the snapshot layout changes incompatibly.
#: v2: monitor blocks carry the optional l_id; a native-seq table and
#: the capture-time schedule epoch joined the non-heap sections.
#: v3: the stable-environment image left the non-heap sections.
_STATE_VERSION = 3

#: Default chunk payload size.  Small enough that a transfer spans many
#: flushes (so mid-transfer crash points exist), large enough that the
#: chunk framing overhead stays negligible.
DEFAULT_CHUNK_BYTES = 2048


# ======================================================================
# Tagged value codec
# ======================================================================
# The log-record codec (wire.Writer.value) deliberately rejects heap
# references — they never leave a replica during normal logging.  A
# checkpoint is the one place references *must* cross the wire, as
# allocation-order oids, alongside the nested dict/bytes shapes that
# side-effect handler state uses.

_V_NONE = 0
_V_INT = 1
_V_FLOAT = 2
_V_STR = 3
_V_BOOL = 4
_V_BYTES = 5
_V_LIST = 6
_V_DICT = 7
_V_REF = 8


def _write_value(w: Writer, v: Any) -> None:
    # Ints first: they are nearly every value a heap holds.  ``type(v)
    # is int`` rather than ``isinstance``, so a bool keeps its own tag.
    if type(v) is int:
        w.uvarint(_V_INT).svarint(v)
    elif v is None:
        w.uvarint(_V_NONE)
    elif isinstance(v, bool):
        w.uvarint(_V_BOOL).uvarint(1 if v else 0)
    elif isinstance(v, int):            # an int subclass other than bool
        w.uvarint(_V_INT).svarint(v)
    elif isinstance(v, float):
        w.uvarint(_V_FLOAT).f64(v)
    elif isinstance(v, str):
        w.uvarint(_V_STR).text(v)
    elif isinstance(v, bytes):
        w.uvarint(_V_BYTES).uvarint(len(v)).raw(v)
    elif isinstance(v, (JObject, JArray)):
        w.uvarint(_V_REF).uvarint(v.oid)
    elif isinstance(v, (list, tuple)):
        w.uvarint(_V_LIST).uvarint(len(v))
        for item in v:
            _write_value(w, item)
    elif isinstance(v, dict):
        w.uvarint(_V_DICT).uvarint(len(v))
        for key, item in v.items():
            _write_value(w, key)
            _write_value(w, item)
    else:
        raise ReplicationError(
            f"checkpoint cannot serialize value of type {type(v).__name__}"
        )


#: A plain int's encoding; the ints of one or two varint bytes are kept.
_INT_BYTES = IntMemo(lambda v: Writer().uvarint(_V_INT).svarint(v).bytes(),
                     -8192, 8192)


def _read_value(r: Reader, resolve: Callable[[int], Any]) -> Any:
    tag = r.uvarint()
    if tag == _V_INT:
        return r.svarint()
    if tag == _V_NONE:
        return None
    if tag == _V_BOOL:
        return bool(r.uvarint())
    if tag == _V_FLOAT:
        return r.f64()
    if tag == _V_STR:
        return r.text()
    if tag == _V_BYTES:
        return r.raw(r.uvarint())
    if tag == _V_REF:
        return resolve(r.uvarint())
    if tag == _V_LIST:
        return [_read_value(r, resolve) for _ in range(r.uvarint())]
    if tag == _V_DICT:
        out: Dict[Any, Any] = {}
        for _ in range(r.uvarint()):
            key = _read_value(r, resolve)
            if isinstance(key, (list, dict)):
                raise ReplicationError(
                    f"checkpoint dict key is a {type(key).__name__}")
            out[key] = _read_value(r, resolve)
        return out
    raise ReplicationError(f"unknown checkpoint value tag {tag}")


def _no_refs(_oid: int) -> Any:
    raise ReplicationError("heap reference outside heap section")


def _write_opt_vid(w: Writer, vid: Optional[Vid]) -> None:
    if vid is None:
        w.uvarint(0)
    else:
        w.uvarint(1).vid(vid)


def _read_opt_vid(r: Reader) -> Optional[Vid]:
    return r.vid() if r.uvarint() else None


def _read_oid(r: Reader, resolve: Callable[[int], Any]) -> int:
    """An oid outside the heap section, refused unless it resolves."""
    oid = r.uvarint()
    resolve(oid)
    return oid


def _read_name(r: Reader, enum: Any) -> str:
    """The value of an ``enum`` member, refused unless it is one."""
    value = r.text()
    try:
        enum(value)
    except ValueError:
        raise ReplicationError(
            f"checkpoint names no {enum.__name__} {value!r}") from None
    return value


# ======================================================================
# Wire records
# ======================================================================
@dataclass(frozen=True)
class CheckpointChunkRecord:
    """One slice of an encoded checkpoint, shipped through the log.

    Chunks are idempotent and unordered on arrival: the assembler keys
    them by ``(generation, index)`` and ignores duplicates, so a
    transfer interrupted by a connection reset (or restarted whole by a
    re-promoted primary) converges to the same snapshot."""

    generation: int
    index: int
    total: int
    data: bytes

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_CHECKPOINT_CHUNK).uvarint(self.generation)
        w.uvarint(self.index).uvarint(self.total)
        w.uvarint(len(self.data)).raw(self.data)

    @staticmethod
    def read(r: Reader) -> "CheckpointChunkRecord":
        generation = r.uvarint()
        index = r.uvarint()
        total = r.uvarint()
        return CheckpointChunkRecord(
            generation, index, total, r.raw(r.uvarint())
        )


register_record_kind(KIND_CHECKPOINT_CHUNK, CheckpointChunkRecord.read,
                     core=True)


@dataclass(frozen=True)
class DeltaChunkRecord:
    """One slice of an encoded delta checkpoint.

    Like :class:`CheckpointChunkRecord` but keyed by ``(generation,
    seq)`` — a primary emits many deltas per generation.  Deliberately
    *not* given a parse rule in the machine's log parser: a torn delta
    in a crashed primary's log tail is simply ignored by recovery."""

    generation: int
    seq: int
    index: int
    total: int
    data: bytes

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_CHECKPOINT_DELTA).uvarint(self.generation)
        w.uvarint(self.seq).uvarint(self.index).uvarint(self.total)
        w.uvarint(len(self.data)).raw(self.data)

    @staticmethod
    def read(r: Reader) -> "DeltaChunkRecord":
        generation = r.uvarint()
        seq = r.uvarint()
        index = r.uvarint()
        total = r.uvarint()
        return DeltaChunkRecord(generation, seq, index, total,
                                r.raw(r.uvarint()))


register_record_kind(KIND_CHECKPOINT_DELTA, DeltaChunkRecord.read,
                     core=True)


@dataclass(frozen=True)
class Checkpoint:
    """An encoded snapshot plus the digest it must restore to.

    ``sched_epoch`` is the primary's count of shipped ScheduleRecords
    at capture time: after steady-state log truncation the retained
    tail's DigestRecords still carry absolute epochs, so a replaying
    backup offsets its consumed-record count by this value.

    ``index`` locates each heap object's bytes in ``payload``.  It is
    recorded where the payload is written, or parsed on first use for
    a checkpoint that arrived from the wire; it is not part of the
    checkpoint's value."""

    generation: int
    digest: StateDigest
    payload: bytes
    sched_epoch: int = 0
    index: Optional["_HeapIndex"] = field(default=None, init=False,
                                          compare=False, repr=False)

    def _indexed(self, index: "_HeapIndex") -> "Checkpoint":
        object.__setattr__(self, "index", index)
        return self

    def heap_index(self) -> "_HeapIndex":
        """The payload's per-object byte index, parsed once if absent."""
        if self.index is None:
            self._indexed(_index_payload(self.payload))
        return self.index

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        w = Writer()
        w.uvarint(self.generation).uvarint(self.sched_epoch)
        w.uvarint(len(self.digest.components))
        for name, value in self.digest.components:
            w.text(name).raw(value.to_bytes(16, "big"))
        w.uvarint(len(self.payload)).raw(self.payload)
        return w.bytes()

    @staticmethod
    def decode(data: bytes) -> "Checkpoint":
        r = Reader(data)
        generation = r.uvarint()
        sched_epoch = r.uvarint()
        components = []
        for _ in range(r.uvarint()):
            name = r.text()
            components.append((name, int.from_bytes(r.raw(16), "big")))
        payload = r.raw(r.uvarint())
        if not r.exhausted:
            raise ReplicationError("trailing bytes after checkpoint")
        return Checkpoint(generation, StateDigest(tuple(components)),
                          payload, sched_epoch)

    # ------------------------------------------------------------------
    def to_chunks(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES
                  ) -> List[CheckpointChunkRecord]:
        """Frame the encoded checkpoint for shipment through the log."""
        if chunk_bytes <= 0:
            raise ReplicationError("chunk size must be positive")
        encoded = self.encode()
        total = max(1, -(-len(encoded) // chunk_bytes))
        return [
            CheckpointChunkRecord(
                self.generation, index, total,
                encoded[index * chunk_bytes:(index + 1) * chunk_bytes],
            )
            for index in range(total)
        ]

    @property
    def byte_size(self) -> int:
        return len(self.payload)

    def state(self) -> "_SnapshotState":
        """Decode the payload into its structured form (tests, and a
        backup seeding its native-seq counters from its basis).  Heap
        references resolve to freshly built shell objects, not to any
        live JVM."""
        return _read_state(self.payload)


class CheckpointAssembler:
    """Receive-side reassembly of chunked checkpoints.

    Duplicate chunks (retransmission, restarted transfer) are ignored;
    a chunk whose ``total`` disagrees with the first chunk seen for its
    generation marks the transfer corrupt.  ``feed`` returns the
    decoded :class:`Checkpoint` exactly once, when the last missing
    chunk arrives."""

    def __init__(self) -> None:
        self._partial: Dict[int, Tuple[int, Dict[int, bytes]]] = {}
        self._done: Dict[int, bool] = {}

    def feed(self, record: CheckpointChunkRecord) -> Optional[Checkpoint]:
        gen = record.generation
        if self._done.get(gen):
            return None
        total, chunks = self._partial.setdefault(gen, (record.total, {}))
        if total != record.total:
            raise ReplicationError(
                f"checkpoint transfer for generation {gen} is inconsistent: "
                f"chunk claims {record.total} total, transfer began with "
                f"{total}"
            )
        if not 0 <= record.index < total:
            raise ReplicationError(
                f"checkpoint chunk index {record.index} out of range "
                f"0..{total - 1}"
            )
        chunks.setdefault(record.index, record.data)
        if len(chunks) < total:
            return None
        encoded = b"".join(chunks[i] for i in range(total))
        checkpoint = Checkpoint.decode(encoded)
        if checkpoint.generation != gen:
            raise ReplicationError(
                f"checkpoint generation mismatch: chunks say {gen}, "
                f"payload says {checkpoint.generation}"
            )
        self._done[gen] = True
        del self._partial[gen]
        return checkpoint

    def pending(self, generation: int) -> int:
        """Chunks received so far for an incomplete transfer."""
        entry = self._partial.get(generation)
        return len(entry[1]) if entry else 0

    def discard(self, generation: int) -> None:
        """Drop a torn transfer (its primary died mid-flight)."""
        self._partial.pop(generation, None)


@dataclass(frozen=True)
class DeltaCheckpoint:
    """An incremental snapshot since a base checkpoint.

    ``seq`` numbers the checkpoint stream within a generation (the
    arm-time full checkpoint is seq 0); ``base_seq`` names the state
    this delta applies to, letting the adopter refuse out-of-order
    composition.  ``digest`` is the digest of the *complete* state at
    capture — what the composed full checkpoint must restore to."""

    generation: int
    seq: int
    base_seq: int
    sched_epoch: int
    digest: StateDigest
    payload: bytes

    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        w = Writer()
        w.uvarint(self.generation).uvarint(self.seq)
        w.uvarint(self.base_seq).uvarint(self.sched_epoch)
        w.uvarint(len(self.digest.components))
        for name, value in self.digest.components:
            w.text(name).raw(value.to_bytes(16, "big"))
        w.uvarint(len(self.payload)).raw(self.payload)
        return w.bytes()

    @staticmethod
    def decode(data: bytes) -> "DeltaCheckpoint":
        r = Reader(data)
        generation = r.uvarint()
        seq = r.uvarint()
        base_seq = r.uvarint()
        sched_epoch = r.uvarint()
        components = []
        for _ in range(r.uvarint()):
            name = r.text()
            components.append((name, int.from_bytes(r.raw(16), "big")))
        payload = r.raw(r.uvarint())
        if not r.exhausted:
            raise ReplicationError("trailing bytes after delta checkpoint")
        return DeltaCheckpoint(generation, seq, base_seq, sched_epoch,
                               StateDigest(tuple(components)), payload)

    # ------------------------------------------------------------------
    def to_chunks(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES
                  ) -> List[DeltaChunkRecord]:
        if chunk_bytes <= 0:
            raise ReplicationError("chunk size must be positive")
        encoded = self.encode()
        total = max(1, -(-len(encoded) // chunk_bytes))
        return [
            DeltaChunkRecord(
                self.generation, self.seq, index, total,
                encoded[index * chunk_bytes:(index + 1) * chunk_bytes],
            )
            for index in range(total)
        ]

    @property
    def byte_size(self) -> int:
        return len(self.payload)


class DeltaAssembler:
    """Receive-side reassembly of chunked delta checkpoints, keyed by
    ``(generation, seq)`` with the same idempotence rules as
    :class:`CheckpointAssembler`."""

    def __init__(self) -> None:
        self._partial: Dict[Tuple[int, int], Tuple[int, Dict[int, bytes]]] = {}
        self._done: Dict[Tuple[int, int], bool] = {}

    def feed(self, record: DeltaChunkRecord) -> Optional[DeltaCheckpoint]:
        key = (record.generation, record.seq)
        if self._done.get(key):
            return None
        total, chunks = self._partial.setdefault(key, (record.total, {}))
        if total != record.total:
            raise ReplicationError(
                f"delta transfer {key} is inconsistent: chunk claims "
                f"{record.total} total, transfer began with {total}"
            )
        if not 0 <= record.index < total:
            raise ReplicationError(
                f"delta chunk index {record.index} out of range "
                f"0..{total - 1}"
            )
        chunks.setdefault(record.index, record.data)
        if len(chunks) < total:
            return None
        encoded = b"".join(chunks[i] for i in range(total))
        delta = DeltaCheckpoint.decode(encoded)
        if (delta.generation, delta.seq) != key:
            raise ReplicationError(
                f"delta identity mismatch: chunks say {key}, payload "
                f"says {(delta.generation, delta.seq)}"
            )
        self._done[key] = True
        del self._partial[key]
        return delta


# ======================================================================
# Snapshot: serialize
# ======================================================================
def _monitor_live(monitor) -> bool:
    return bool(
        monitor.owner is not None or monitor.recursion
        or monitor.entry_queue or monitor.wait_set or monitor.l_asn
        or monitor.l_id is not None
    )


def _monitor_tuple(oid: int, monitor) -> Tuple:
    return (
        oid,
        monitor.owner.vid if monitor.owner is not None else None,
        monitor.recursion,
        monitor.l_asn,
        monitor.l_id,
        [t.vid for t in monitor.entry_queue],
        [t.vid for t in monitor.wait_set],
    )


def _thread_dict(t: JavaThread) -> Dict[str, Any]:
    blocked = t.blocked_on
    blocked_oid = blocked.oid if blocked is not None else None
    frames = []
    for frame in t.frames:
        method = frame.method
        frames.append({
            "class": method.declaring_class.name,
            "method": method.name,
            "nargs": method.nargs,
            "pc": frame.pc,
            "locals": list(frame.locals),
            "stack": list(frame.stack),
            "sync_oid": (frame.sync_object.oid
                         if frame.sync_object is not None else None),
            "held_oids": [obj.oid for obj in frame.held_monitors],
        })
    return {
        "vid": t.vid,
        "name": t.name,
        "is_daemon": t.is_daemon,
        "is_system": t.is_system,
        "reacquiring": t.reacquiring,
        "in_native": t.in_native,
        "forbid_sync": t.forbid_sync,
        "forbid_env": t.forbid_env,
        "state": t.state.value,
        "br_cnt": t.br_cnt,
        "mon_cnt": t.mon_cnt,
        "t_asn": t.t_asn,
        "instructions": t.instructions,
        "children_spawned": t.children_spawned,
        "saved_recursion": t.saved_recursion,
        "wakeup_time": t.wakeup_time,
        "blocked_on_oid": blocked_oid,
        "thread_object_oid": (t.thread_object.oid
                              if t.thread_object is not None else None),
        "pending_exception": t.pending_exception,
        "joiner_vids": [j.vid for j in t.joiners],
        "frames": frames,
    }


def _capture_state(jvm: JVM, se_manager,
                   native_seqs: Optional[Dict[Vid, int]],
                   include_heap: bool = True) -> "_SnapshotState":
    """Build the structured snapshot of a live JVM.

    ``include_heap=False`` skips the O(heap) object walk — delta
    captures stream the dirty objects directly and only need the
    (small) non-heap sections here."""
    s = _SnapshotState()
    s.instructions = jvm.instructions
    s.heavy_ops = jvm.heavy_ops
    s.native_calls = jvm.native_calls
    s.time_skew_ms = jvm._time_skew_ms

    heap = jvm.heap
    s.next_oid = heap._next_oid
    s.total_allocations = heap.total_allocations
    s.used_cells = heap.used_cells
    s.gc_requested = heap.gc_requested
    if include_heap:
        s.objects = list(heap.objects)
        s.by_oid = {obj.oid: obj for obj in s.objects}
        for obj in s.objects:
            monitor = obj.monitor
            if monitor is not None and _monitor_live(monitor):
                s.monitors.append(_monitor_tuple(obj.oid, monitor))

    s.statics = dict(jvm.statics)
    for t in jvm.scheduler.threads:
        s.threads.append(_thread_dict(t))

    scheduler = jvm.scheduler
    s.runnable_vids = [t.vid for t in scheduler.runnable]
    s.current_vid = (scheduler.current.vid
                     if scheduler.current is not None else None)
    s.last_reason = (scheduler.last_reason.value
                     if scheduler.last_reason is not None else None)
    s.reschedules = scheduler.reschedules
    s.slices = scheduler.slices

    sync = jvm.sync
    s.notify_wakes_all = sync.notify_wakes_all
    s.total_acquisitions = sync.total_acquisitions
    s.monitors_created = sync.monitors_created
    s.largest_l_asn = sync.largest_l_asn
    s.parked_vids = [t.vid for t in sync.parked_threads]

    s.native_seqs = dict(native_seqs or {})
    s.class_locks = {name: obj.oid
                     for name, obj in jvm._class_locks.items()}
    s.daemon_requests = dict(jvm._daemon_requests)
    s.uncaught = list(jvm.uncaught)
    s.main_vid = (jvm.main_thread.vid
                  if jvm.main_thread is not None else None)
    s.se_state = se_manager.snapshot()
    return s


def _write_object_shell(w: Writer, obj: Any) -> None:
    if isinstance(obj, JArray):
        w.uvarint(1).uvarint(obj.oid).text(obj.elem_type)
    else:
        w.uvarint(0).uvarint(obj.oid).text(obj.class_name)


def _write_object_body(w: Writer, obj: Any,
                       monitor_block: Optional[Tuple]) -> None:
    if isinstance(obj, JArray):
        data = obj.data
        w.uvarint(len(data))
        if INT_ONLY.issuperset(map(type, data)):
            w.raw(b"".join(map(_INT_BYTES.__getitem__, data)))
        else:
            for v in data:
                _write_value(w, v)
    else:
        w.uvarint(len(obj.fields))
        for name, v in obj.fields.items():
            w.text(name)
            _write_value(w, v)
    if monitor_block is None:
        w.uvarint(0)
        return
    _, owner_vid, recursion, l_asn, l_id, entry, waiters = monitor_block
    w.uvarint(1)
    _write_opt_vid(w, owner_vid)
    w.uvarint(recursion).uvarint(l_asn)
    if l_id is None:
        w.uvarint(0)
    else:
        w.uvarint(1).uvarint(l_id)
    w.uvarint(len(entry))
    for vid in entry:
        w.vid(vid)
    w.uvarint(len(waiters))
    for vid in waiters:
        w.vid(vid)


def _write_nonheap(w: Writer, s: "_SnapshotState") -> None:
    # --- statics -------------------------------------------------------
    w.uvarint(len(s.statics))
    for (class_name, field_name) in sorted(s.statics):
        w.text(class_name).text(field_name)
        _write_value(w, s.statics[(class_name, field_name)])

    # --- threads, in scheduler registration order ----------------------
    w.uvarint(len(s.threads))
    for t in s.threads:
        w.vid(t["vid"]).text(t["name"])
        flags = (
            (1 if t["is_daemon"] else 0)
            | (2 if t["is_system"] else 0)
            | (4 if t["reacquiring"] else 0)
            | (8 if t["in_native"] else 0)
            | (16 if t["forbid_sync"] else 0)
            | (32 if t["forbid_env"] else 0)
        )
        w.uvarint(flags).text(t["state"])
        w.uvarint(t["br_cnt"]).uvarint(t["mon_cnt"]).uvarint(t["t_asn"])
        w.uvarint(t["instructions"]).uvarint(t["children_spawned"])
        w.uvarint(t["saved_recursion"])
        if t["wakeup_time"] is None:
            w.uvarint(0)
        else:
            w.uvarint(1).f64(t["wakeup_time"])
        if t["blocked_on_oid"] is None:
            w.uvarint(0)
        else:
            w.uvarint(1).uvarint(t["blocked_on_oid"])
        if t["thread_object_oid"] is None:
            w.uvarint(0)
        else:
            w.uvarint(1).uvarint(t["thread_object_oid"])
        _write_value(w, t["pending_exception"])
        w.uvarint(len(t["joiner_vids"]))
        for vid in t["joiner_vids"]:
            w.vid(vid)
        w.uvarint(len(t["frames"]))
        for f in t["frames"]:
            w.text(f["class"]).text(f["method"])
            w.uvarint(f["nargs"]).uvarint(f["pc"])
            w.uvarint(len(f["locals"]))
            for v in f["locals"]:
                _write_value(w, v)
            w.uvarint(len(f["stack"]))
            for v in f["stack"]:
                _write_value(w, v)
            if f["sync_oid"] is None:
                w.uvarint(0)
            else:
                w.uvarint(1).uvarint(f["sync_oid"])
            w.uvarint(len(f["held_oids"]))
            for oid in f["held_oids"]:
                w.uvarint(oid)

    # --- scheduler ------------------------------------------------------
    w.uvarint(len(s.runnable_vids))
    for vid in s.runnable_vids:
        w.vid(vid)
    _write_opt_vid(w, s.current_vid)
    if s.last_reason is None:
        w.uvarint(0)
    else:
        w.uvarint(1).text(s.last_reason)
    w.uvarint(s.reschedules).uvarint(s.slices)

    # --- sync manager ---------------------------------------------------
    w.uvarint(1 if s.notify_wakes_all else 0)
    w.uvarint(s.total_acquisitions).uvarint(s.monitors_created)
    w.uvarint(s.largest_l_asn)
    w.uvarint(len(s.parked_vids))
    for vid in s.parked_vids:
        w.vid(vid)

    # --- native sequence counters (v2) ---------------------------------
    w.uvarint(len(s.native_seqs))
    for vid in sorted(s.native_seqs):
        w.vid(vid).uvarint(s.native_seqs[vid])

    # --- naming tables / misc ------------------------------------------
    w.uvarint(len(s.class_locks))
    for name in sorted(s.class_locks):
        w.text(name).uvarint(s.class_locks[name])
    w.uvarint(len(s.daemon_requests))
    for oid in sorted(s.daemon_requests):
        w.uvarint(oid).uvarint(1 if s.daemon_requests[oid] else 0)
    w.uvarint(len(s.uncaught))
    for vid_str, class_name, message in s.uncaught:
        w.text(vid_str).text(class_name).text(message)
    _write_opt_vid(w, s.main_vid)

    # --- side-effect handler state --------------------------------------
    _write_value(w, s.se_state)


class _HeapIndex:
    """Where each heap object's bytes sit in a full payload: offsets,
    not copies.

    Object ``i`` (ascending oid ``oids[i]``) has its shell at
    ``payload[shells[i]:shells[i + 1]]`` and its body (contents plus
    monitor block) at ``payload[bodies[i]:bodies[i + 1]]``.  Shells and
    bodies are each contiguous, so ``shells[n]`` is where the bodies
    begin and ``bodies[n]`` where the non-heap sections begin."""

    __slots__ = ("oids", "shells", "bodies")

    def __init__(self) -> None:
        self.oids = array("Q")
        self.shells = array("Q")
        self.bodies = array("Q")

    def position(self, oid: int) -> int:
        """Index of ``oid``, or -1 if the payload has no such object."""
        p = bisect_left(self.oids, oid)
        return p if p < len(self.oids) and self.oids[p] == oid else -1


def _encode_state(s: "_SnapshotState") -> Tuple[bytes, _HeapIndex]:
    """Serialize a structured snapshot to the full-checkpoint payload,
    indexing each object's bytes as they are written:
    ``_read_state(_encode_state(s)[0])`` round-trips."""
    w = Writer()
    w.uvarint(_STATE_VERSION)
    w.uvarint(s.instructions).uvarint(s.heavy_ops)
    w.uvarint(s.native_calls)
    w.f64(s.time_skew_ms)

    # --- heap: shells, then contents (so references resolve) ----------
    objects = list(s.objects)
    w.uvarint(s.next_oid).uvarint(s.total_allocations)
    w.uvarint(s.used_cells).uvarint(1 if s.gc_requested else 0)
    w.uvarint(len(objects))
    index = _HeapIndex()
    index.oids.extend(obj.oid for obj in objects)
    for obj in objects:
        index.shells.append(w.pos)
        _write_object_shell(w, obj)
    index.shells.append(w.pos)
    monitors_by_oid = {m[0]: m for m in s.monitors}
    for obj in objects:
        index.bodies.append(w.pos)
        _write_object_body(w, obj, monitors_by_oid.get(obj.oid))
    index.bodies.append(w.pos)

    _write_nonheap(w, s)
    return w.bytes(), index


def take_checkpoint(jvm: JVM, se_manager, *, generation: int,
                    native_seqs: Optional[Dict[Vid, int]] = None,
                    sched_epoch: int = 0) -> Checkpoint:
    """Snapshot ``jvm`` (plus side-effect-handler state) as of now.

    Must be taken at a *quiescent point* — bootstrap, or a paused run
    loop — so no thread is mid-slice.  The embedded digest is computed
    from the same state the payload serializes, which is what lets the
    receiver verify the restore."""
    digest = compute_state_digest(jvm, include_env=False)
    payload, index = _encode_state(
        _capture_state(jvm, se_manager, native_seqs))
    return Checkpoint(generation, digest, payload,
                      sched_epoch)._indexed(index)


def take_delta_checkpoint(jvm: JVM, se_manager, *, generation: int,
                          seq: int, base_seq: int, sched_epoch: int = 0,
                          native_seqs: Optional[Dict[Vid, int]] = None
                          ) -> DeltaCheckpoint:
    """Capture the state changed since the heap's last ``advance_era()``.

    Serializes only dirty heap objects (``mut_era >= era``) and the
    freed-oid set; non-heap sections (threads, scheduler, statics, sync,
    handler state) ship whole — they are small next to the heap.  The
    caller advances the heap era once the delta is safely adopted."""
    digest = compute_state_digest(jvm, include_env=False)
    heap = jvm.heap
    w = Writer()
    w.uvarint(_STATE_VERSION)
    w.uvarint(jvm.instructions).uvarint(jvm.heavy_ops)
    w.uvarint(jvm.native_calls)
    w.f64(jvm._time_skew_ms)

    w.uvarint(heap._next_oid).uvarint(heap.total_allocations)
    w.uvarint(heap.used_cells).uvarint(1 if heap.gc_requested else 0)
    freed = sorted(heap.freed_oids())
    w.uvarint(len(freed))
    for oid in freed:
        w.uvarint(oid)
    dirty = list(heap.dirty_objects())
    w.uvarint(len(dirty))
    for obj in dirty:
        _write_object_shell(w, obj)
    for obj in dirty:
        monitor = obj.monitor
        block = (_monitor_tuple(obj.oid, monitor)
                 if monitor is not None and _monitor_live(monitor)
                 else None)
        _write_object_body(w, obj, block)

    s = _capture_state(jvm, se_manager, native_seqs, include_heap=False)
    _write_nonheap(w, s)
    return DeltaCheckpoint(generation, seq, base_seq, sched_epoch,
                           digest, w.bytes())


def compose_delta(base: Checkpoint, delta: DeltaCheckpoint) -> Checkpoint:
    """Merge a delta onto a full checkpoint, yielding a full checkpoint.

    Pure byte-level surgery — no JVM involved, so any replica (or the
    conform harness) can maintain a recovery basis from the checkpoint
    stream.  Only the delta is decoded; every clean base object is
    copied as its encoded shell and body, located through the base's
    :class:`_HeapIndex`, and the delta's non-heap bytes are taken
    verbatim.  The output is the payload that decoding the base,
    applying the delta and re-encoding would produce.  Every check of
    that decode still runs, and the base is never modified.
    Correctness is *checked*, not assumed: the result embeds the digest
    the primary computed over its complete state at delta capture, and
    restore refuses the snapshot on any mismatch."""
    if delta.generation != base.generation:
        raise ReplicationError(
            f"delta generation {delta.generation} does not match base "
            f"checkpoint generation {base.generation}"
        )
    index = base.heap_index()
    in_base = index.position
    src = memoryview(base.payload)
    oids, shells, bodies = index.oids, index.shells, index.bodies
    n_base = len(oids)

    data = memoryview(delta.payload)
    r = Reader(delta.payload)
    _read_header(r, "delta")
    header = data[:r.pos]
    freed = {r.uvarint() for _ in range(r.uvarint())}

    # Dirty shells.  A surviving base object keeps its base shell (its
    # oid cannot change type); any other dirty oid is a new object.
    kind_of: Dict[int, int] = {}
    shell_of: Dict[int, Any] = {}
    for _ in range(r.uvarint()):
        kind = r.uvarint()
        oid = r.uvarint()
        type_name = r.text()
        if oid in kind_of:
            raise ReplicationError(f"delta lists oid {oid} twice")
        kind_of[oid] = kind
        p = -1 if oid in freed else in_base(oid)
        if p < 0:
            shell_of[oid] = Writer().uvarint(1 if kind == 1 else 0) \
                .uvarint(oid).text(type_name).bytes()
        elif src[shells[p]] != kind:
            raise ReplicationError(
                f"delta re-types oid {oid} — oids are never reused, "
                f"refusing composition"
            )
        else:
            shell_of[oid] = src[shells[p]:shells[p + 1]]

    def resolve(oid: int) -> None:
        if oid not in kind_of and (oid in freed or in_base(oid) < 0):
            raise ReplicationError(f"delta references unknown oid {oid}")

    # Dirty bodies, each read once to check it, then spliced as bytes.
    body_of: Dict[int, Any] = {}
    for oid, kind in kind_of.items():
        start = r.pos
        _skip_object_body(r, kind, resolve)
        body_of[oid] = data[start:r.pos]

    # Non-heap sections replace the base's wholesale.
    nonheap = r.pos
    _read_nonheap(r, _SnapshotState(), resolve)
    if not r.exhausted:
        raise ReplicationError("trailing bytes after delta state")

    # Plan the heap in ascending oid: runs ``(start, end)`` of clean
    # base objects, and ``(-1, oid)`` for each dirty object between
    # them.  Freed objects drop out.
    out = _HeapIndex()
    plan: List[Tuple[int, int]] = []
    cursor = 0
    for oid in sorted(freed.union(kind_of)):
        p = bisect_left(oids, oid, cursor)
        if p > cursor:
            plan.append((cursor, p))
            out.oids.extend(oids[cursor:p])
        cursor = p + 1 if p < n_base and oids[p] == oid else p
        if oid in kind_of:
            plan.append((-1, oid))
            out.oids.append(oid)
    if cursor < n_base:
        plan.append((cursor, n_base))
        out.oids.extend(oids[cursor:])

    w = Writer().raw(header).uvarint(len(out.oids))

    def splice(at: array, offsets: array, dirty_bytes: Dict[int, Any]
               ) -> None:
        for a, b in plan:
            if a < 0:
                at.append(w.pos)
                w.raw(dirty_bytes[b])
            else:
                shift = w.pos - offsets[a]
                at.extend([x + shift for x in offsets[a:b]])
                w.raw(src[offsets[a]:offsets[b]])
        at.append(w.pos)

    splice(out.shells, shells, shell_of)
    splice(out.bodies, bodies, body_of)
    w.raw(data[nonheap:])
    return Checkpoint(delta.generation, delta.digest, w.bytes(),
                      delta.sched_epoch)._indexed(out)


def _check_version(version: int, what: str) -> None:
    if version != _STATE_VERSION:
        raise ReplicationError(
            f"{what} state version {version} is not supported "
            f"(expected {_STATE_VERSION})"
        )


def _read_header(r: Reader, what: str) -> None:
    """Read past the version and the machine and heap counters, which
    open full and delta payloads alike."""
    _check_version(r.uvarint(), what)
    for _ in range(3):
        r.uvarint()
    r.f64()
    for _ in range(4):
        r.uvarint()


def _skip_object_body(r: Reader, kind: int,
                      resolve: Callable[[int], Any]) -> None:
    """Read past one encoded body, resolving every reference in it."""
    shell: Any = JArray("", [], 0) if kind == 1 else JObject("", {}, 0)
    _read_object_body(r, shell, resolve, [])


def _index_payload(payload: bytes) -> _HeapIndex:
    """Index a full payload that arrived without one, checking it as
    :func:`_read_state` would: version, oids ascending and of a known
    kind, every reference resolvable, no trailing bytes."""
    r = Reader(payload)
    _read_header(r, "checkpoint")
    index = _HeapIndex()
    oids = index.oids
    kinds = bytearray()
    for _ in range(r.uvarint()):
        index.shells.append(r.pos)
        kind = r.uvarint()
        oid = r.uvarint()
        r.text()
        if kind > 1:
            raise ReplicationError(f"checkpoint object kind {kind} for "
                                   f"oid {oid} is not supported")
        if oids and oid <= oids[-1]:
            raise ReplicationError(
                f"checkpoint heap is not in ascending oid order at "
                f"oid {oid}"
            )
        oids.append(oid)
        kinds.append(kind)
    index.shells.append(r.pos)

    def resolve(oid: int) -> None:
        if index.position(oid) < 0:
            raise ReplicationError(
                f"checkpoint references unknown oid {oid}"
            )

    for kind in kinds:
        index.bodies.append(r.pos)
        _skip_object_body(r, kind, resolve)
    index.bodies.append(r.pos)
    _read_nonheap(r, _SnapshotState(), resolve)
    if not r.exhausted:
        raise ReplicationError("trailing bytes after checkpoint state")
    return index


# ======================================================================
# Snapshot: structured read
# ======================================================================
class _SnapshotState:
    """The decoded payload, with heap objects materialized as shells."""

    def __init__(self) -> None:
        self.instructions = 0
        self.heavy_ops = 0
        self.native_calls = 0
        self.time_skew_ms = 0.0
        self.next_oid = 1
        self.total_allocations = 0
        self.used_cells = 0
        self.gc_requested = False
        self.objects: List[Any] = []
        self.by_oid: Dict[int, Any] = {}
        #: (oid, owner_vid, recursion, l_asn, l_id, entry_vids, wait_vids)
        self.monitors: List[Tuple] = []
        self.statics: Dict[Tuple[str, str], Any] = {}
        #: Per-thread dicts, in registration order.
        self.threads: List[Dict[str, Any]] = []
        self.runnable_vids: List[Vid] = []
        self.current_vid: Optional[Vid] = None
        self.last_reason: Optional[str] = None
        self.reschedules = 0
        self.slices = 0
        self.notify_wakes_all = False
        self.total_acquisitions = 0
        self.monitors_created = 0
        self.largest_l_asn = 0
        self.parked_vids: List[Vid] = []
        #: Per-thread native sequence counters at capture (v2): a
        #: backup seeded from this state must continue the primary's
        #: native numbering, not restart at zero.
        self.native_seqs: Dict[Vid, int] = {}
        self.class_locks: Dict[str, int] = {}
        self.daemon_requests: Dict[int, bool] = {}
        self.uncaught: List[Tuple[str, str, str]] = []
        self.main_vid: Optional[Vid] = None
        self.se_state: Dict[str, Dict[str, Any]] = {}


def _read_object_body(r: Reader, obj: Any, resolve: Callable[[int], Any],
                      monitors_out: List[Tuple]) -> None:
    """Read one object's contents + optional monitor block."""
    if isinstance(obj, JArray):
        n = r.uvarint()
        data = r.short_ints(n)
        obj.data[:] = (data if data is not None
                       else [_read_value(r, resolve) for _ in range(n)])
    else:
        for _ in range(r.uvarint()):
            name = r.text()
            obj.fields[name] = _read_value(r, resolve)
    if r.uvarint():
        owner_vid = _read_opt_vid(r)
        recursion = r.uvarint()
        l_asn = r.uvarint()
        l_id = r.uvarint() if r.uvarint() else None
        entry = [r.vid() for _ in range(r.uvarint())]
        waiters = [r.vid() for _ in range(r.uvarint())]
        monitors_out.append(
            (obj.oid, owner_vid, recursion, l_asn, l_id, entry, waiters)
        )


def _read_state(payload: bytes) -> _SnapshotState:
    r = Reader(payload)
    _check_version(r.uvarint(), "checkpoint")
    s = _SnapshotState()
    s.instructions = r.uvarint()
    s.heavy_ops = r.uvarint()
    s.native_calls = r.uvarint()
    s.time_skew_ms = r.f64()

    # --- heap shells ----------------------------------------------------
    s.next_oid = r.uvarint()
    s.total_allocations = r.uvarint()
    s.used_cells = r.uvarint()
    s.gc_requested = bool(r.uvarint())
    n_objects = r.uvarint()
    for _ in range(n_objects):
        kind = r.uvarint()
        oid = r.uvarint()
        if kind == 1:
            obj: Any = JArray(r.text(), [], oid)
        else:
            obj = JObject(r.text(), {}, oid)
        s.objects.append(obj)
        s.by_oid[oid] = obj

    def resolve(oid: int) -> Any:
        try:
            return s.by_oid[oid]
        except KeyError:
            raise ReplicationError(
                f"checkpoint references unknown oid {oid}"
            ) from None

    # --- heap contents --------------------------------------------------
    for obj in s.objects:
        _read_object_body(r, obj, resolve, s.monitors)

    _read_nonheap(r, s, resolve)
    if not r.exhausted:
        raise ReplicationError("trailing bytes after checkpoint state")
    return s


def _read_nonheap(r: Reader, s: _SnapshotState,
                  resolve: Callable[[int], Any]) -> None:
    """Read the non-heap sections into ``s``, replacing wholesale (the
    delta-composition path reuses a base state object).  Every oid in
    them goes through ``resolve``, and every enum name is checked, so
    composition refuses what a restore could not apply."""
    # --- statics --------------------------------------------------------
    s.statics = {}
    for _ in range(r.uvarint()):
        class_name = r.text()
        field_name = r.text()
        s.statics[(class_name, field_name)] = _read_value(r, resolve)

    # --- threads --------------------------------------------------------
    s.threads = []
    for _ in range(r.uvarint()):
        t: Dict[str, Any] = {}
        t["vid"] = r.vid()
        t["name"] = r.text()
        flags = r.uvarint()
        t["is_daemon"] = bool(flags & 1)
        t["is_system"] = bool(flags & 2)
        t["reacquiring"] = bool(flags & 4)
        t["in_native"] = bool(flags & 8)
        t["forbid_sync"] = bool(flags & 16)
        t["forbid_env"] = bool(flags & 32)
        t["state"] = _read_name(r, ThreadState)
        t["br_cnt"] = r.uvarint()
        t["mon_cnt"] = r.uvarint()
        t["t_asn"] = r.uvarint()
        t["instructions"] = r.uvarint()
        t["children_spawned"] = r.uvarint()
        t["saved_recursion"] = r.uvarint()
        t["wakeup_time"] = r.f64() if r.uvarint() else None
        t["blocked_on_oid"] = _read_oid(r, resolve) if r.uvarint() else None
        t["thread_object_oid"] = (_read_oid(r, resolve) if r.uvarint()
                                  else None)
        t["pending_exception"] = _read_value(r, resolve)
        t["joiner_vids"] = [r.vid() for _ in range(r.uvarint())]
        frames = []
        for _ in range(r.uvarint()):
            f: Dict[str, Any] = {}
            f["class"] = r.text()
            f["method"] = r.text()
            f["nargs"] = r.uvarint()
            f["pc"] = r.uvarint()
            f["locals"] = [
                _read_value(r, resolve) for _ in range(r.uvarint())
            ]
            f["stack"] = [
                _read_value(r, resolve) for _ in range(r.uvarint())
            ]
            f["sync_oid"] = _read_oid(r, resolve) if r.uvarint() else None
            f["held_oids"] = [_read_oid(r, resolve)
                              for _ in range(r.uvarint())]
            frames.append(f)
        t["frames"] = frames
        s.threads.append(t)

    # --- scheduler / sync / misc ---------------------------------------
    s.runnable_vids = [r.vid() for _ in range(r.uvarint())]
    s.current_vid = _read_opt_vid(r)
    s.last_reason = _read_name(r, SliceEnd) if r.uvarint() else None
    s.reschedules = r.uvarint()
    s.slices = r.uvarint()
    s.notify_wakes_all = bool(r.uvarint())
    s.total_acquisitions = r.uvarint()
    s.monitors_created = r.uvarint()
    s.largest_l_asn = r.uvarint()
    s.parked_vids = [r.vid() for _ in range(r.uvarint())]
    s.native_seqs = {}
    for _ in range(r.uvarint()):
        vid = r.vid()
        s.native_seqs[vid] = r.uvarint()
    s.class_locks = {}
    for _ in range(r.uvarint()):
        name = r.text()
        s.class_locks[name] = _read_oid(r, resolve)
    s.daemon_requests = {}
    for _ in range(r.uvarint()):
        oid = r.uvarint()
        s.daemon_requests[oid] = bool(r.uvarint())
    s.uncaught = []
    for _ in range(r.uvarint()):
        s.uncaught.append((r.text(), r.text(), r.text()))
    s.main_vid = _read_opt_vid(r)
    s.se_state = _read_value(r, _no_refs)


# ======================================================================
# Snapshot: restore
# ======================================================================
def restore_checkpoint(checkpoint: Checkpoint, registry, natives, session,
                       config=None, *, name: str = "restored",
                       se_manager=None) -> JVM:
    """Materialize a fresh JVM from a checkpoint and verify its digest.

    Raises :class:`~repro.errors.ReplicationError` if the state digest
    re-derived from the restored machine differs from the digest the
    sender embedded — the transfer (or this restore) corrupted state
    and the snapshot must not be adopted."""
    state = _read_state(checkpoint.payload)
    jvm = JVM(registry, natives, session, config, name=name)
    _apply_state(jvm, state)
    if se_manager is not None:
        se_manager.restore_snapshot(state.se_state)
    actual = compute_state_digest(jvm, include_env=False)
    mismatched = actual.diff(checkpoint.digest)
    if mismatched:
        raise ReplicationError(
            f"checkpoint restore diverged in component(s) "
            f"{', '.join(mismatched)} for generation "
            f"{checkpoint.generation} — refusing the snapshot"
        )
    return jvm


def _apply_state(jvm: JVM, s: _SnapshotState) -> None:
    # --- heap -----------------------------------------------------------
    heap = jvm.heap
    heap.objects = list(s.objects)
    heap._next_oid = s.next_oid
    heap.used_cells = s.used_cells
    heap.total_allocations = s.total_allocations
    heap.gc_requested = s.gc_requested

    # --- statics (constructor seeded defaults; overwrite) ---------------
    for key, value in s.statics.items():
        jvm.statics[key] = value

    # --- threads, registered in snapshot order ---------------------------
    threads_by_vid: Dict[Vid, JavaThread] = {}
    for t in s.threads:
        thread = JavaThread(
            t["vid"], None, name=t["name"],
            is_daemon=t["is_daemon"], is_system=t["is_system"],
        )
        thread.state = ThreadState(t["state"])
        thread.br_cnt = t["br_cnt"]
        thread.mon_cnt = t["mon_cnt"]
        thread.t_asn = t["t_asn"]
        thread.instructions = t["instructions"]
        thread.children_spawned = t["children_spawned"]
        thread.saved_recursion = t["saved_recursion"]
        thread.wakeup_time = t["wakeup_time"]
        thread.reacquiring = t["reacquiring"]
        thread.in_native = t["in_native"]
        thread.forbid_sync = t["forbid_sync"]
        thread.forbid_env = t["forbid_env"]
        thread.pending_exception = t["pending_exception"]
        if t["thread_object_oid"] is not None:
            thread.thread_object = s.by_oid[t["thread_object_oid"]]
            jvm.threads_by_oid[t["thread_object_oid"]] = thread
        for f in t["frames"]:
            try:
                method = jvm.registry.lookup_method(
                    f["class"], f["method"], f["nargs"]
                )
            except LinkageError as exc:
                raise ReplicationError(
                    f"checkpoint frame of {thread.vid_str} does not "
                    f"link: {exc}") from None
            frame = Frame(method, [])
            frame.locals = list(f["locals"])
            frame.stack = list(f["stack"])
            frame.pc = f["pc"]
            if f["sync_oid"] is not None:
                frame.sync_object = s.by_oid[f["sync_oid"]]
            frame.held_monitors = [s.by_oid[oid] for oid in f["held_oids"]]
            thread.frames.append(frame)
        jvm.scheduler.register(thread)
        jvm.threads_by_vid[thread.vid] = thread
        threads_by_vid[thread.vid] = thread

    def thread_of(vid: Vid) -> JavaThread:
        try:
            return threads_by_vid[vid]
        except KeyError:
            raise ReplicationError(
                f"checkpoint references unknown thread "
                f"t{'.'.join(map(str, vid))}"
            ) from None

    # --- joiners (threads must all exist first) -------------------------
    for t in s.threads:
        thread = threads_by_vid[t["vid"]]
        thread.joiners = [thread_of(vid) for vid in t["joiner_vids"]]

    # --- monitors -------------------------------------------------------
    for oid, owner_vid, recursion, l_asn, l_id, entry, waiters in s.monitors:
        monitor = get_monitor(s.by_oid[oid])
        monitor.owner = (
            thread_of(owner_vid) if owner_vid is not None else None
        )
        monitor.recursion = recursion
        monitor.l_asn = l_asn
        monitor.l_id = l_id
        monitor.entry_queue.extend(thread_of(vid) for vid in entry)
        monitor.wait_set.extend(thread_of(vid) for vid in waiters)

    # --- thread -> monitor references -----------------------------------
    for t in s.threads:
        if t["blocked_on_oid"] is not None:
            # An admission-parked thread can reference a monitor with no
            # serialized state of its own (nobody owns or queues on it
            # yet); materialize it lazily, as the sync manager would.
            obj = s.by_oid[t["blocked_on_oid"]]
            get_monitor(obj)
            threads_by_vid[t["vid"]].blocked_on = obj

    # --- scheduler ------------------------------------------------------
    scheduler = jvm.scheduler
    scheduler.runnable.extend(thread_of(vid) for vid in s.runnable_vids)
    scheduler.current = (
        thread_of(s.current_vid) if s.current_vid is not None else None
    )
    scheduler.last_reason = (
        SliceEnd(s.last_reason) if s.last_reason is not None else None
    )
    scheduler.reschedules = s.reschedules
    scheduler.slices = s.slices

    # --- sync manager ---------------------------------------------------
    sync = jvm.sync
    sync.notify_wakes_all = s.notify_wakes_all
    sync.total_acquisitions = s.total_acquisitions
    sync.monitors_created = s.monitors_created
    sync.largest_l_asn = s.largest_l_asn
    sync._parked.extend(thread_of(vid) for vid in s.parked_vids)

    # --- misc ------------------------------------------------------------
    jvm.instructions = s.instructions
    jvm.heavy_ops = s.heavy_ops
    jvm.native_calls = s.native_calls
    jvm._time_skew_ms = s.time_skew_ms
    _check_class_locks(jvm, s)
    jvm._class_locks.update(
        (name, s.by_oid[oid]) for name, oid in s.class_locks.items()
    )
    jvm._daemon_requests.update(s.daemon_requests)
    jvm.uncaught.extend(s.uncaught)
    jvm.main_thread = (
        thread_of(s.main_vid) if s.main_vid is not None else None
    )
    jvm._bootstrapped = True


def _check_class_locks(jvm: JVM, s: _SnapshotState) -> None:
    """Refuse a class-lock table no bootstrap could have built.  The
    digest hashes a class lock only once its monitor has been used, so
    a renamed or re-pointed lock would otherwise restore unseen."""
    if len(set(s.class_locks.values())) != len(s.class_locks):
        raise ReplicationError(
            "checkpoint gives two classes one class-lock object")
    for name, oid in s.class_locks.items():
        if not jvm.registry.has_class(name):
            raise ReplicationError(
                f"checkpoint holds a class lock for unknown class {name!r}")
        lock = s.by_oid[oid]
        if type(lock) is not JObject or lock.class_name != "Object" \
                or lock.fields:
            raise ReplicationError(
                f"checkpoint class lock of {name!r} is {lock!r}, not a "
                f"plain Object")


# ======================================================================
def first_dispatch_vid(jvm: JVM) -> Vid:
    """The thread a primary continuing from this state dispatches first.

    Computed identically on the promoted primary and on a backup that
    restored the matching checkpoint, so a schedule-replaying backup
    knows which thread the (unlogged) first post-promotion dispatch
    ran: the head of the runnable queue, else the timed-waiting thread
    whose timer expires first (ties broken by registration order, the
    order ``wake_expired_timers`` scans)."""
    scheduler = jvm.scheduler
    if scheduler.current is not None:
        return scheduler.current.vid
    if scheduler.runnable:
        return scheduler.runnable[0].vid
    best: Optional[JavaThread] = None
    for t in scheduler.threads:
        if (t.state is ThreadState.TIMED_WAITING
                and t.wakeup_time is not None
                and (best is None or t.wakeup_time < best.wakeup_time)):
            best = t
    if best is not None:
        return best.vid
    if jvm.main_thread is not None:
        return jvm.main_thread.vid
    return ROOT_VID
