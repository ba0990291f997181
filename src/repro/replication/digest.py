"""Deterministic state digests: lockstep divergence detection.

The paper's correctness argument rests on the backup reaching a state
*identical* to the primary's; until now the repo only checked
end-of-run outputs.  This module adds the missing verification layer
(HyCoR-style lockstep state comparison): the primary periodically
digests its replicated state and ships a :class:`DigestRecord` through
the ordinary log; the backup recomputes the digest at the equivalent
point of its replay and raises
:class:`~repro.errors.DivergenceError` at the *first* divergent epoch,
naming the mismatched component, instead of silently finishing with
wrong output.

Digest structure
----------------
A :class:`StateDigest` is a set of independent 128-bit component
digests, each an *order-insensitive* combination (sum mod 2**128) of
per-item hashes, so the result does not depend on heap allocation
order, thread registration order, or visit order:

* ``heap``     — every object/array reachable from the statics and the
  live thread stacks, hashed by content with references named by
  deterministic visit ids (never by replica-local oids);
* ``frames``   — per-thread call stacks: method, pc, operand stack and
  locals;
* ``monitors`` — monitor tables of all reachable objects and the class
  locks: acquisition counts, owner, queued/waiting threads;
* ``sched``    — per-thread scheduler-visible progress: ``br_cnt``,
  ``mon_cnt``, ``t_asn``, instruction count, terminated-or-live, plus
  uncaught exceptions;
* ``env``      — the stable environment snapshot
  (:meth:`~repro.env.environment.Environment.stable_digest`).

Epochs
------
Component digests are only comparable at points where the replication
strategy guarantees replicas pass through identical global states:

* **Replicated thread scheduling** replays the full interleaving, so
  every scheduling decision is such a point.  The primary emits a
  digest after every ``interval``-th
  :class:`~repro.replication.records.ScheduleRecord` (epoch = number of
  schedule records logged); the backup compares when its replay
  controller has consumed the same number of records — true lockstep.
* **Replicated lock synchronization** replicates only the lock order;
  mid-run global states differ between replicas.  Digests are compared
  at the quiescent end-of-run point (the *final* digest, epoch 0 on
  the wire's ``final`` flag), which is exactly the state a failover
  would expose.

The ``env`` component is only compared on final digests: during replay
the shared environment already holds the primary's *later* writes, so a
mid-run comparison would be vacuous or false-positive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import DivergenceError
from repro.replication.records import (
    KIND_DIGEST,
    ScheduleRecord,
    register_record_kind,
)
from repro.replication.wire import Reader, Writer

_MASK = (1 << 128) - 1

#: Component names, in canonical (wire and report) order.
COMPONENTS = ("heap", "frames", "monitors", "sched", "env")

#: Components compared during mid-run (lockstep) epochs; ``env`` is
#: final-only (see module docstring).
LOCKSTEP_COMPONENTS = ("heap", "frames", "monitors", "sched")


def _h(token: str) -> int:
    """128-bit hash of one item token."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()[:16],
        "big",
    )


def _combine(hashes: Iterable[int]) -> int:
    """Order-insensitive combination of item hashes."""
    total = 0
    for value in hashes:
        total = (total + value) & _MASK
    return total


@dataclass(frozen=True)
class StateDigest:
    """Component digests of one replica's state at one epoch."""

    components: Tuple[Tuple[str, int], ...]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.components)

    def hex(self) -> Dict[str, str]:
        return {name: f"{value:032x}" for name, value in self.components}

    def diff(self, other: "StateDigest",
             names: Tuple[str, ...] = COMPONENTS) -> List[str]:
        """Names of components present in both digests that differ."""
        mine, theirs = self.as_dict(), other.as_dict()
        return [
            name for name in names
            if name in mine and name in theirs and mine[name] != theirs[name]
        ]

    def fingerprint(self, names: Tuple[str, ...] = COMPONENTS) -> int:
        """A single 128-bit value summarizing the selected components.

        Voting members ballot on this scalar rather than the full
        component tuple: it is stable across replicas in equivalent
        states (component digests are), order-independent of ``names``
        permutations is *not* required (names come from one canonical
        constant), and any single-component difference changes it."""
        mine = self.as_dict()
        w = "|".join(f"{name}={mine[name]:032x}" for name in names
                     if name in mine)
        return _h("fp:" + w)


def _scalar_token(value: Any, ref_id: Callable[[Any], int]) -> str:
    # Ints first (``type`` test: a bool falls through to ``i{value}``
    # below, as it always has).
    if type(value) is int:
        return f"i{value}"
    from repro.runtime.values import JArray, JObject

    if value is None:
        return "null"
    if isinstance(value, (JObject, JArray)):
        return f"@{ref_id(value)}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{value!r}"
    return f"i{value}"


def compute_state_digest(jvm, env=None, *,
                         include_env: bool = True) -> StateDigest:
    """Digest all replication-relevant state of one JVM instance.

    Reachability starts from the statics (sorted) and the live thread
    stacks (sorted by vid), so visit ids — the replica-independent
    names for heap references — are identical on any replica in an
    equivalent state, regardless of allocation order or oids.
    """
    from repro.runtime.monitors import Monitor
    from repro.runtime.values import JArray, JObject

    visit_ids: Dict[int, int] = {}
    pending: List[Any] = []

    def ref_id(obj: Any) -> int:
        key = id(obj)
        vid = visit_ids.get(key)
        if vid is None:
            vid = visit_ids[key] = len(visit_ids)
            pending.append(obj)
        return vid

    def token(value: Any) -> str:
        return _scalar_token(value, ref_id)

    heap_items: List[int] = []
    frame_items: List[int] = []
    monitor_items: List[int] = []
    sched_items: List[int] = []

    # --- roots: statics (sorted), then threads (sorted by vid) --------
    for (class_name, field_name) in sorted(jvm.statics):
        value = jvm.statics[(class_name, field_name)]
        heap_items.append(
            _h(f"static:{class_name}.{field_name}={token(value)}")
        )

    threads = sorted(
        (t for t in jvm.scheduler.threads if not t.is_system),
        key=lambda t: t.vid,
    )
    for thread in threads:
        alive = "live" if thread.alive else "terminated"
        sched_items.append(_h(
            f"thread:{thread.vid}:{alive}:br={thread.br_cnt}"
            f":mon={thread.mon_cnt}:asn={thread.t_asn}"
            f":instr={thread.instructions}"
        ))
        if thread.thread_object is not None:
            ref_id(thread.thread_object)
        for depth, frame in enumerate(thread.frames):
            locals_tok = ",".join(token(v) for v in frame.locals)
            stack_tok = ",".join(token(v) for v in frame.stack)
            held = ",".join(f"@{ref_id(o)}" for o in frame.held_monitors)
            sync = (f"@{ref_id(frame.sync_object)}"
                    if frame.sync_object is not None else "-")
            frame_items.append(_h(
                f"frame:{thread.vid}:{depth}:{frame.method.signature}"
                f":pc={frame.pc}"
                f":L[{locals_tok}]:S[{stack_tok}]:H[{held}]:sync={sync}"
            ))
        if thread.pending_exception is not None:
            ref_id(thread.pending_exception)

    for vid_str, class_name, message in jvm.uncaught:
        sched_items.append(_h(f"uncaught:{vid_str}:{class_name}:{message}"))

    # --- breadth-first expansion over reachable objects ---------------
    def monitor_token(owner_id: int, monitor: Monitor) -> str:
        owner = (monitor.owner.vid if monitor.owner is not None
                 and not monitor.owner.is_system else "-")
        entry = ",".join(str(t.vid) for t in monitor.entry_queue)
        waiters = ",".join(str(t.vid) for t in monitor.wait_set)
        return (
            f"monitor:@{owner_id}:asn={monitor.l_asn}:owner={owner}"
            f":rec={monitor.recursion}:entry=[{entry}]:wait=[{waiters}]"
        )

    cursor = 0
    while cursor < len(pending):
        obj = pending[cursor]
        my_id = visit_ids[id(obj)]
        cursor += 1
        if isinstance(obj, JArray):
            body = ",".join(token(v) for v in obj.data)
            heap_items.append(_h(f"array:@{my_id}:{obj.elem_type}:[{body}]"))
        else:
            body = ",".join(
                f"{name}={token(obj.fields[name])}"
                for name in sorted(obj.fields)
            )
            heap_items.append(
                _h(f"object:@{my_id}:{obj.class_name}:{{{body}}}")
            )
        monitor = getattr(obj, "monitor", None)
        if monitor is not None and monitor.l_asn > 0:
            monitor_items.append(_h(monitor_token(my_id, monitor)))

    # Class locks are reachable by name, not by reference; their
    # monitors carry static-synchronized state.
    for class_name in sorted(jvm._class_locks):
        lock = jvm._class_locks[class_name]
        monitor = getattr(lock, "monitor", None)
        if monitor is not None and monitor.l_asn > 0:
            monitor_items.append(
                _h(f"classlock:{class_name}:"
                   + monitor_token(-1, monitor).replace("monitor:@-1:", ""))
            )

    components = [
        ("heap", _combine(heap_items)),
        ("frames", _combine(frame_items)),
        ("monitors", _combine(monitor_items)),
        ("sched", _combine(sched_items)),
    ]
    if include_env and env is not None:
        components.append(("env", _h("env:" + env.stable_digest())))
    return StateDigest(tuple(components))


class IncrementalStateDigest:
    """Stateful digester: reuses per-object hashes across passes.

    :func:`compute_state_digest` hashes every reachable object on every
    pass; at lockstep digest intervals most of the heap is provably
    untouched between passes.  The heap's mutation clock (PR 6's era
    machinery, see :meth:`~repro.runtime.heap.Heap.bump_era`) stamps
    every tracked mutation site — field/array stores (interpreter,
    block compiler, ``arraycopy``), monitor state changes
    (``MonitorTable._touch``), GC referent clearing, backup
    native-result adoption — so an object whose ``mut_era`` is below
    this digester's baseline *and* whose visit id (and referenced
    children's visit ids) match the previous pass contributes exactly
    the same item hash.  The component combination is order-insensitive
    (sum mod 2**128), so reusing that hash is sound.

    The BFS still walks every reachable object — visit ids must be
    assigned deterministically, and reachability itself can change —
    but a clean object skips token construction and sha256, which is
    where the time goes.  Frames, scheduler state, statics roots, class
    locks, and the environment are always recomputed: they are small
    and change every epoch.

    The cache holds strong references to its objects, so a swept
    object's ``id()`` cannot be recycled while a stale entry survives;
    the cache is rebuilt from the visited set each pass, dropping
    unreachable entries.  A replaced heap (checkpoint restore) resets
    the cache entirely.
    """

    def __init__(self, jvm, env=None) -> None:
        self._jvm = jvm
        self._env = env
        self._heap = getattr(jvm, "heap", None)
        #: id(obj) -> (obj, vid, deps, obj_hash, mon_hash|None) where
        #: deps is ((child, child_vid), ...) in tokenization order.
        self._cache: Dict[int, tuple] = {}
        self._clean_below = 0
        self.items_reused = 0
        self.items_hashed = 0

    def compute(self, *, include_env: bool = True) -> StateDigest:
        from repro.runtime.monitors import Monitor
        from repro.runtime.values import JArray, JObject

        jvm = self._jvm
        heap = getattr(jvm, "heap", None)
        if heap is None:
            # No mutation clock to lean on (stub JVMs in tests):
            # delegate to the stateless full walk.
            return compute_state_digest(jvm, self._env,
                                        include_env=include_env)
        if heap is not self._heap:
            # Restored/replaced heap: every cached identity is void.
            self._heap = heap
            self._cache = {}
            self._clean_below = 0
        cache = self._cache
        clean_below = self._clean_below
        new_cache: Dict[int, tuple] = {}

        visit_ids: Dict[int, int] = {}
        pending: List[Any] = []

        def ref_id(obj: Any) -> int:
            key = id(obj)
            vid = visit_ids.get(key)
            if vid is None:
                vid = visit_ids[key] = len(visit_ids)
                pending.append(obj)
            return vid

        def token(value: Any) -> str:
            return _scalar_token(value, ref_id)

        heap_items: List[int] = []
        frame_items: List[int] = []
        monitor_items: List[int] = []
        sched_items: List[int] = []

        # --- roots: identical to the full walk ------------------------
        for (class_name, field_name) in sorted(jvm.statics):
            value = jvm.statics[(class_name, field_name)]
            heap_items.append(
                _h(f"static:{class_name}.{field_name}={token(value)}")
            )

        threads = sorted(
            (t for t in jvm.scheduler.threads if not t.is_system),
            key=lambda t: t.vid,
        )
        for thread in threads:
            alive = "live" if thread.alive else "terminated"
            sched_items.append(_h(
                f"thread:{thread.vid}:{alive}:br={thread.br_cnt}"
                f":mon={thread.mon_cnt}:asn={thread.t_asn}"
                f":instr={thread.instructions}"
            ))
            if thread.thread_object is not None:
                ref_id(thread.thread_object)
            for depth, frame in enumerate(thread.frames):
                locals_tok = ",".join(token(v) for v in frame.locals)
                stack_tok = ",".join(token(v) for v in frame.stack)
                held = ",".join(f"@{ref_id(o)}" for o in frame.held_monitors)
                sync = (f"@{ref_id(frame.sync_object)}"
                        if frame.sync_object is not None else "-")
                frame_items.append(_h(
                    f"frame:{thread.vid}:{depth}:{frame.method.signature}"
                    f":pc={frame.pc}"
                    f":L[{locals_tok}]:S[{stack_tok}]:H[{held}]:sync={sync}"
                ))
            if thread.pending_exception is not None:
                ref_id(thread.pending_exception)

        for vid_str, class_name, message in jvm.uncaught:
            sched_items.append(
                _h(f"uncaught:{vid_str}:{class_name}:{message}")
            )

        # --- breadth-first expansion with per-object hash reuse -------
        def monitor_token(owner_id: int, monitor: Monitor) -> str:
            owner = (monitor.owner.vid if monitor.owner is not None
                     and not monitor.owner.is_system else "-")
            entry = ",".join(str(t.vid) for t in monitor.entry_queue)
            waiters = ",".join(str(t.vid) for t in monitor.wait_set)
            return (
                f"monitor:@{owner_id}:asn={monitor.l_asn}:owner={owner}"
                f":rec={monitor.recursion}:entry=[{entry}]:wait=[{waiters}]"
            )

        cursor = 0
        while cursor < len(pending):
            obj = pending[cursor]
            my_id = visit_ids[id(obj)]
            cursor += 1
            entry = cache.get(id(obj))
            if (entry is not None and entry[0] is obj
                    and obj.mut_era < clean_below and entry[1] == my_id):
                # Clean object: the children's vids must also match —
                # ref_id'ing them here performs exactly the enqueueing
                # the tokenizer would (deps are in tokenization order,
                # and a clean object's references are unchanged).
                for child, child_vid in entry[2]:
                    if ref_id(child) != child_vid:
                        break
                else:
                    heap_items.append(entry[3])
                    if entry[4] is not None:
                        monitor_items.append(entry[4])
                    new_cache[id(obj)] = entry
                    self.items_reused += 1
                    continue
            deps: List[tuple] = []

            def tok(value: Any, _deps=deps) -> str:
                if type(value) is int:
                    return f"i{value}"
                if isinstance(value, (JObject, JArray)):
                    vid = ref_id(value)
                    _deps.append((value, vid))
                    return f"@{vid}"
                return _scalar_token(value, ref_id)

            if isinstance(obj, JArray):
                body = ",".join(tok(v) for v in obj.data)
                obj_hash = _h(f"array:@{my_id}:{obj.elem_type}:[{body}]")
            else:
                body = ",".join(
                    f"{name}={tok(obj.fields[name])}"
                    for name in sorted(obj.fields)
                )
                obj_hash = _h(
                    f"object:@{my_id}:{obj.class_name}:{{{body}}}"
                )
            heap_items.append(obj_hash)
            mon_hash = None
            monitor = getattr(obj, "monitor", None)
            if monitor is not None and monitor.l_asn > 0:
                mon_hash = _h(monitor_token(my_id, monitor))
                monitor_items.append(mon_hash)
            new_cache[id(obj)] = (obj, my_id, tuple(deps), obj_hash,
                                  mon_hash)
            self.items_hashed += 1

        for class_name in sorted(jvm._class_locks):
            lock = jvm._class_locks[class_name]
            monitor = getattr(lock, "monitor", None)
            if monitor is not None and monitor.l_asn > 0:
                monitor_items.append(
                    _h(f"classlock:{class_name}:"
                       + monitor_token(-1, monitor)
                       .replace("monitor:@-1:", ""))
                )

        components = [
            ("heap", _combine(heap_items)),
            ("frames", _combine(frame_items)),
            ("monitors", _combine(monitor_items)),
            ("sched", _combine(sched_items)),
        ]
        if include_env and self._env is not None:
            components.append(
                ("env", _h("env:" + self._env.stable_digest()))
            )
        self._cache = new_cache
        self._clean_below = heap.era + 1
        heap.bump_era()
        return StateDigest(tuple(components))


# ======================================================================
# The wire record
# ======================================================================
@dataclass(frozen=True)
class DigestRecord:
    """One digest checkpoint shipped primary → backup.

    ``epoch`` counts the replicated scheduling events preceding the
    checkpoint (schedule records under replicated thread scheduling);
    ``final`` marks the end-of-run digest every strategy emits.
    """

    epoch: int
    final: bool
    components: Tuple[Tuple[str, int], ...]

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_DIGEST).uvarint(self.epoch)
        w.uvarint(1 if self.final else 0)
        w.uvarint(len(self.components))
        for name, value in self.components:
            w.text(name)
            w.raw(value.to_bytes(16, "big"))

    @staticmethod
    def read(r: Reader) -> "DigestRecord":
        epoch = r.uvarint()
        final = bool(r.uvarint())
        count = r.uvarint()
        components = tuple(
            (r.text(), int.from_bytes(r.raw(16), "big"))
            for _ in range(count)
        )
        return DigestRecord(epoch, final, components)

    @property
    def digest(self) -> StateDigest:
        return StateDigest(self.components)


register_record_kind(KIND_DIGEST, DigestRecord.read, core=True)


# ======================================================================
# Primary side
# ======================================================================
class DigestEmitter:
    """Observes the primary's log stream and injects digest records.

    Installed as the shipper's ``on_record`` observer: under a lockstep
    strategy it counts schedule records and, every ``interval``-th one,
    computes the state digest and logs a :class:`DigestRecord`.  The
    machine additionally calls :meth:`emit_final` from the primary's
    exit hook, so every completed run carries an end-of-run digest
    (including the stable environment component).
    """

    def __init__(self, shipper, metrics, env, *,
                 interval: Optional[int], lockstep: bool) -> None:
        self._shipper = shipper
        self._metrics = metrics
        self._env = env
        self.interval = interval
        self.lockstep = lockstep
        self.epoch = 0
        #: Set by the machine once the primary JVM exists.
        self.jvm = None
        self._emitting = False
        self._digester: Optional[IncrementalStateDigest] = None

    def _compute(self) -> StateDigest:
        """Per-epoch digests come from the incremental digester — the
        lockstep hot path re-visits only the dirty set between epochs
        (full-walk equivalence is covered by the digest test suite)."""
        if self._digester is None or self._digester._jvm is not self.jvm:
            self._digester = IncrementalStateDigest(self.jvm, self._env)
        return self._digester.compute()

    def _log_digest(self, record: DigestRecord) -> None:
        from repro.replication.records import encode

        self._emitting = True
        try:
            self._metrics.digest_records += 1
            self._metrics.digest_bytes += len(encode(record))
            self._shipper.log(record)
        finally:
            self._emitting = False

    def observe(self, record) -> None:
        """Shipper observer: one record was just logged."""
        if self._emitting or not isinstance(record, ScheduleRecord):
            return
        self.epoch += 1
        if not self.lockstep or not self.interval or self.jvm is None:
            return
        if self.epoch % self.interval:
            return
        digest = self._compute()
        self._log_digest(DigestRecord(self.epoch, False, digest.components))

    def emit_final(self) -> None:
        """End-of-run digest (the machine's exit hook)."""
        if self.jvm is None:
            return
        digest = self._compute()
        self._log_digest(DigestRecord(self.epoch, True, digest.components))


# ======================================================================
# Backup side
# ======================================================================
class DigestVerifier:
    """Recomputes and compares digests during backup replay.

    Periodic (lockstep) records are checked at the first slice boundary
    where the strategy's replay has consumed ``epoch`` schedule records
    — the exact execution point where the primary emitted them.  The
    final record is checked when the backup's run loop exits.  A
    mismatch raises :class:`~repro.errors.DivergenceError` naming the
    first divergent epoch and components.
    """

    def __init__(self, records: List[DigestRecord], env, *,
                 epoch_source: Optional[Callable[[], int]] = None) -> None:
        self._pending: List[DigestRecord] = sorted(
            (r for r in records if not r.final), key=lambda r: r.epoch
        )
        finals = [r for r in records if r.final]
        self._final: Optional[DigestRecord] = finals[-1] if finals else None
        self._env = env
        self._epoch_source = epoch_source
        self.epochs_verified = 0
        self.final_verified = False
        self._digester: Optional[IncrementalStateDigest] = None

    def extend(self, records: List[DigestRecord]) -> None:
        """Feed newly delivered digest records (hot backup)."""
        for record in records:
            if record.final:
                self._final = record
            else:
                self._pending.append(record)
        self._pending.sort(key=lambda r: r.epoch)

    @property
    def pending(self) -> int:
        return len(self._pending) + (1 if self._final is not None else 0)

    def _compare(self, record: DigestRecord, jvm,
                 names: Tuple[str, ...]) -> None:
        include_env = "env" in names
        if self._digester is None or self._digester._jvm is not jvm:
            self._digester = IncrementalStateDigest(jvm, self._env)
        local = self._digester.compute(include_env=include_env)
        mismatched = record.digest.diff(local, names)
        if mismatched:
            expected = record.digest.hex()
            got = local.hex()
            detail = "; ".join(
                f"{name}: primary={expected[name]} backup={got[name]}"
                for name in mismatched
            )
            raise DivergenceError(record.epoch, mismatched, detail)
        self.epochs_verified += 1

    def check_slice(self, jvm) -> None:
        """Compare every pending lockstep record whose epoch the replay
        has reached (called from the backup's slice-end hook)."""
        if self._epoch_source is None or not self._pending:
            return
        consumed = self._epoch_source()
        while self._pending and self._pending[0].epoch <= consumed:
            record = self._pending.pop(0)
            self._compare(record, jvm, LOCKSTEP_COMPONENTS)

    def check_final(self, jvm) -> None:
        """Compare the end-of-run digest (called from the exit hook)."""
        self.check_slice(jvm)
        if self._final is None:
            return
        record, self._final = self._final, None
        names = LOCKSTEP_COMPONENTS + (("env",) if self._env is not None
                                       else ())
        self._compare(record, jvm, names)
        self.final_verified = True
