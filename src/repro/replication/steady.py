"""Steady-state incremental checkpointing: bounded logs, bounded recovery.

Log-based recovery as implemented by :class:`ReplicatedJVM` and
:class:`ReplicaGroup` replays every record shipped since the current
recovery basis.  Without a mid-run checkpoint that basis is the start
of the run (pair machine) or the generation's arm-time snapshot
(replica group), so two quantities grow without bound while the primary
stays healthy: the retained log (memory on both sides) and worst-case
recovery replay (time to promote after a crash).  The paper notes the
fix in §3.3 — periodically checkpoint the primary and truncate the log
at the checkpoint boundary — and this module implements it
*incrementally*, so steady-state cost scales with what changed, not
with heap size:

1. the heap tracks mutations per object (``mut_era``, stamped by
   putfield/arrstore/arraycopy/monitor transitions and advanced by
   :meth:`~repro.runtime.heap.Heap.advance_era`), so a capture can
   serialize only objects dirtied since the last adopted checkpoint
   plus the set of freed oids;
2. every ``checkpoint_interval`` execution slices, at the next
   *replayable boundary* (a QUANTUM/YIELDED slice end of a runnable
   application thread, or a serving-mode park on the empty request
   port), the primary captures a :class:`DeltaCheckpoint` and ships
   its chunks through the ordinary log channel, then performs a
   checkpoint commit (flush + ack) exactly like an output commit;
3. the receive side reassembles the chunks *from the wire*, composes
   the delta onto its retained basis (:func:`compose_delta` — pure
   byte surgery, no JVM: it decodes only the delta and copies each
   clean basis object's encoded bytes, so its cost follows the delta,
   not the basis), optionally verifies the composed snapshot by
   restoring it into a scratch machine and re-deriving the digest,
   and only then truncates the delivered log to empty.  Neither the
   delta nor the basis carries the stable environment, which outlives
   the primary on its own, so a basis stays the size of the replica
   state however many requests the shard has answered;
4. the heap era advances, opening the next dirty window.

A crash anywhere inside an emission is safe: chunk logging and the
commit run through the ordinary :class:`CrashInjector` event counter,
torn delta chunks in a dead primary's log tail have no parse rule and
are ignored by recovery, and the basis only moves *after* the transfer
is acknowledged and composed.  Recovery from the retained basis then
replays only the post-checkpoint tail — work bounded by the emission
interval, not by run length.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.errors import ReplicationError
from repro.replication.checkpoint import (
    DEFAULT_CHUNK_BYTES,
    Checkpoint,
    CheckpointAssembler,
    CheckpointChunkRecord,
    DeltaAssembler,
    DeltaCheckpoint,
    DeltaChunkRecord,
    compose_delta,
)
from repro.replication.commit import EpochFence
from repro.replication.records import decode_record
from repro.runtime.jvm import RunHooks
from repro.runtime.scheduler import SliceEnd
from repro.runtime.threads import ThreadState

Vid = Tuple[int, ...]


class SteadyHooks(RunHooks):
    """Run-hook wrapper installed on a steadily-checkpointing primary.
    The relay runs *after* the inner hooks' heartbeat, so an emission's
    commit round-trip never starves the failure detector."""

    def __init__(self, inner: RunHooks, steady: "SteadyCheckpointer"
                 ) -> None:
        self._inner = inner
        self._steady = steady

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._inner.on_slice_end(jvm, thread, reason)
        self._steady.note_slice(jvm, thread, reason)

    def on_gc(self, jvm, freed_cells) -> None:
        self._inner.on_gc(jvm, freed_cells)

    def on_exit(self, jvm, result) -> None:
        self._inner.on_exit(jvm, result)


class SteadyCheckpointer:
    """Periodic delta-checkpoint emission plus synchronous adoption.

    Owned by the side that holds the primary role; the "backup half"
    (reassembly, composition, verification, truncation bookkeeping) is
    executed synchronously after the transfer ack, exactly as the
    replica group's arm-time transfer does, so the retained
    :attr:`basis` is always something a promoted backup can restore.

    ``verify_restore(checkpoint)`` — optional callback that restores
    the composed snapshot into a scratch machine (raising on digest
    mismatch); ``on_adopt(checkpoint, delta)`` — optional bookkeeping
    callback fired after adoption but *before* log truncation (the
    replica group re-arms its k recovery bases and re-biases the
    request-port accounting here).
    """

    def __init__(self, shipper, channel, metrics, se_manager, *,
                 interval: int,
                 generation: int = 0,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 basis: Optional[Checkpoint] = None,
                 verify_restore: Optional[Callable[[Checkpoint], None]] = None,
                 on_adopt: Optional[Callable] = None) -> None:
        if interval is None or interval < 1:
            raise ReplicationError(
                f"checkpoint_interval must be a positive slice count, "
                f"got {interval!r}"
            )
        self._shipper = shipper
        self._channel = channel
        self._metrics = metrics
        self._se_manager = se_manager
        self.interval = interval
        self.generation = generation
        self.chunk_bytes = chunk_bytes
        #: Last adopted full checkpoint (None until the first emission,
        #: which then ships a full snapshot instead of a delta).
        self.basis = basis
        #: Stream position: seq of the current basis (-1 = none yet).
        #: The replica group's arm-time full checkpoint is seq 0.
        self.seq = -1 if basis is None else 0
        self._verify_restore = verify_restore
        self._on_adopt = on_adopt
        self._slices = 0
        #: Checkpoints successfully emitted and adopted.
        self.emissions = 0

    # ------------------------------------------------------------------
    # Run-hook relays
    # ------------------------------------------------------------------
    def note_slice(self, jvm, thread, reason: SliceEnd) -> None:
        """Count one execution slice; emit at a replayable boundary.

        Only QUANTUM/YIELDED ends of a still-runnable application
        thread qualify: the descheduled thread is then ``current`` and
        not yet requeued, so the *next* ScheduleRecord the primary logs
        deschedules it at exactly the captured progress point — a
        schedule-replaying backup resumes by dispatching that thread
        and consuming the record with zero re-executed instructions.
        """
        retained = (len(self._channel.delivered)
                    + self._channel.pending_records)
        if retained > self._metrics.retained_records_max:
            self._metrics.retained_records_max = retained
        self._slices += 1
        if self._slices < self.interval:
            return
        if reason not in (SliceEnd.QUANTUM, SliceEnd.YIELDED):
            return
        if thread.is_system or thread.state is not ThreadState.RUNNABLE:
            return
        self.emit(jvm)

    def note_park(self, jvm) -> None:
        """Serving mode: the pump parked on an empty request port — a
        quiescent point (no current thread), ideal for emission."""
        if self._slices >= self.interval:
            self.emit(jvm)

    # ------------------------------------------------------------------
    # One emission
    # ------------------------------------------------------------------
    def emit(self, jvm) -> None:
        """Capture, ship, adopt, truncate, advance the dirty window.

        May raise :class:`~repro.errors.PrimaryCrashed` from the crash
        injector while chunks are logged or at the commit — the basis
        is untouched in that case and recovery proceeds from it.
        """
        from repro.replication.checkpoint import (
            take_checkpoint,
            take_delta_checkpoint,
        )

        self._slices = 0
        metrics = self._metrics
        sched_epoch = metrics.schedule_records
        policy = jvm.native_policy
        native_seqs = (policy.native_seqs()
                       if hasattr(policy, "native_seqs") else None)

        if self.basis is None:
            full = take_checkpoint(
                jvm, self._se_manager, generation=self.generation,
                native_seqs=native_seqs, sched_epoch=sched_epoch,
            )
            chunks = full.to_chunks(self.chunk_bytes)
            for chunk in chunks:
                self._shipper.log(chunk)
                metrics.checkpoint_records += 1
                metrics.checkpoint_bytes += len(chunk.data)
        else:
            delta = take_delta_checkpoint(
                jvm, self._se_manager, generation=self.generation,
                seq=self.seq + 1, base_seq=self.seq,
                sched_epoch=sched_epoch,
                native_seqs=native_seqs,
            )
            chunks = delta.to_chunks(self.chunk_bytes)
            for chunk in chunks:
                self._shipper.log(chunk)
                metrics.delta_records += 1
                metrics.delta_bytes += len(chunk.data)
        self._shipper.checkpoint_commit()

        composed, delta = self._adopt_from_wire()
        if self._verify_restore is not None:
            self._verify_restore(composed)
        self.basis = composed
        self.seq += 1
        self.emissions += 1
        if delta is not None:
            metrics.deltas_shipped += 1
        if self._on_adopt is not None:
            self._on_adopt(composed, delta)
        self._shipper.truncate_at_checkpoint(len(self._channel.delivered))
        jvm.heap.advance_era()

    # ------------------------------------------------------------------
    def _adopt_from_wire(self) -> Tuple[Checkpoint,
                                        Optional[DeltaCheckpoint]]:
        """The receive half: reassemble the acknowledged transfer from
        the *delivered wire records* (not the in-memory object), so
        chunk framing and assembler idempotence are exercised on every
        emission, then compose onto the basis."""
        raw = self._channel.backup_log()
        if self._shipper.epoch is not None:
            raw = EpochFence(self._shipper.epoch,
                             self._metrics).filter_raw(raw)
        want_seq = self.seq + 1
        full_asm = CheckpointAssembler()
        delta_asm = DeltaAssembler()
        full: Optional[Checkpoint] = None
        delta: Optional[DeltaCheckpoint] = None
        for data in raw:
            record = decode_record(data)
            if isinstance(record, DeltaChunkRecord):
                got = delta_asm.feed(record)
                if got is not None and got.generation == self.generation \
                        and got.seq == want_seq:
                    delta = got
            elif isinstance(record, CheckpointChunkRecord):
                got = full_asm.feed(record)
                if got is not None and got.generation == self.generation:
                    full = got
        if self.basis is None:
            if full is None:
                raise ReplicationError(
                    f"steady checkpoint transfer (generation "
                    f"{self.generation}) was acknowledged but never "
                    f"assembled from the delivered log"
                )
            return full, None
        if delta is None:
            raise ReplicationError(
                f"delta checkpoint seq {want_seq} (generation "
                f"{self.generation}) was acknowledged but never "
                f"assembled from the delivered log"
            )
        if delta.base_seq != self.seq:
            raise ReplicationError(
                f"delta seq {delta.seq} applies to base {delta.base_seq}, "
                f"but the retained basis is seq {self.seq} — refusing "
                f"out-of-order composition"
            )
        composed = compose_delta(self.basis, delta)
        self._metrics.deltas_composed += 1
        return composed, delta
