"""Logging and output commit at the primary; crash injection.

The :class:`LogShipper` is the primary's half of the paper's log
transfer thread: records are serialized, buffered in the channel, and
flushed either when the batch fills or at an *output commit*, where the
primary synchronously waits for the backup's acknowledgment before
letting the output command touch the environment (pessimistic logging).

:class:`CrashInjector` implements fail-stop at a precise point in the
event sequence.  Every observable action (record logged, flush, ack,
output about to execute, output executed) bumps an event counter; when
the counter reaches the configured crash point the injector raises
:class:`~repro.errors.PrimaryCrashed`, which unwinds the primary's run
loop.  Tests sweep the crash point across a run's entire event range to
prove exactly-once output for *every* failure position.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import List, Optional

from repro.env.channel import Channel
from repro.errors import PrimaryCrashed
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import EpochRecord, KIND_EPOCH, encode
from repro.replication.wire import Reader, Writer


class CrashInjector:
    """Deterministically fail-stop the primary at event N."""

    def __init__(self, crash_at: Optional[int] = None) -> None:
        self.crash_at = crash_at
        self.events = 0
        self.fired = False

    def step(self, label: str) -> None:
        self.events += 1
        if self.crash_at is not None and self.events >= self.crash_at:
            self.fired = True
            raise PrimaryCrashed(
                f"fail-stop injected at event {self.events} ({label})"
            )


def encode_batch(epoch: Optional[int], records) -> List[bytes]:
    """Serialize one flush's worth of buffered records.

    With a generation stamp, each record ships inside an
    ``EpochRecord`` envelope — ``uvarint(KIND_EPOCH) + uvarint(epoch) +
    uvarint(len(payload)) + payload``, the bytes
    :meth:`EpochRecord.write` produces — built in one writer."""
    if epoch is None:
        return [encode(record) for record in records]
    out = []
    for record in records:
        payload = encode(record)
        out.append(Writer().uvarint(KIND_EPOCH).uvarint(epoch)
                   .uvarint(len(payload)).raw(payload).bytes())
    return out


def _count_flush(metrics: ReplicationMetrics, n_records: int,
                 n_bytes: int) -> None:
    metrics.messages_sent += 1
    metrics.records_sent += n_records
    metrics.bytes_sent += n_bytes


def _count_ack_wait(metrics: ReplicationMetrics) -> None:
    metrics.ack_waits += 1


class LogShipper:
    """Primary-side record logging and output commit."""

    def __init__(self, channel: Channel, metrics: ReplicationMetrics,
                 injector: Optional[CrashInjector] = None,
                 epoch: Optional[int] = None) -> None:
        self.channel = channel
        self._channel = channel
        self.metrics = metrics
        self.injector = injector or CrashInjector()
        #: Generation stamp: when set, every record ships inside an
        #: :class:`~repro.replication.records.EpochRecord` envelope so
        #: the receive side can fence out a deposed primary.  ``None``
        #: (the single-failover :class:`ReplicatedJVM`) ships records
        #: unwrapped.
        self.epoch = epoch
        #: Optional observer invoked after every record is logged
        #: (e.g. the digest emitter counts scheduling records here).
        self.on_record = None
        #: Optional quorum gate invoked at the end of every
        #: :meth:`output_commit`, after the flush+ack round trip but
        #: before the caller is allowed to execute the output command.
        #: A voting group installs its certificate check here: the gate
        #: raises (:class:`~repro.errors.PrimaryOutvoted`,
        #: :class:`~repro.errors.QuorumLostError`) to veto the release.
        self.commit_gate = None
        # The channel's hooks bind what they use, not the shipper that
        # owns the channel: a dropped shipper is freed by refcount.
        channel.on_flush = partial(_count_flush, metrics)
        channel.on_ack_wait = partial(_count_ack_wait, metrics)
        channel.encoder = partial(encode_batch, epoch)

    # ------------------------------------------------------------------
    def log(self, record) -> None:
        """Buffer one record for shipment to the backup.

        The record object itself is buffered; serialization happens in
        one batch pass per flush (:func:`encode_batch`), so the hot
        log call does no wire work.  Records are immutable dataclasses,
        so deferring the encoding cannot change the bytes."""
        self.injector.step(f"log:{type(record).__name__}")
        self._channel.send_record(record)
        if self.on_record is not None:
            self.on_record(record)

    def _encode_batch(self, records) -> List[bytes]:
        """Serialize one flush's worth of buffered records (the
        channel's ``encoder``, :func:`encode_batch`)."""
        return encode_batch(self.epoch, records)

    @contextmanager
    def atomic(self):
        """Keep everything logged inside the block in one flush unit.

        A native's completion marker and its side-effect record describe
        a single event; if a flush boundary fell between them, a crash
        could deliver the marker (so the backup adopts the result and
        suppresses re-execution) while losing the side-effect state
        needed to carry on after it.  Deferring auto-flush for the pair
        makes them delivered-together or lost-together — the lost case
        degrades to the ordinary uncertain-tail recovery."""
        self._channel.begin_atomic()
        try:
            yield
        except BaseException:
            # Crashing mid-unit: the half-logged unit must die with us,
            # not be flushed out by the unwind.
            self._channel.end_atomic(flush=False)
            raise
        else:
            self._channel.end_atomic()

    def output_commit(self) -> None:
        """Flush everything logged so far and wait for the ack.  Only
        after this returns may the output command execute.  The ack is
        an explicit transport-level message, so the measured wait is a
        true round trip (zero on the in-memory transport)."""
        self.metrics.output_commits += 1
        self.injector.step("commit")
        rtt = self._channel.flush_and_wait_ack()
        if rtt:
            self.metrics.ack_wait_time += rtt
        if self.commit_gate is not None:
            self.commit_gate()

    def checkpoint_commit(self) -> None:
        """Flush a fully-logged checkpoint and wait for the ack.

        The ack is the *log-truncation point*: once the backup holds
        the complete checkpoint, every record that preceded it in the
        log is redundant (replay starts from the snapshot, not from
        the beginning of time) and may be dropped on both sides."""
        self.injector.step("checkpoint-commit")
        rtt = self._channel.flush_and_wait_ack()
        if rtt:
            self.metrics.checkpoint_transfer_wait += rtt
        self.metrics.checkpoints_shipped += 1

    def truncate_at_checkpoint(self, n_records: int) -> None:
        """Drop ``n_records`` delivered records at a checkpoint
        boundary (sender-side view of the shared log)."""
        self._channel.truncate_delivered(n_records)
        self.metrics.records_truncated += n_records


class EpochFence:
    """Receive-side split-brain guard.

    Filters a raw delivered log down to the payloads stamped with the
    expected epoch.  Records from older epochs (a deposed primary that
    kept shipping before noticing it lost the role) are discarded and
    counted — never silently adopted.  Records from *newer* epochs
    would mean this fence itself is stale; they are also discarded,
    and the caller can inspect :attr:`newest_seen` to find out.
    Unwrapped records (no envelope) predate the epoch protocol and are
    rejected whenever fencing is active."""

    def __init__(self, expected_epoch: int,
                 metrics: Optional[ReplicationMetrics] = None) -> None:
        self.expected_epoch = expected_epoch
        self._metrics = metrics
        self.fenced = 0
        #: Largest epoch observed on any record, fenced or not.
        self.newest_seen = -1

    def _reject(self, count: int = 1) -> None:
        self.fenced += count
        if self._metrics is not None:
            self._metrics.records_fenced += count

    def filter_raw(self, raw_records: List[bytes]) -> List[bytes]:
        """Unwrap and keep only current-epoch payloads, in order."""
        kept: List[bytes] = []
        for data in raw_records:
            r = Reader(data)
            if r.uvarint() != KIND_EPOCH:
                self._reject()
                continue
            epoch = r.uvarint()
            self.newest_seen = max(self.newest_seen, epoch)
            if epoch != self.expected_epoch:
                self._reject()
                continue
            kept.append(r.raw(r.uvarint()))
        return kept
