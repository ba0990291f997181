"""The logging channel between primary and backup.

Models the paper's setup: the primary buffers small log records and
sends them to the backup either periodically (when the buffer fills) or
on an output commit, in which case it waits for an acknowledgment
(pessimistic logging).  The backup keeps its log in volatile memory.

The channel owns *batching policy and wire counters*; how messages
actually move is delegated to a pluggable
:class:`~repro.replication.transport.Transport`.  With the default
:class:`~repro.replication.transport.InMemoryTransport` the failure
semantics match a reliable link under fail-stop: records still sitting
in the primary's buffer when it crashes are *lost*; records that were
flushed are delivered.  Faulty and socket transports refine this (see
the transport module's docstring); in every case the output-commit
protocol stays safe because output happens only after the covering
flush is *acknowledged by the transport*.

The channel also keeps the wire-level counters (messages, records,
bytes) that Table 2 and the communication-overhead components of
Figures 3 and 4 are computed from.
"""

from __future__ import annotations

from typing import Callable, List, Optional


class Channel:
    """One primary→backup link: batching in front of a transport."""

    def __init__(self, batch_records: int = 64, transport=None) -> None:
        if transport is None:
            from repro.replication.transport import InMemoryTransport
            transport = InMemoryTransport()
        #: The message-moving layer (in-memory, fault-injected, socket).
        self.transport = transport
        #: Records buffered at the primary, not yet flushed.  With no
        #: ``encoder`` these are wire-ready ``bytes``; with one, they
        #: are unencoded record objects serialized in one batch pass at
        #: flush time (the replication hot path buffers objects so the
        #: per-record log call does no wire work).
        self._buffer: List = []
        #: Optional batch serializer, ``records -> list[bytes]``,
        #: applied to the whole buffer at every flush.  Crash semantics
        #: are unchanged: an unflushed buffer dies with the primary
        #: whether it holds bytes or objects.
        self.encoder: Optional[Callable[[List], List[bytes]]] = None
        #: Flush automatically once this many records are buffered
        #: (the paper's "sends them periodically or on an output commit").
        self.batch_records = batch_records
        self.closed = False
        #: When > 0, auto-flush is deferred: records buffered inside an
        #: atomic section are delivered together or lost together (a
        #: native's completion marker and its side-effect record must
        #: never be split by a flush boundary — a crash between them
        #: would tell the backup the output happened while losing the
        #: state needed to take over after it).
        self._atomic_depth = 0

        # Wire counters (messages *accepted by the transport*).
        self.messages_sent = 0
        self.records_sent = 0
        self.bytes_sent = 0
        self.acks_received = 0

        #: Optional observer invoked with (n_records, n_bytes) at every
        #: flush — the metrics layer charges communication cost here.
        self.on_flush: Optional[Callable[[int, int], None]] = None
        #: Optional hook invoked at the *start* of every flush, before
        #: the buffer is read — lets record coalescers (the interval
        #: strategy) close and append any open run first.
        self.before_flush: Optional[Callable[[], None]] = None
        #: Optional observer invoked at every synchronous ack wait.
        self.on_ack_wait: Optional[Callable[[], None]] = None

    @property
    def delivered(self) -> List[bytes]:
        """Records the backup's log receiver has appended, in order."""
        return self.transport.delivered

    # ------------------------------------------------------------------
    def send_record(self, payload) -> None:
        """Buffer one log record (bytes, or an unencoded record object
        when an ``encoder`` is installed); auto-flush when the batch
        fills."""
        if self.closed:
            return
        self._buffer.append(payload)
        if len(self._buffer) >= self.batch_records \
                and self._atomic_depth == 0:
            self.flush()

    def begin_atomic(self) -> None:
        """Defer auto-flush until the matching :meth:`end_atomic`."""
        self._atomic_depth += 1

    def end_atomic(self, flush: bool = True) -> None:
        """Close an atomic section.  With ``flush=False`` (the crash
        unwind path) the deferred records stay buffered — and are thus
        lost with the primary — instead of being pushed out mid-death."""
        self._atomic_depth = max(0, self._atomic_depth - 1)
        if flush and self._atomic_depth == 0 \
                and len(self._buffer) >= self.batch_records:
            self.flush()

    def flush(self) -> None:
        """Transmit the buffer as one message."""
        if self.closed:
            return
        if self.before_flush is not None:
            self.before_flush()
        if not self._buffer:
            return
        batch = (self._buffer if self.encoder is None
                 else self.encoder(self._buffer))
        n_bytes = sum(len(r) for r in batch)
        self.messages_sent += 1
        self.records_sent += len(batch)
        self.bytes_sent += n_bytes
        if self.on_flush is not None:
            self.on_flush(len(batch), n_bytes)
        self.transport.send(batch)
        self._buffer.clear()

    def flush_and_wait_ack(self) -> float:
        """Output commit: flush everything and wait for the backup's
        acknowledgment (the pessimistic wait of Figures 3/4).  Returns
        the measured round-trip wait (0.0 on the in-memory transport).
        """
        if self.closed:
            return 0.0
        self.flush()
        rtt = self.transport.wait_ack()
        self.acks_received += 1
        if self.on_ack_wait is not None:
            self.on_ack_wait()
        return rtt

    def heartbeat(self) -> None:
        """Ship one transport-level I-am-alive message (never logged,
        never counted in the wire counters — the failure detector keys
        off these at the backup side)."""
        if self.closed:
            return
        self.transport.send_heartbeat()

    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Graceful completion: flush and let the transport push until
        everything sent has been delivered (retransmitting if needed).
        Does not count as an output-commit ack wait."""
        self.flush()
        self.transport.settle()

    def crash_primary(self) -> None:
        """Fail-stop the sender: unflushed records are lost forever;
        whatever the transport already has in flight may still arrive."""
        self._buffer.clear()
        self.closed = True
        self.transport.crash_sender()

    def truncate_delivered(self, n_records: int) -> None:
        """Drop the first ``n_records`` delivered records — the log-
        truncation rule: once a checkpoint covering them is safely at
        the backup, replay starts from the snapshot and the prefix is
        dead weight on both sides."""
        self.transport.truncate(n_records)

    @property
    def pending_records(self) -> int:
        return len(self._buffer)

    def backup_log(self, start: int = 0) -> List[bytes]:
        """The log as the backup sees it after the primary's failure,
        from delivered record ``start`` on."""
        self.transport.drain()
        return self.delivered[start:]
