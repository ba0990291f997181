"""Interval-coalesced lock replication (the paper's §6 suggestion).

The paper observes that DejaVu's *logical thread intervals* would cut
mtrt's 700,258 lock-acquisition records to 56 intervals — "four orders
of magnitude fewer events" — and that "our implementation could benefit
from the use of intervals".  This module implements that optimization
as a third strategy, ``lock_intervals``:

* the **primary** coalesces consecutive monitor acquisitions by the
  same thread into a single :class:`LockIntervalRecord` ``(t_id, count)``
  — between two acquisitions by *other* threads, a thread's execution
  is deterministic, so the identities of the locks it acquires need not
  be shipped;
* the **backup** replays the *global* acquisition order: only the
  thread at the head of the interval queue may complete acquisitions,
  for exactly ``count`` of them, then authority passes to the next
  interval's thread.

Replaying the global acquisition order is strictly stronger than
replaying each lock's order, so correctness needs exactly R4A, like
plain replicated lock synchronization.  The win is wire volume: one
record per *interval* instead of one per acquisition (plus no id maps
at all, since lock identities are never shipped).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.replication.commit import LogShipper
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import LockIntervalRecord
from repro.runtime.monitors import AdmissionController, Monitor
from repro.runtime.threads import JavaThread

Vid = Tuple[int, ...]


class PrimaryIntervalLockSync(AdmissionController):
    """Primary side: run-length-encode the acquisition sequence.

    An open interval is buffered in memory and logged only when a
    different thread acquires (or at ``flush_open_interval``, called
    before every output commit so the backup's log is complete at
    commit time).
    """

    def __init__(self, shipper: LogShipper, metrics: ReplicationMetrics) -> None:
        self._shipper = shipper
        self._metrics = metrics
        self._open_vid: Optional[Vid] = None
        self._open_count = 0
        # The shipper flushes on output commit; the open interval must
        # be logged first so the backup's log is complete at commit time.
        shipper.channel.before_flush = self.flush_open_interval

    def on_acquired(self, thread: JavaThread, monitor: Monitor) -> None:
        if thread.is_system:
            return
        if self._open_vid == thread.vid:
            self._open_count += 1
            return
        self.flush_open_interval()
        self._open_vid = thread.vid
        self._open_count = 1

    def flush_open_interval(self) -> None:
        if self._open_vid is None:
            return
        vid, count = self._open_vid, self._open_count
        self._open_vid = None
        self._open_count = 0
        self._shipper.log(LockIntervalRecord(vid, count))
        self._metrics.lock_records += 1
        self._metrics.interval_acquisitions += count


class BackupIntervalLockSync(AdmissionController):
    """Backup side: enforce the global acquisition order by intervals."""

    def __init__(self, intervals: List[LockIntervalRecord],
                 metrics: ReplicationMetrics) -> None:
        self._intervals: Deque[LockIntervalRecord] = deque(intervals)
        self._metrics = metrics
        self._remaining_in_head = (
            self._intervals[0].count if self._intervals else 0
        )
        #: Hot-backup mode: wait for more log instead of going live.
        self.hold_when_drained = False

    def extend(self, intervals: List[LockIntervalRecord]) -> None:
        """Append newly delivered intervals (hot backup feed)."""
        was_empty = not self._intervals
        self._intervals.extend(intervals)
        if was_empty and self._intervals:
            self._remaining_in_head = self._intervals[0].count

    @property
    def in_recovery(self) -> bool:
        return bool(self._intervals)

    def remaining(self) -> int:
        return len(self._intervals)

    def may_acquire(self, thread: JavaThread, monitor: Monitor) -> bool:
        if thread.is_system:
            return True
        if not self._intervals:
            return not self.hold_when_drained
        return self._intervals[0].t_id == thread.vid

    def on_acquired(self, thread: JavaThread, monitor: Monitor) -> None:
        if thread.is_system or not self._intervals:
            return
        head = self._intervals[0]
        if head.t_id != thread.vid:
            raise RecoveryError(
                f"interval replay diverged: {thread.vid_str} acquired "
                f"during t{'.'.join(map(str, head.t_id))}'s interval"
            )
        self._remaining_in_head -= 1
        if self._remaining_in_head == 0:
            self._intervals.popleft()
            self._metrics.records_replayed += 1
            if self._intervals:
                self._remaining_in_head = self._intervals[0].count
