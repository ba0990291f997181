"""Replicated thread scheduling (paper §4.2, second technique).

Assumes R4B (exclusive access to shared data while scheduled — true on
our green-threads uniprocessor).  Whenever the primary schedules a
*different* thread, it logs a
:class:`~repro.replication.records.ScheduleRecord` containing the
descheduled thread's progress point ``(br_cnt, pc_off, mon_cnt)``, the
``l_asn`` of the monitor it was waiting on (if any), and the id of the
next thread.  The backup's controller replays the records: it runs each
thread until its progress matches the logged point, then switches to
the logged successor.  After the final record it schedules the thread
the primary intended to run next and reverts to live scheduling
(paper: "the backup must schedule t' because at the primary t' might
have interacted with the environment").

Progress points are exact: ``br_cnt`` only advances on control-flow
changes, so between two changes the pc increases monotonically and
``(br_cnt, pc_off)`` identifies a unique instruction boundary;
``mon_cnt`` disambiguates re-executed acquisition attempts.  One paper
complication does not arise here: our native methods execute atomically
within a slice, so a thread is never descheduled *inside* a native
method (the mon_cnt-budget rule of §4.2 exists in the record format and
in the replay comparison, but the budget case is unreachable — see
DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.errors import RecoveryError
from repro.replication.commit import LogShipper
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import ScheduleRecord
from repro.runtime.scheduler import ScheduleController, Scheduler, SliceEnd
from repro.runtime.threads import JavaThread, ThreadState

#: Quantum used while replaying — preemption comes from progress
#: targets, never from quantum expiry.
_REPLAY_QUANTUM = 1 << 60


class PrimarySchedController(ScheduleController):
    """Primary side: jittered round-robin plus record logging."""

    def __init__(self, seed: int, quantum_base: int, quantum_jitter: int,
                 shipper: LogShipper, metrics: ReplicationMetrics) -> None:
        super().__init__(seed, quantum_base, quantum_jitter)
        self._shipper = shipper
        self._metrics = metrics

    def on_switch(self, prev: Optional[JavaThread], reason: Optional[SliceEnd],
                  next_thread: JavaThread) -> None:
        if prev is None or prev.is_system or next_thread.is_system:
            # The first dispatch (always the main thread) needs no
            # record, and system threads are never replicated.
            return
        br_cnt, pc_off, mon_cnt = prev.progress_point()
        blocked = prev.blocked_on
        l_asn = blocked.l_asn if blocked is not None else -1
        self._shipper.log(ScheduleRecord(
            br_cnt, pc_off, mon_cnt, l_asn, next_thread.vid, prev.vid
        ))
        self._metrics.schedule_records += 1


class BackupSchedController(ScheduleController):
    """Backup side: replay the primary's schedule, then go live.

    Replay preemption works because every logged progress point is an
    event boundary: the primary only ever deschedules a thread right
    after a control-flow change (quantum expiry) or at a blocking
    instruction with its counters undone, so the fast path's
    event-boundary :meth:`should_preempt` checks observe every point
    the primary could have logged.
    """

    #: Replay preemption is real here — the execution engine must call
    #: :meth:`should_preempt` at every safe-point boundary.
    needs_preempt_checks = True

    def __init__(self, records: List[ScheduleRecord],
                 fallback: ScheduleController,
                 metrics: ReplicationMetrics) -> None:
        super().__init__()
        self._records: Deque[ScheduleRecord] = deque(records)
        self._fallback = fallback
        self._metrics = metrics
        #: Set by the machine after the backup JVM exists.
        self.jvm = None
        self._current_vid = None  # None until first pick (main thread)
        self._pending_live_vid = None
        #: Hot-backup mode: when the record queue runs dry, report
        #: starvation instead of going live.
        self.hold_when_drained = False
        #: Failover-time escape hatch for the *uncertain tail*: a
        #: predicate on a vid, true while that thread's next native is
        #: a delivered output intent with no completion marker.  In
        #: hold mode the gated thread may run just far enough to
        #: resolve the intent (test/confirm/re-execute) even though the
        #: schedule log is drained — without it the replay would starve
        #: one native short of the paper's exactly-once resolution.
        self.tail_gate = None
        #: True while the controller is waiting for more log (read by
        #: the run loop's pause logic).
        self.starving = False
        #: Schedule records consumed so far — the replay's digest epoch
        #: (read by :class:`repro.replication.digest.DigestVerifier`).
        self.consumed = 0

    def extend(self, records: List[ScheduleRecord]) -> None:
        """Append newly delivered schedule records (hot backup feed)."""
        self._records.extend(records)
        if records:
            self.starving = False
            self._pending_live_vid = None

    # ------------------------------------------------------------------
    @property
    def in_recovery(self) -> bool:
        return bool(self._records)

    def remaining(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    def quantum(self, thread: JavaThread) -> int:
        if self._records:
            return _REPLAY_QUANTUM
        return self._fallback.quantum(thread)

    def _several_live_app_threads(self, scheduler: Scheduler) -> bool:
        """Are two or more application threads alive?  A scheduler
        holding fewer than two threads answers without the walk."""
        threads = scheduler.threads
        return len(threads) > 1 and sum(
            1 for t in threads if t.alive and not t.is_system
        ) > 1

    def should_preempt(self, thread: JavaThread) -> bool:
        if not self._records:
            # Hot backup running the single-thread prefix unbounded: the
            # moment a second thread exists, further execution would
            # guess an interleaving — stop and wait for the record.
            if (
                self.hold_when_drained
                and self.jvm is not None
                and self._several_live_app_threads(self.jvm.scheduler)
            ):
                # ... except the uncertain-tail thread, which must
                # reach its native; preempt it the moment the tail is
                # resolved.
                return not (self.tail_gate is not None
                            and self.tail_gate(thread.vid))
            return False
        return thread.progress_point() == self._records[0].progress

    def on_slice_end(self, thread: JavaThread, reason: SliceEnd) -> None:
        if not self._records:
            self._fallback.on_slice_end(thread, reason)
            return
        record = self._records[0]
        at_target = thread.progress_point() == record.progress
        if reason is SliceEnd.CONTROLLER:
            self._consume(record, thread)
        elif at_target and reason in (
            SliceEnd.TERMINATED, SliceEnd.WAITING, SliceEnd.BLOCKED,
            SliceEnd.YIELDED,
        ):
            self._consume(record, thread)
        elif reason in (SliceEnd.TERMINATED, SliceEnd.WAITING,
                        SliceEnd.BLOCKED, SliceEnd.PARKED):
            raise RecoveryError(
                f"schedule replay diverged: {thread.vid_str} stopped "
                f"({reason.value}) at {thread.progress_point()} before "
                f"reaching the logged point {record.progress}"
            )
        # YIELDED off-target: the primary's yield did not switch threads
        # (no other runnable thread); continue with the same thread.

    def _consume(self, record: ScheduleRecord, thread: JavaThread) -> None:
        if record.prev_t_id != thread.vid:
            raise RecoveryError(
                f"schedule replay diverged: log deschedules "
                f"t{'.'.join(map(str, record.prev_t_id))} but "
                f"{thread.vid_str} was running"
            )
        self._records.popleft()
        self._metrics.records_replayed += 1
        self.consumed += 1
        self._current_vid = record.t_id
        if not self._records:
            # Paper: after the last record, the primary's intended next
            # thread must still be scheduled first.
            self._pending_live_vid = record.t_id

    def set_resume_vid(self, vid) -> None:
        """First dispatch of a checkpoint-restored replay: the thread
        that was current at the snapshot, not necessarily main."""
        self._current_vid = vid

    def pick_next(self, scheduler: Scheduler) -> Optional[JavaThread]:
        if not self._records and self.hold_when_drained:
            if self._several_live_app_threads(scheduler):
                # With no schedule records at all (checkpoint-restored
                # replay of a log that held none), the resume thread set
                # via set_resume_vid is the one the tail gate applies to.
                vid = (self._pending_live_vid
                       if self._pending_live_vid is not None
                       else self._current_vid)
                if (vid is not None and self.tail_gate is not None
                        and self.tail_gate(vid)):
                    # Only the uncertain-tail thread may run, and only
                    # until its intent resolves (should_preempt stops
                    # it right after).
                    thread = self.jvm.threads_by_vid.get(vid)
                    if thread is not None:
                        if (thread.state is ThreadState.TIMED_WAITING
                                and thread.wakeup_time is not None):
                            return None
                        if thread.state is ThreadState.RUNNABLE:
                            if thread in scheduler.runnable:
                                scheduler.runnable.remove(thread)
                            return thread
                # Several threads but no record to bound the next slice:
                # running any of them could overshoot the primary's
                # schedule, so wait for more log.
                self.starving = True
                return None
            # A single thread has no interleaving to get wrong; native
            # record starvation paces it against the log.
            return self._fallback.pick_next(scheduler)
        if self._records:
            vid = self._current_vid
            if vid is None:
                # First dispatch: the main thread, as at the primary.
                vid = self.jvm.main_thread.vid
                self._current_vid = vid
            thread = self.jvm.threads_by_vid.get(vid)
            if thread is None:
                raise RecoveryError(
                    f"schedule log names unknown thread "
                    f"t{'.'.join(map(str, vid))}"
                )
            if (thread.state is ThreadState.TIMED_WAITING
                    and thread.wakeup_time is not None):
                # The primary ran this thread after its timer fired; let
                # the run loop advance virtual time, then retry.
                return None
            if thread.state is not ThreadState.RUNNABLE:
                raise RecoveryError(
                    f"schedule log expects {thread.vid_str} to run but it "
                    f"is {thread.state.value}"
                )
            # Keep the runnable queue clean for the eventual live phase.
            if thread in scheduler.runnable:
                scheduler.runnable.remove(thread)
            return thread
        if self._pending_live_vid is not None:
            thread = self.jvm.threads_by_vid.get(self._pending_live_vid)
            if thread is not None and thread.state is ThreadState.RUNNABLE:
                self._pending_live_vid = None
                if thread in scheduler.runnable:
                    scheduler.runnable.remove(thread)
                return thread
            if (thread is not None
                    and thread.state is ThreadState.TIMED_WAITING
                    and thread.wakeup_time is not None):
                return None
            self._pending_live_vid = None
        return self._fallback.pick_next(scheduler)
