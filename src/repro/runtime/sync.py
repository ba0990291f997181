"""Monitor operations: enter, exit, wait, notify.

This module owns the state transitions between threads and monitors.
The interpreter calls in when executing ``monitorenter``/``monitorexit``
bytecodes, ``synchronized`` method prologues/epilogues, and the
``wait``/``notify`` intrinsics.

Replication hooks
-----------------
Every *non-recursive* acquisition consults the pluggable
:class:`~repro.runtime.monitors.AdmissionController`:

* ``may_acquire`` can veto an otherwise-possible acquisition, parking
  the thread — this is how the backup enforces the primary's lock
  acquisition order during recovery (paper §4.2);
* ``on_acquired``/``on_released`` observe completed transitions — this
  is where the primary creates lock acquisition records.

Counters updated here (and only here) feed the replication records:
``thread.t_asn`` (locks acquired by the thread), ``monitor.l_asn``
(acquisitions of the lock), and ``thread.mon_cnt`` (all monitor events,
recursive included, matching the paper's native-method progress rule).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, List, Optional

from repro.runtime.monitors import AdmissionController, Monitor, get_monitor
from repro.runtime.threads import JavaThread, ThreadState

if TYPE_CHECKING:
    from repro.runtime.scheduler import Scheduler


class EnterResult(enum.Enum):
    ACQUIRED = "acquired"
    BLOCKED = "blocked"    # monitor held by another thread
    PARKED = "parked"      # vetoed by the admission controller


class SyncManager:
    """Coordinates threads, monitors, and the admission controller."""

    def __init__(self, scheduler: "Scheduler") -> None:
        self._scheduler = scheduler
        #: Set by the JVM after construction; monitor state lives on
        #: heap objects, so monitor transitions must stamp the object's
        #: mutation era for delta checkpoints.
        self.heap = None
        self.admission: AdmissionController = AdmissionController()
        #: Threads parked by the admission controller, re-evaluated
        #: after every monitor event (acquire/release/log progress).
        self._parked: List[JavaThread] = []
        #: When True, ``notify`` wakes every waiter (the lock-sync
        #: backup uses this; re-acquisition order is then enforced by
        #: the admission controller, and application code relies on the
        #: standard guarded-wait idiom for spurious wakeups).
        self.notify_wakes_all = False
        #: Monotonic count of completed (non-recursive) acquisitions
        #: across all monitors; exported to metrics.
        self.total_acquisitions = 0
        #: Distinct monitors ever acquired ("objects locked" in Table 2).
        self.monitors_created = 0
        #: Largest l_asn observed on any single monitor (Table 2 row).
        self.largest_l_asn = 0

    def _touch(self, obj) -> None:
        """Mark a monitor's heap object dirty in the current era."""
        heap = self.heap
        if heap is not None:
            obj.mut_era = heap.era

    # ------------------------------------------------------------------
    # monitorenter
    # ------------------------------------------------------------------
    def enter(self, thread: JavaThread, obj) -> EnterResult:
        """Attempt a monitor acquisition for ``thread`` on ``obj``.

        On BLOCKED/PARKED outcomes the caller must leave the thread's pc
        untouched so the instruction retries when the thread resumes.
        """
        if thread.forbid_sync:
            from repro.runtime.gc import check_finalizer_restriction

            check_finalizer_restriction(thread.name, "acquire a monitor")
        monitor = get_monitor(obj)
        if monitor.owner is thread:
            monitor.recursion += 1
            thread.mon_cnt += 1
            self._touch(obj)
            return EnterResult.ACQUIRED
        if monitor.owner is not None:
            self._block(thread, obj, monitor)
            return EnterResult.BLOCKED
        if not self.admission.may_acquire(thread, monitor):
            self._park(thread, obj)
            return EnterResult.PARKED
        self._complete_acquisition(thread, obj, monitor, recursion=1)
        return EnterResult.ACQUIRED

    def _complete_acquisition(
        self, thread: JavaThread, obj, monitor: Monitor, recursion: int
    ) -> None:
        monitor.owner = thread
        monitor.recursion = recursion
        self._touch(obj)
        if monitor.l_asn == 0:
            self.monitors_created += 1
        monitor.l_asn += 1
        self.largest_l_asn = max(self.largest_l_asn, monitor.l_asn)
        thread.t_asn += 1
        thread.mon_cnt += 1
        thread.blocked_on = None
        self.total_acquisitions += 1
        self.admission.on_acquired(thread, monitor)
        self.reevaluate_parked()

    def _block(self, thread: JavaThread, obj, monitor: Monitor) -> None:
        if thread not in monitor.entry_queue:
            monitor.entry_queue.append(thread)
            self._touch(obj)
        thread.state = ThreadState.BLOCKED
        thread.blocked_on = obj

    def _park(self, thread: JavaThread, obj) -> None:
        if thread not in self._parked:
            self._parked.append(thread)
        thread.state = ThreadState.PARKED
        thread.blocked_on = obj

    # ------------------------------------------------------------------
    # monitorexit
    # ------------------------------------------------------------------
    def exit(self, thread: JavaThread, obj) -> bool:
        """Release one recursion level; False if ``thread`` is not the owner."""
        monitor = obj.monitor
        if monitor is None or monitor.owner is not thread:
            return False
        thread.mon_cnt += 1
        monitor.recursion -= 1
        self._touch(obj)
        if monitor.recursion == 0:
            monitor.owner = None
            self.admission.on_released(thread, monitor)
            self._wake_entry_queue(obj, monitor)
            self.reevaluate_parked()
        return True

    def _wake_entry_queue(self, obj, monitor: Monitor) -> None:
        """Make every contender runnable; they retry their acquisition
        when scheduled (FIFO runnable queue keeps this deterministic)."""
        if monitor.entry_queue:
            self._touch(obj)
        while monitor.entry_queue:
            contender = monitor.entry_queue.popleft()
            if contender.state is ThreadState.BLOCKED:
                self._scheduler.make_runnable(contender)

    # ------------------------------------------------------------------
    # wait / notify
    # ------------------------------------------------------------------
    def wait(self, thread: JavaThread, obj, timeout_ms: Optional[int]) -> bool:
        """Begin an ``Object.wait``; False if thread doesn't own the monitor."""
        monitor = obj.monitor
        if monitor is None or monitor.owner is not thread:
            return False
        thread.saved_recursion = monitor.recursion
        thread.mon_cnt += 1  # the release event
        monitor.recursion = 0
        monitor.owner = None
        monitor.wait_set.append(thread)
        self._touch(obj)
        thread.blocked_on = obj
        if timeout_ms is not None and timeout_ms > 0:
            thread.state = ThreadState.TIMED_WAITING
            thread.wakeup_time = self._scheduler.now() + timeout_ms
        else:
            thread.state = ThreadState.WAITING
            thread.wakeup_time = None
        self.admission.on_released(thread, monitor)
        self._wake_entry_queue(obj, monitor)
        self.reevaluate_parked()
        return True

    def reenter_after_wait(self, thread: JavaThread, obj) -> EnterResult:
        """Re-acquire the monitor after notify/timeout (counts as a fresh
        acquisition — the paper logs an l_asn for it)."""
        monitor = get_monitor(obj)
        if monitor.owner is not None:
            self._block(thread, obj, monitor)
            return EnterResult.BLOCKED
        if not self.admission.may_acquire(thread, monitor):
            self._park(thread, obj)
            return EnterResult.PARKED
        recursion = max(thread.saved_recursion, 1)
        thread.saved_recursion = 0
        thread.reacquiring = False
        self._complete_acquisition(thread, obj, monitor, recursion=recursion)
        return EnterResult.ACQUIRED

    def notify(self, thread: JavaThread, obj, *, all_waiters: bool) -> bool:
        """Wake waiter(s); False if thread doesn't own the monitor."""
        monitor = obj.monitor
        if monitor is None or monitor.owner is not thread:
            return False
        count = len(monitor.wait_set)
        if count == 0:
            return True
        if not all_waiters and not self.notify_wakes_all:
            count = 1
        for _ in range(count):
            waiter = monitor.wait_set.popleft()
            self._resume_waiter(waiter)
        self._touch(obj)
        return True

    def timeout_waiter(self, thread: JavaThread) -> None:
        """A TIMED_WAITING thread's deadline passed: leave the wait set
        and retry acquisition (or simply resume if it was sleeping)."""
        obj = thread.blocked_on
        monitor = obj.monitor if obj is not None else None
        if monitor is not None and thread in monitor.wait_set:
            monitor.wait_set.remove(thread)
            self._touch(obj)
            self._resume_waiter(thread)
        else:
            # plain Thread.sleep
            thread.wakeup_time = None
            self._scheduler.make_runnable(thread)

    def _resume_waiter(self, waiter: JavaThread) -> None:
        waiter.reacquiring = True
        waiter.wakeup_time = None
        self._scheduler.make_runnable(waiter)

    # ------------------------------------------------------------------
    # Parked-thread management
    # ------------------------------------------------------------------
    def reevaluate_parked(self) -> None:
        """Give every parked thread another chance: conditions may have
        changed (a record was consumed, a monitor released...).  Parked
        threads simply become runnable and retry their acquisition,
        re-parking if still vetoed — simple and deterministic."""
        if not self._parked:
            return
        parked, self._parked = self._parked, []
        for thread in parked:
            if thread.state is ThreadState.PARKED:
                self._scheduler.make_runnable(thread)

    @property
    def parked_threads(self) -> List[JavaThread]:
        return list(self._parked)
