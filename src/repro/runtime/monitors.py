"""Java monitors: mutual exclusion plus condition synchronization.

Every heap object can own one :class:`Monitor` (created lazily on first
``monitorenter``/``wait``).  Monitors are *re-entrant*: the owning
thread may acquire the same monitor recursively.

Determinism requirements (crucial for the replication layer):

* the entry queue and the wait set are strict FIFO (``deque``);
* ``notify`` wakes the longest-waiting thread;
* all bookkeeping the replication layer reads — ``l_id``, ``l_asn`` —
  lives here, exactly matching the paper's lock acquisition records.

Admission control: before a thread may *complete* an acquisition, the
monitor consults the JVM's :class:`AdmissionController`.  The default
controller admits everyone; the replicated-lock-synchronization backup
substitutes a controller that enforces the primary's logged acquisition
order (Section 4.2 of the paper).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

if TYPE_CHECKING:
    from repro.runtime.threads import JavaThread


class Monitor:
    """Monitor state for a single heap object."""

    __slots__ = ("owner", "recursion", "entry_queue", "wait_set", "l_id",
                 "l_asn")

    def __init__(self) -> None:
        # No back-reference to the heap object: the object owns its
        # monitor, and the sync layer is always handed the object.
        self.owner: Optional["JavaThread"] = None
        self.recursion = 0
        #: Threads blocked trying to enter, FIFO.
        self.entry_queue: Deque["JavaThread"] = deque()
        #: Threads that called wait() and have not been notified, FIFO.
        self.wait_set: Deque["JavaThread"] = deque()
        #: Virtual lock id assigned by the replication layer on first
        #: acquisition (None while unassigned, exactly as in the paper).
        self.l_id: Optional[int] = None
        #: Lock acquire sequence number: how many times this monitor has
        #: been (non-recursively) acquired so far.
        self.l_asn = 0

    def is_held_by(self, thread: "JavaThread") -> bool:
        return self.owner is thread

    def is_free(self) -> bool:
        return self.owner is None

    def __repr__(self) -> str:
        owner = self.owner.vid_str if self.owner else "-"
        return (
            f"<Monitor owner={owner} rec={self.recursion} "
            f"l_id={self.l_id} l_asn={self.l_asn}>"
        )


class AdmissionController:
    """Decides when a thread may complete a monitor acquisition.

    The default implementation admits any thread as soon as the monitor
    is free (or already owned by it).  Hook methods receive the monitor
    *after* l_asn has been updated for acquisitions.
    """

    def may_acquire(self, thread: "JavaThread", monitor: Monitor) -> bool:
        """May ``thread`` acquire ``monitor`` now, assuming it is free?

        Returning False parks the thread until :meth:`may_acquire`
        is re-evaluated (the scheduler re-checks after every monitor
        event).  The monitor being *held* is handled separately by the
        entry queue; this gate expresses replication-order constraints
        only.
        """
        return True

    def on_acquired(self, thread: "JavaThread", monitor: Monitor) -> None:
        """Called after a non-recursive acquisition completes."""

    def on_released(self, thread: "JavaThread", monitor: Monitor) -> None:
        """Called after a non-recursive release completes."""


def get_monitor(obj) -> Monitor:
    """Lazily create and return the monitor of a heap object."""
    monitor = obj.monitor
    if monitor is None:
        monitor = Monitor()
        obj.monitor = monitor
    return monitor
