"""Green threads: the JVM's user-level thread representation.

Each :class:`JavaThread` corresponds to one *bytecode execution engine*
(BEE) in the paper's model — the unit of state-machine replication.

Virtual thread ids follow Section 4.2 of the paper exactly: a thread's
id is its parent's id extended with the relative order in which the
parent spawned it.  This makes ids identical at primary and backup
regardless of scheduling, because a parent spawns its children in the
same relative order on every replica (threads execute deterministic
programs).
"""

from __future__ import annotations

import enum
from typing import Any, List, Optional, Tuple

from repro.runtime.frames import Frame

#: The virtual id of the initial (main) thread.
ROOT_VID: Tuple[int, ...] = (0,)


class ThreadState(enum.Enum):
    NEW = "new"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"          # contending for a monitor
    WAITING = "waiting"          # in a wait set (Object.wait / join)
    TIMED_WAITING = "timed_waiting"  # sleep or timed wait
    PARKED = "parked"            # held back by the replication layer
    TERMINATED = "terminated"


class JavaThread:
    """One green thread and its replication-relevant counters."""

    def __init__(
        self,
        vid: Tuple[int, ...],
        thread_object: Any,
        *,
        name: str = "",
        is_daemon: bool = False,
        is_system: bool = False,
    ) -> None:
        #: Virtual thread id (paper's t_id): parent vid + sibling index.
        self.vid = vid
        #: The Java-level Thread object this BEE executes (None for the
        #: main thread until the stdlib wraps it, and for system threads).
        self.thread_object = thread_object
        self.name = name or self.vid_str
        self.is_daemon = is_daemon
        #: System threads (failure detector, log transfer, GC) are not
        #: BEEs: their scheduling is never replicated (paper §4.2).
        self.is_system = is_system

        self.state = ThreadState.NEW
        self.frames: List[Frame] = []

        # --- Replication counters -------------------------------------
        #: Control-flow changes executed (branches, jumps, invocations):
        #: the paper's br_cnt.
        self.br_cnt = 0
        #: Monitor acquisitions + releases performed: the paper's mon_cnt.
        self.mon_cnt = 0
        #: Locks acquired so far by this thread: the paper's t_asn
        #: (thread acquire sequence number).
        self.t_asn = 0
        #: Total bytecodes executed (cost accounting / quanta).
        self.instructions = 0

        # --- Scheduling bookkeeping ------------------------------------
        #: Number of children spawned, for assigning child vids.
        self.children_spawned = 0
        #: Virtual-time deadline while TIMED_WAITING (sleep / timed wait).
        self.wakeup_time: Optional[float] = None
        #: Heap object whose monitor this thread is blocked on / waiting
        #: in.
        self.blocked_on = None
        #: True when the thread was notified (or timed out) and must
        #: re-acquire the monitor it waited on before continuing.
        self.reacquiring = False
        #: Saved recursion depth across a wait().
        self.saved_recursion = 0
        #: Java exception object to deliver when the thread resumes
        #: (unused by default; reserved for interrupt support).
        self.pending_exception = None
        #: Threads joined on this one (woken at termination).
        self.joiners: List["JavaThread"] = []
        #: Set while the thread is inside a native method invocation, so
        #: the schedule-replication layer can apply the paper's
        #: native-method progress rules.
        self.in_native: bool = False
        #: Detached contexts (finalizers, class initializers) run with
        #: these set: monitors / environment access become
        #: RestrictionViolation (paper §4.3's finalizer discipline).
        self.forbid_sync: bool = False
        self.forbid_env: bool = False

    # ------------------------------------------------------------------
    @property
    def vid_str(self) -> str:
        return "t" + ".".join(str(part) for part in self.vid)

    def child_vid(self) -> Tuple[int, ...]:
        """Allocate the vid for this thread's next spawned child."""
        vid = self.vid + (self.children_spawned,)
        self.children_spawned += 1
        return vid

    @property
    def current_frame(self) -> Frame:
        return self.frames[-1]

    @property
    def alive(self) -> bool:
        return self.state not in (ThreadState.NEW, ThreadState.TERMINATED)

    def progress_point(self) -> Tuple[int, int, int]:
        """The (br_cnt, pc_off, mon_cnt) triple identifying how far this
        thread has executed — the paper's thread-schedule record core.

        ``pc_off`` is the bytecode offset of the next instruction within
        the current method (meaningful across replicas, unlike a host
        program counter).  A terminated or not-yet-started thread
        reports pc_off -1.
        """
        pc = self.frames[-1].pc if self.frames else -1
        return (self.br_cnt, pc, self.mon_cnt)

    def __repr__(self) -> str:
        return f"<JavaThread {self.vid_str} {self.state.value} name={self.name!r}>"
