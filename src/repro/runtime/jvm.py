"""The JVM facade: one runnable virtual machine instance.

A :class:`JVM` owns everything mutable — heap, statics, threads,
scheduler, monitors — while sharing the immutable program (the
:class:`~repro.classfile.loader.ClassRegistry`) and the native registry
with other instances.  Constructing two JVMs over the same program
therefore gives two replicas with *identical initial states*, the first
requirement of the state-machine approach.

Replication attaches through four seams, all of which default to
non-replicated behaviour:

* ``scheduler.controller`` — scheduling policy (quantum, pick, replay);
* ``sync.admission``       — monitor-acquisition gating and observation;
* ``native_policy``        — native invocation interception;
* ``run_hooks``            — coarse run-loop events (slice ends, GC).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bytecode.methodref import MethodRef
from repro.classfile.loader import ClassRegistry
from repro.classfile.model import CLINIT_NAME, JMethod, default_value
from repro.errors import (
    DeadlockError,
    LinkageError,
    ReproError,
    RestrictionViolation,
)
from repro.env.environment import EnvSession
from repro.runtime.digest import compute_state_digest
from repro.runtime.frames import Frame
from repro.runtime.gc import Collector
from repro.runtime.heap import Heap
from repro.runtime.interpreter import Interpreter, StepResult
from repro.runtime.intrinsics import INTRINSICS
from repro.runtime.optable import HeavyOps
from repro.runtime.natives import (
    NativeContext,
    NativeOutcome,
    NativeRegistry,
    call_native,
)
from repro.runtime.scheduler import Scheduler, SliceEnd
from repro.runtime.sync import SyncManager
from repro.runtime.threads import ROOT_VID, JavaThread, ThreadState
from repro.runtime.values import JArray, JObject


@dataclass
class JVMConfig:
    """Tunables for one JVM instance."""

    #: Seed for the scheduler's quantum jitter.  Primary and backup are
    #: given *different* seeds — this is the modelled non-determinism.
    scheduler_seed: int = 0
    quantum_base: int = 60
    quantum_jitter: int = 30
    #: Heap cells that trigger a GC at the next safe point.
    heap_gc_threshold: int = 4_000_000
    #: Hard heap limit: exceeding it raises Java OutOfMemoryError.
    heap_max_cells: int = 64_000_000
    #: Treat soft references as strong (the paper's mitigation, §4.3).
    soft_refs_strong: bool = True
    #: Instruction budget for detached contexts (finalizers, <clinit>).
    finalizer_budget: int = 200_000
    #: Virtual milliseconds that pass per executed bytecode.
    ms_per_instruction: float = 0.001
    #: Upper bound on total executed instructions (None = unlimited);
    #: a guard rail for tests, not a semantic limit.
    max_instructions: Optional[int] = None
    #: Execution engine driving each time slice: ``"slice"`` batches
    #: straight-line bytecodes between safe-point events (the fast
    #: path); ``"block"`` additionally compiles hot straight-line runs
    #: into single generated-Python superinstructions (the fastest
    #: tier, see :mod:`repro.runtime.blockjit`); ``"step"`` re-enters
    #: the engine per instruction with full checks before each one (the
    #: seed's reference discipline).  All three produce bit-identical
    #: digests, logs, and counters.
    engine: str = "slice"
    #: Executions of one basic-block entry before the ``block`` engine
    #: compiles it (ignored by the other engines).
    block_hot_threshold: int = 8


@dataclass
class RunResult:
    """Outcome of a completed :meth:`JVM.run`."""

    outcome: str                       # "completed"
    instructions: int
    time_ms: float
    uncaught: List[Tuple[str, str, str]] = field(default_factory=list)
    reschedules: int = 0
    lock_acquisitions: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "completed" and not self.uncaught


class DirectNativePolicy:
    """Default native invocation: just call the implementation."""

    def invoke(self, jvm: "JVM", spec, thread, receiver, args) -> NativeOutcome:
        ctx = NativeContext(jvm, thread, spec)
        return call_native(spec, ctx, receiver, args)

    def would_starve(self, jvm: "JVM", method, thread) -> bool:
        """Hot backups pause on natives whose record is missing; live
        execution pauses only on an empty request port (serving)."""
        from repro.env.port import ingest_starved

        return ingest_starved(jvm, method, thread)


class RunHooks:
    """Coarse run-loop observation points (no-ops by default)."""

    def on_slice_end(self, jvm: "JVM", thread: JavaThread,
                     reason: SliceEnd) -> None:
        """A time slice ended for any reason."""

    def on_gc(self, jvm: "JVM", freed_cells: int) -> None:
        """A collection completed."""

    def on_exit(self, jvm: "JVM", result: RunResult) -> None:
        """The run loop is about to return."""


class JVM:
    """One virtual machine instance.

    It owns its parts — heap, scheduler, monitors, collector,
    interpreter — and none of them refers back to it strongly, so the
    JVM and everything it owns are freed by reference counting when its
    last owner drops it (see :mod:`repro.runtime.interpreter`,
    "Ownership")."""

    #: Library methods implemented by the JVM itself.
    intrinsics = INTRINSICS

    def __init__(
        self,
        registry: ClassRegistry,
        natives: NativeRegistry,
        session: EnvSession,
        config: Optional[JVMConfig] = None,
        name: str = "jvm",
    ) -> None:
        self.registry = registry
        self.natives = natives
        self.session = session
        self.config = config or JVMConfig()
        self.name = name
        if self.config.engine not in ("step", "slice", "block"):
            raise ReproError(
                f"unknown execution engine {self.config.engine!r}; "
                f"expected 'step', 'slice', or 'block'"
            )

        self.heap = Heap(registry, self.config.heap_gc_threshold)
        owner = weakref.ref(self)
        self.scheduler = Scheduler(lambda: owner().now_ms(),
                                   self._default_controller())
        self.sync = SyncManager(self.scheduler)
        self.sync.heap = self.heap
        self.statics: Dict[Tuple[str, str], Any] = {}
        #: "Heavy" bytecodes executed (array element access, float
        #: arithmetic): these cost more host cycles per dispatch in a
        #: real interpreter, which the cost model uses to weight base
        #: execution time per workload.  Read as ``heavy_ops``.
        self.heavy = HeavyOps()
        self.collector = Collector(self)
        self.interpreter = Interpreter(self)
        self.native_policy = DirectNativePolicy()
        self.run_hooks = RunHooks()

        self.instructions = 0
        #: Total native invocations (each costs a JNI-style transition).
        self.native_calls = 0
        self._time_skew_ms = 0.0
        self._class_locks: Dict[str, JObject] = {}
        self.threads_by_oid: Dict[int, JavaThread] = {}
        self.threads_by_vid: Dict[Tuple[int, ...], JavaThread] = {}
        self._daemon_requests: Dict[int, bool] = {}
        self.main_thread: Optional[JavaThread] = None
        self.uncaught: List[Tuple[str, str, str]] = []
        self._bootstrapped = False

        self._init_statics()

    @property
    def heavy_ops(self) -> int:
        return self.heavy.n

    @heavy_ops.setter
    def heavy_ops(self, value: int) -> None:
        self.heavy.n = value

    # ==================================================================
    # Time
    # ==================================================================
    def now_ms(self) -> float:
        """Virtual wall time inside this JVM (drives sleep/timed-wait)."""
        return self.instructions * self.config.ms_per_instruction + self._time_skew_ms

    def _advance_time_to(self, target_ms: float) -> None:
        if target_ms > self.now_ms():
            self._time_skew_ms += target_ms - self.now_ms()

    # ==================================================================
    # Statics
    # ==================================================================
    def _init_statics(self) -> None:
        for class_name in self.registry.class_names():
            cls = self.registry.resolve(class_name)
            for f in cls.fields.values():
                if f.is_static:
                    self.statics[(class_name, f.name)] = default_value(f.type)

    # ==================================================================
    # Class lock objects (static synchronized methods)
    # ==================================================================
    def class_lock_object(self, class_name: str) -> JObject:
        lock = self._class_locks.get(class_name)
        if lock is None:
            lock = self.heap.alloc_object("Object")
            self._class_locks[class_name] = lock
        return lock

    # ==================================================================
    # Method resolution helpers
    # ==================================================================
    def resolve_static_method(self, ref: MethodRef) -> JMethod:
        method = self.registry.lookup_method(
            ref.class_name, ref.method_name, ref.nargs
        )
        if not method.is_static:
            raise LinkageError(f"{ref} resolved to an instance method")
        return method

    # ==================================================================
    # Bootstrap and run
    # ==================================================================
    def bootstrap(self, main_class: str, args: Optional[List[str]] = None) -> None:
        """Create the main thread, run class initializers, frame main()."""
        if self._bootstrapped:
            raise ReproError("JVM already bootstrapped")
        self._bootstrapped = True

        # Class lock objects are allocated eagerly in deterministic
        # (sorted) order so oids never depend on execution order.
        for class_name in self.registry.class_names():
            self.class_lock_object(class_name)

        # Static initializers run detached, in sorted class order,
        # before any application thread exists.  They must be local and
        # deterministic (monitors and environment access are forbidden).
        for class_name in self.registry.class_names():
            cls = self.registry.resolve(class_name)
            clinit = cls.methods.get((CLINIT_NAME, 0))
            if clinit is not None:
                self.run_detached(
                    clinit, [], budget=self.config.finalizer_budget,
                    forbid_sync=True, what=f"<clinit> of {class_name}",
                )

        main_thread = JavaThread(ROOT_VID, None, name="main")
        thread_obj = self.heap.alloc_object("Thread")
        main_thread.thread_object = thread_obj
        self.threads_by_oid[thread_obj.oid] = main_thread
        self.threads_by_vid[main_thread.vid] = main_thread

        try:
            main_method = self.registry.lookup_method(main_class, "main", 1)
            arg_array = self.heap.alloc_array("str", len(args or []))
            arg_array.data[:] = list(args or [])
            main_args: List[Any] = [arg_array]
        except LinkageError:
            main_method = self.registry.lookup_method(main_class, "main", 0)
            main_args = []
        if not main_method.is_static:
            raise LinkageError(f"{main_class}.main must be static")
        main_thread.frames.append(Frame(main_method, main_args))
        main_thread.state = ThreadState.RUNNABLE
        self.scheduler.register(main_thread)
        self.scheduler.make_runnable(main_thread)
        self.main_thread = main_thread

    def run(self, main_class: str, args: Optional[List[str]] = None) -> RunResult:
        self.bootstrap(main_class, args)
        return self.run_to_completion()

    def run_to_completion(
        self, *, pause_on_starvation: bool = False
    ) -> Optional[RunResult]:
        """Drive the scheduler until no non-daemon thread remains.

        With ``pause_on_starvation`` (hot-backup mode), the loop returns
        ``None`` instead of raising when every live thread is waiting
        for replication input that has not been delivered yet — starved
        on a missing native record, parked by an admission controller
        that has run out of log, or held back by a drained schedule
        controller.  The caller resumes by calling again once more log
        has been fed in.
        """
        limit = self.config.max_instructions
        unproductive = 0
        while True:
            # The JVM exits when no non-daemon application thread is
            # alive, even if daemon threads could still run.
            if not self.scheduler.live_application_threads():
                break
            self.scheduler.wake_expired_timers(self.sync)
            thread = self.scheduler.pick()
            if thread is None:
                wakeup = self.scheduler.earliest_wakeup()
                if wakeup is not None:
                    self._advance_time_to(wakeup)
                    continue
                if pause_on_starvation and getattr(
                    self.scheduler.controller, "starving", False
                ):
                    self.scheduler.release_current()
                    return None
                self.sync.reevaluate_parked()
                if not self.scheduler.runnable:
                    if pause_on_starvation and self.sync.parked_threads:
                        self.scheduler.release_current()
                        return None
                    self.scheduler.assert_progress_possible()
                continue
            self._run_slice(thread)
            if self.scheduler.last_reason in (
                SliceEnd.STARVED, SliceEnd.PARKED
            ):
                # A parked/starved slice executes nothing.  If every
                # live thread keeps bouncing off the replication gate
                # with nobody making progress, either more log must
                # arrive (hot backup: pause) or the log is inconsistent
                # with the program (cold replay: liveness failure).
                unproductive += 1
                if pause_on_starvation and \
                        unproductive > len(self.scheduler.threads) + 2:
                    self.scheduler.release_current()
                    return None
                if not pause_on_starvation and \
                        unproductive > 3 * len(self.scheduler.threads) + 5:
                    raise DeadlockError(
                        "replication wait cannot make progress: every "
                        "live thread is parked by the admission "
                        "controller and no event can release them "
                        "(inconsistent or foreign log?)"
                    )
            else:
                unproductive = 0
            if limit is not None and self.instructions > limit:
                raise ReproError(
                    f"instruction limit {limit} exceeded — runaway program?"
                )
        result = RunResult(
            outcome="completed",
            instructions=self.instructions,
            time_ms=self.now_ms(),
            uncaught=list(self.uncaught),
            reschedules=self.scheduler.reschedules,
            lock_acquisitions=self.sync.total_acquisitions,
        )
        self.run_hooks.on_exit(self, result)
        return result

    def _run_slice(self, thread: JavaThread) -> None:
        controller = self.scheduler.controller
        quantum = controller.quantum(thread)
        if self.config.engine == "step":
            reason = self._run_slice_stepwise(thread, controller, quantum)
        else:
            # "slice" and "block" share the batching engine; "block"
            # additionally runs compiled superinstructions inside it.
            reason = self.interpreter.run_slice(
                thread, quantum=quantum, controller=controller
            )
        controller.on_slice_end(thread, reason)
        self.scheduler.last_reason = reason
        self.run_hooks.on_slice_end(self, thread, reason)
        if thread.state is ThreadState.RUNNABLE:
            self.scheduler.requeue_current(thread)

    def _run_slice_stepwise(self, thread: JavaThread, controller,
                            quantum: int) -> SliceEnd:
        """The seed's per-instruction reference loop (``engine="step"``):
        GC and preemption are checked before *every* instruction and the
        engine is re-entered per bytecode.  Kept verbatim as the oracle
        the fast path is differentially verified against."""
        start_br = thread.br_cnt
        step = self.interpreter.step
        while True:
            if self.heap.gc_requested:
                end = self.gc_safepoint(thread)
                if end is not None:
                    return end
            if controller.should_preempt(thread):
                return SliceEnd.CONTROLLER
            result = step(thread)
            self.instructions += 1
            if result is not StepResult.CONTINUE:
                return _SLICE_END_OF_STEP[result]
            if thread.br_cnt - start_br >= quantum:
                return SliceEnd.QUANTUM

    def gc_safepoint(self, thread: JavaThread) -> Optional[SliceEnd]:
        """Collect at a safe point; handle the out-of-memory aftermath.

        Returns the slice-ending reason when the collection killed the
        thread (uncaught OutOfMemoryError), else None.  Shared by both
        execution engines so the GC protocol cannot drift between them.
        """
        freed = self.collector.collect()
        self.run_hooks.on_gc(self, freed)
        if self.heap.used_cells >= self.config.heap_max_cells:
            self.interpreter.throw_new(thread, "OutOfMemoryError", "heap")
            if not thread.alive:
                return SliceEnd.TERMINATED
        return None

    # ==================================================================
    # Thread lifecycle callbacks (from the interpreter)
    # ==================================================================
    def thread_finished(self, thread: JavaThread, value: Any) -> StepResult:
        return self._terminate(thread)

    def thread_uncaught(self, thread: JavaThread, exc: JObject) -> StepResult:
        if not thread.is_system:
            message = exc.fields.get("message", "")
            self.uncaught.append((thread.vid_str, exc.class_name, message))
        return self._terminate(thread)

    def _terminate(self, thread: JavaThread) -> StepResult:
        thread.state = ThreadState.TERMINATED
        for joiner in thread.joiners:
            self.scheduler.make_runnable(joiner)
        thread.joiners.clear()
        return StepResult.TERMINATED

    # ==================================================================
    # Native invocation (policy seam)
    # ==================================================================
    def invoke_native(self, thread, frame, method, receiver, args, sync_target):
        spec = self.natives.lookup(method.signature)
        self.native_calls += 1
        thread.in_native = True
        try:
            outcome = self.native_policy.invoke(self, spec, thread, receiver, args)
        finally:
            thread.in_native = False
        if sync_target is not None:
            self.sync.exit(thread, sync_target)
        if outcome.exception is not None:
            return self.interpreter.throw_new(thread, *outcome.exception)
        if method.returns:
            frame.stack.append(outcome.value)
        frame.pc += 1
        return None

    # ==================================================================
    # Detached execution (finalizers, class initializers)
    # ==================================================================
    def run_detached(self, method: JMethod, args: List[Any], *, budget: int,
                     forbid_sync: bool, what: str) -> None:
        temp = JavaThread((-1,), None, name=what, is_system=True)
        temp.forbid_sync = forbid_sync
        temp.forbid_env = True
        temp.frames.append(Frame(method, args))
        temp.state = ThreadState.RUNNABLE
        steps = 0
        while temp.frames and temp.state is ThreadState.RUNNABLE:
            result = self.interpreter.step(temp)
            if result in (StepResult.BLOCKED, StepResult.WAITING,
                          StepResult.PARKED):
                raise RestrictionViolation(
                    "finalizer-determinism", f"{what} blocked"
                )
            if result is StepResult.TERMINATED:
                return
            steps += 1
            if steps > budget:
                raise RestrictionViolation(
                    "finalizer-determinism",
                    f"{what} exceeded its instruction budget ({budget})",
                )

    # ==================================================================
    # End of life
    # ==================================================================
    def detach(self) -> None:
        """Uninstall the replication seams: the scheduler controller,
        the admission controller, the native policy and the run hooks
        go back to the non-replicated defaults.  Replication installs
        parts that point back at this JVM; detaching is how their owner
        lets go of a finished JVM it keeps readable.  Counters, state
        and digests are unchanged."""
        from repro.runtime.monitors import AdmissionController

        self.scheduler.controller = self._default_controller()
        self.sync.admission = AdmissionController()
        self.native_policy = DirectNativePolicy()
        self.run_hooks = RunHooks()

    def _default_controller(self):
        from repro.runtime.scheduler import ScheduleController

        return ScheduleController(
            seed=self.config.scheduler_seed,
            quantum_base=self.config.quantum_base,
            quantum_jitter=self.config.quantum_jitter,
        )

    def discard(self) -> None:
        """End a JVM dropped mid-run (a crashed primary, a scratch
        restore, a quarantined follower): detach it, then cut what a
        live run links in a ring — each frame's decoded stream (whose
        handlers hold the heap) and each monitor (whose queues hold
        threads whose frames hold the object).  Reference counting then
        frees the whole JVM.  It must not run again."""
        self.detach()
        for thread in self.scheduler.threads:
            for frame in thread.frames:
                frame.decoded = None
        for obj in self.heap.objects:
            obj.monitor = None

    # ==================================================================
    # GC support
    # ==================================================================
    def gc_roots(self):
        """Every reference the collector must treat as live."""
        for value in self.statics.values():
            if isinstance(value, (JObject, JArray)):
                yield value
        for lock in self._class_locks.values():
            yield lock
        for thread in self.scheduler.threads:
            if thread.thread_object is not None:
                yield thread.thread_object
            if thread.pending_exception is not None:
                yield thread.pending_exception
            for fr in thread.frames:
                for value in fr.locals:
                    if isinstance(value, (JObject, JArray)):
                        yield value
                for value in fr.stack:
                    if isinstance(value, (JObject, JArray)):
                        yield value
                for obj in fr.held_monitors:
                    yield obj
                if fr.sync_object is not None:
                    yield fr.sync_object

    # ==================================================================
    # State digest (test oracle)
    # ==================================================================
    def state_digest(self) -> str:
        """Fingerprint of the state walk (:mod:`repro.runtime.digest`):
        heap, frames, monitors and scheduler state, without the
        environment.  Two replicas that executed equivalent histories
        produce equal digests.
        """
        return f"{compute_state_digest(self).fingerprint():032x}"


_SLICE_END_OF_STEP = {
    StepResult.BLOCKED: SliceEnd.BLOCKED,
    StepResult.WAITING: SliceEnd.WAITING,
    StepResult.PARKED: SliceEnd.PARKED,
    StepResult.YIELDED: SliceEnd.YIELDED,
    StepResult.TERMINATED: SliceEnd.TERMINATED,
    StepResult.STARVED: SliceEnd.STARVED,
}
