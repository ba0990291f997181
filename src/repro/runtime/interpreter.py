"""The bytecode execution engine (BEE).

One :class:`Interpreter` instance executes bytecodes for every thread of
one JVM.  The paper's model — "a set of cooperating state machines,
each corresponding to an application thread" — maps onto this directly:
the state machine's commands are bytecodes, its state variables are the
frames, heap, and statics reachable from the thread.

Each command has one meaning.  Plain and branch bytecodes are rows of
the opcode table (:mod:`repro.runtime.optable`), rendered once per
process into the ``(thread, frame, arg)`` handlers dispatched here and
spliced by the block compiler; only the safe-point *event* ops —
invoke, return, monitorenter/monitorexit, athrow — are written by hand
below.  Three dispatch disciplines run those semantics:

* :meth:`Interpreter.run_slice` is the fast path.  Each method's code
  array is translated once into a *pre-decoded stream* of
  ``(kind, handler, decoded_operands)`` triples (cached per
  interpreter, keyed by ``Code.uid``), and the inner loop executes
  straight-line bytecodes back-to-back, returning to the
  scheduler/replication layer only at *safe-point-relevant events*:
  control-flow instructions that tick ``br_cnt``, monitor operations,
  and budget exhaustion (natives and output only occur inside invokes,
  which are control flow).  GC requests and replay-preemption checks
  are honoured at every such boundary — see DESIGN.md, "The execution
  fast path", for why those are the only points where they can matter.
* With ``engine="block"``, :meth:`Interpreter.run_slice` additionally
  compiles *hot* straight-line runs of plain bytecodes into single
  generated-Python superinstructions (:mod:`repro.runtime.blockjit`),
  cached on the decoded stream and invalidated with it.
* :meth:`Interpreter.step` executes exactly one instruction with the
  identical semantics, for detached contexts and for the
  ``engine="step"`` reference loop.

Ownership: a decoded stream holds its handlers, and a live frame holds
its stream, so nothing a handler binds may hold a stream or the JVM.
The hand-written event ops and the slow paths the table's rows bind
live on :class:`Semantics`, which holds no stream and reaches its JVM
through a weak reference; the :class:`Interpreter` owns the streams and
holds its JVM weakly too.  The JVM is the one owner of both, so a
dropped JVM is freed by reference counting.  Both dereference the JVM
once per slice or on a slow path, never per bytecode.

Counter discipline (replication-critical):

* ``thread.br_cnt`` increments on every executed control-flow-change
  instruction (branches, jumps, invocations, returns, throws) — the
  paper instruments exactly this set rather than every bytecode;
* ``thread.instructions`` increments on every instruction (cost model);
* monitor counters are maintained by :mod:`repro.runtime.sync`.

Blocking instructions (``monitorenter``, synchronized-method entry,
``wait`` re-acquisition) leave the pc unchanged when they cannot
complete, so the thread retries the same instruction when rescheduled.
This gives clean safe-point semantics: a thread's progress point
``(br_cnt, pc, mon_cnt)`` always identifies an instruction boundary.

Inline caches: method resolution (static/special once, virtual
monomorphic by receiver class), static-field slots, and
instanceof/checkcast subtype answers are cached in the decoded
operands; string/float/int constants are materialized at decode time.
All of it is dropped when the class registry's version moves.
"""

from __future__ import annotations

import enum
import weakref
from typing import Dict, Optional

from repro.bytecode.methodref import MethodRef, parse_method_ref
from repro.bytecode.opcodes import OP_INFO, SAFEPOINT_EVENT_OPS, Op
from repro.errors import LinkageError, ReproError
from repro.runtime.blockjit import BRANCH, compile_block
from repro.runtime.frames import Frame
from repro.runtime.optable import ROWS, bind_handler, decode, environment
from repro.runtime.scheduler import SliceEnd
from repro.runtime.sync import EnterResult
from repro.runtime.threads import JavaThread
from repro.runtime.values import JArray, JObject, describe

#: Decoded-stream instruction kinds.  Plain instructions may be batched
#: between safe-point boundaries; the other two are safe-point events.
_K_PLAIN = 0   # no br_cnt tick, no monitor effect
_K_CF = 1      # control-flow change: ticks br_cnt
_K_MON = 2     # monitorenter/monitorexit: may tick mon_cnt or block

#: Effectively-unbounded default for quantum/budget.
_UNLIMITED = 1 << 60

#: ``run_slice``'s block result before any block ran at this entry.
_COLD = object()


class StepResult(enum.Enum):
    CONTINUE = "continue"
    BLOCKED = "blocked"
    WAITING = "waiting"
    PARKED = "parked"
    YIELDED = "yielded"
    TERMINATED = "terminated"
    #: A hot backup reached a native whose log record has not been
    #: delivered yet; the instruction retries when more log arrives.
    STARVED = "starved"


class _DecodedStream(list):
    """One method's pre-decoded instruction stream plus the ``block``
    engine's per-stream state: compiled blocks keyed by entry pc
    (``False`` marks an uncompilable entry) and the per-entry execution
    counts feeding the hot threshold.  Everything hangs off the stream
    itself, so a registry-version bump — which drops the stream — drops
    the compiled blocks *atomically* with the decoded triples and the
    inline caches they share."""

    __slots__ = ("code", "blocks", "counts")

    def __init__(self, triples, code) -> None:
        super().__init__(triples)
        self.code = code
        self.blocks: dict = {}
        self.counts: dict = {}


class _InvokeSite:
    """Per-call-site inline cache for method resolution.

    Static and special sites resolve once; virtual sites cache the last
    receiver class seen (monomorphic inline cache).  The matching
    intrinsic lookup is cached alongside the method so the hot path
    never rebuilds the ``(class, name, nargs)`` key.  Sites live inside
    an interpreter's decoded streams, so one replica's resolutions never
    reach another; an intrinsic is a plain function shared by all.
    """

    __slots__ = ("op", "ref", "nargs", "method", "intrinsic",
                 "vclass", "vmethod", "vintrinsic")

    def __init__(self, op: Op, ref: MethodRef) -> None:
        self.op = op
        self.ref = ref
        self.nargs = ref.nargs
        self.method = None        # static/special resolution
        self.intrinsic = None
        self.vclass: Optional[str] = None   # virtual: last receiver class
        self.vmethod = None
        self.vintrinsic = None


class Interpreter:
    """Executes bytecodes against one JVM instance."""

    def __init__(self, jvm) -> None:
        #: The owning JVM, dereferenced once per slice (module doc).
        self._jvm = weakref.ref(jvm)
        self._registry = jvm.registry
        self._heap = jvm.heap
        self._scheduler = jvm.scheduler
        self._ref_cache: Dict[str, MethodRef] = {}
        #: Decoded streams keyed by ``Code.uid`` — per interpreter, so
        #: bound handlers and inline caches never cross replicas even
        #: though the class registry (and its Code objects) are shared.
        self._code_cache: Dict[int, list] = {}
        self._new_checked: set = set()
        #: The event ops and slow paths the streams bind.
        self.semantics = semantics = Semantics(jvm)
        self.throw_new = semantics.throw_new
        #: What the table's handlers and block splices bind (optable).
        self._env = environment(jvm, semantics, self._new_checked)
        #: ``(op, cmp token)`` -> ``(kind, handler)``, bound on first use.
        self._handlers: dict = {}
        self._registry_version = self._registry.version
        self._compile_blocks = jvm.config.engine == "block"
        self._block_threshold = jvm.config.block_hot_threshold
        #: Lifetime counters for the block tier (metrics/cost model).
        self.blocks_compiled = 0
        self.block_cache_hits = 0

    # ==================================================================
    # The execution engine
    # ==================================================================
    def run_slice(self, thread: JavaThread, *, quantum: int = _UNLIMITED,
                  controller=None, budget: int = _UNLIMITED) -> SliceEnd:
        """Run ``thread`` until a safe-point event ends the slice.

        With a ``controller`` (the scheduler's), the engine honours the
        full slice discipline: GC safe points and replay preemption are
        checked at every event boundary, ``jvm.instructions`` advances,
        and the slice ends on quantum exhaustion (measured in control
        flow changes, like the legacy loop).  Without one (detached
        contexts, :meth:`step`), the engine never collects, never
        preempts, and leaves ``jvm.instructions`` alone — exactly the
        seed's ``step()`` behaviour.

        ``budget`` bounds the number of instructions executed;
        exhaustion returns :data:`SliceEnd.BUDGET`, which only this
        engine's callers observe (the JVM run loop never sees it).
        """
        if self._registry_version != self._registry.version:
            self._invalidate_caches()
        if quantum <= 0:
            # The legacy loop noticed a degenerate quantum only after
            # running one instruction; mirror that exactly.
            end = self.run_slice(thread, controller=controller, budget=1)
            return SliceEnd.QUANTUM if end is SliceEnd.BUDGET else end
        jvm = self._jvm()
        heap = self._heap
        track = controller is not None
        check_preempt = track and controller.needs_preempt_checks
        should_preempt = controller.should_preempt if check_preempt else None
        frames = thread.frames
        cache = self._code_cache
        compile_blocks = self._compile_blocks
        start_br = thread.br_cnt
        rem = budget
        pending = 0  # executed plain ops not yet flushed to jvm.instructions
        bhits = 0    # compiled-block hits, flushed to the counter once
        try:
            while True:
                # ---- safe-point boundary: full checks ----------------
                if track:
                    if heap.gc_requested:
                        if pending:
                            jvm.instructions += pending
                            pending = 0
                        end = jvm.gc_safepoint(thread)
                        if end is not None:
                            return end
                    if check_preempt and should_preempt(thread):
                        return SliceEnd.CONTROLLER
                frame = frames[-1]
                stream = frame.decoded
                if stream is None:
                    code = frame.method.code
                    stream = cache.get(code.uid)
                    if stream is None:
                        stream = self._decode(code)
                    frame.decoded = stream
                kind, handler, arg = stream[frame.pc]
                if kind == _K_PLAIN:
                    if compile_blocks:
                        # ---- compiled superinstruction blocks --------
                        # Each runs a whole straight-line run in one
                        # call; counts come back deferred, like the
                        # batch loop's, and every exit lands on the
                        # same boundaries it would reach.  After a
                        # fused branch: event-exit bookkeeping, same
                        # order as below, then chain straight into the
                        # next block.  The loop-top checks are provably
                        # no-ops there: the block bails *before* the
                        # branch when a GC is pending or preemption
                        # checks are on, and a branch can set neither.
                        result = _COLD
                        while True:
                            blk = stream.blocks.get(frame.pc)
                            if blk is None:
                                blk = self._warm(stream, frame.pc)
                            if not blk or rem < blk.size:
                                break
                            bhits += 1
                            n, result = blk.fn(thread, frame, check_preempt)
                            thread.instructions += n
                            pending += n
                            rem -= n
                            if result is not BRANCH:
                                break
                            if track and pending:
                                jvm.instructions += pending
                                pending = 0
                            if thread.br_cnt - start_br >= quantum:
                                return SliceEnd.QUANTUM
                            if rem <= 0:
                                return SliceEnd.BUDGET
                        if result is BRANCH:
                            continue  # un-compiled target: dispatch
                        if result is not _COLD:
                            if (result is not None
                                    and result is not StepResult.CONTINUE):
                                return _SLICE_END_OF_RESULT[result]
                            if rem <= 0:
                                return SliceEnd.BUDGET
                            continue  # next op gets full checks
                    # ---- batch straight-line bytecodes ---------------
                    # Per-thread accounting runs in a local and is
                    # flushed at every batch exit: nothing inside a
                    # plain handler can observe thread.instructions,
                    # and the undo paths all live in event handlers.
                    n = 0
                    while True:
                        n += 1
                        result = handler(thread, frame, arg)
                        if result is not None:
                            break
                        if n >= rem:
                            thread.instructions += n
                            pending += n
                            return SliceEnd.BUDGET
                        kind, handler, arg = stream[frame.pc]
                        if kind != _K_PLAIN:
                            result = None
                            break
                    thread.instructions += n
                    pending += n
                    rem -= n
                    if result is None:
                        continue  # event op next: boundary checks first
                    if result is not StepResult.CONTINUE:
                        return _SLICE_END_OF_RESULT[result]
                    # An implicit exception transferred control without
                    # ticking br_cnt; treat it as a boundary so the next
                    # instruction gets full checks.
                    if rem <= 0:
                        return SliceEnd.BUDGET
                    continue
                # ---- safe-point event op (control flow / monitor) ----
                thread.instructions += 1
                if kind == _K_CF:
                    thread.br_cnt += 1
                if track:
                    if pending:
                        jvm.instructions += pending
                        pending = 0
                    result = handler(thread, frame, arg)
                    jvm.instructions += 1
                else:
                    result = handler(thread, frame, arg)
                if result is not None and result is not StepResult.CONTINUE:
                    return _SLICE_END_OF_RESULT[result]
                if thread.br_cnt - start_br >= quantum:
                    return SliceEnd.QUANTUM
                rem -= 1
                if rem <= 0:
                    return SliceEnd.BUDGET
        except IndexError:
            _stack_underflow(thread)
            raise
        finally:
            if pending and track:
                jvm.instructions += pending
            if bhits:
                self.block_cache_hits += bhits

    def step(self, thread: JavaThread) -> StepResult:
        """Execute exactly one instruction of ``thread``.

        Semantically identical to :meth:`run_slice` with ``budget=1``
        and no controller, but specialized: the per-slice setup
        (quantum bookkeeping, budget/batch state, deferred-accounting
        plumbing) is hoisted out so the ``engine="step"`` oracle does
        not pay fast-path re-entry per instruction.  Counter discipline
        is preserved exactly — plain ops bump ``thread.instructions``
        *after* their handler, event ops *before* (their handlers carry
        the undo paths).
        """
        if self._registry_version != self._registry.version:
            self._invalidate_caches()
        try:
            frame = thread.frames[-1]
            stream = frame.decoded
            if stream is None:
                code = frame.method.code
                stream = self._code_cache.get(code.uid)
                if stream is None:
                    stream = self._decode(code)
                frame.decoded = stream
            kind, handler, arg = stream[frame.pc]
            if kind == _K_PLAIN:
                result = handler(thread, frame, arg)
                thread.instructions += 1
            else:
                thread.instructions += 1
                if kind == _K_CF:
                    thread.br_cnt += 1
                result = handler(thread, frame, arg)
            if result is None or result is StepResult.CONTINUE:
                return StepResult.CONTINUE
            return result
        except IndexError:
            _stack_underflow(thread)
            raise

    # ==================================================================
    # Pre-decoded instruction streams
    # ==================================================================
    def _decode(self, code) -> list:
        """Translate (and cache) one code array into its stream of
        ``(kind, handler, decoded_operands)`` triples."""
        stream = _DecodedStream(
            (self._decode_instr(instr) for instr in code.instructions), code
        )
        self._code_cache[code.uid] = stream
        return stream

    def _decode_instr(self, instr):
        op = instr.op
        row = ROWS.get(op)
        if row is not None:
            cmp, arg = decode(row, instr.operands)
        elif instr.operands:    # of the event ops, only invokes have any
            cmp, arg = None, _InvokeSite(
                op, self._method_ref(instr.operands[0]))
        else:
            cmp, arg = None, None
        bound = self._handlers.get((op, cmp))
        if bound is None:       # event ops are hand-written: _op_<mnemonic>
            if op not in SAFEPOINT_EVENT_OPS:
                kind = _K_PLAIN
            else:
                kind = _K_MON if OP_INFO[op].is_monitor else _K_CF
            bound = self._handlers[op, cmp] = (kind, (
                bind_handler((op, cmp), self._env) if row is not None
                else getattr(self.semantics, f"_op_{op.value}")))
        return (*bound, arg)

    def _method_ref(self, operand: str) -> MethodRef:
        ref = self._ref_cache.get(operand)
        if ref is None:
            ref = parse_method_ref(operand)
            self._ref_cache[operand] = ref
        return ref

    def _warm(self, stream, pc: int):
        """Count one more entry at ``pc`` of a run with no block yet;
        at the hot threshold, compile it (``False`` marks a run that
        cannot compile).  Returns the block, or None while cold."""
        seen = stream.counts.get(pc, 0) + 1
        stream.counts[pc] = seen
        if seen < self._block_threshold:
            return None
        blk = stream.blocks[pc] = compile_block(self, stream, pc) or False
        if blk:
            self.blocks_compiled += 1
        return blk

    def _invalidate_caches(self) -> None:
        """Drop all decoded streams and inline caches.

        Called at slice entry whenever the class registry's version has
        moved (class (re)definition): every cached stream may hold stale
        method resolutions, and every live frame may point at one.
        Compiled blocks hang off the streams, so they are dropped in
        the same motion — no stale closure can survive the bump.
        """
        self._code_cache.clear()
        self._new_checked.clear()
        for t in self._scheduler.threads:
            for fr in t.frames:
                fr.decoded = None
        self._registry_version = self._registry.version


class Semantics:
    """What the decoded streams bind: the hand-written safe-point event
    ops and the slow paths of the table's rows.  It holds no stream and
    only a weak reference to its JVM (module doc, "Ownership")."""

    def __init__(self, jvm) -> None:
        self._jvm = weakref.ref(jvm)
        self._registry = jvm.registry
        self._heap = jvm.heap
        self._sync = jvm.sync
        self._intrinsics = jvm.intrinsics
        self._static_slots: Dict[tuple, tuple] = {}

    # ==================================================================
    # Java exception machinery
    # ==================================================================
    def throw_new(self, thread: JavaThread, class_name: str,
                  message: str = "") -> StepResult:
        """Allocate and throw a Java exception of the given class."""
        exc = self._heap.alloc_object(class_name)
        if "message" in exc.fields:
            exc.fields["message"] = message
        return self.dispatch_exception(thread, exc)

    def dispatch_exception(self, thread: JavaThread, exc: JObject) -> StepResult:
        """Unwind frames looking for a handler for ``exc``.

        Monitors held by abandoned frames are released (synchronized
        epilogue + structured-locking cleanup).  If no handler exists,
        the thread terminates with the exception uncaught.
        """
        while thread.frames:
            frame = thread.frames[-1]
            handler_pc = self._find_handler(frame, exc)
            if handler_pc is not None:
                frame.stack.clear()
                frame.stack.append(exc)
                frame.pc = handler_pc
                return StepResult.CONTINUE
            self._release_frame_monitors(thread, frame)
            thread.frames.pop()
        return self._jvm().thread_uncaught(thread, exc)

    def _find_handler(self, frame: Frame, exc: JObject) -> Optional[int]:
        pc = frame.pc
        for row in frame.method.code.exception_table:
            if not row.start_pc <= pc < row.end_pc:
                continue
            if row.class_name == "*" or self._registry.is_subtype(
                exc.class_name, row.class_name
            ):
                return row.handler_pc
        return None

    def _release_frame_monitors(self, thread: JavaThread, frame: Frame) -> None:
        for obj in reversed(frame.held_monitors):
            self._sync.exit(thread, obj)
        frame.held_monitors.clear()
        if frame.sync_object is not None:
            self._sync.exit(thread, frame.sync_object)
            frame.sync_object = None

    # ==================================================================
    # Slow paths the table's rows bind (optable.environment)
    # ==================================================================
    def _cached_instance(self, value, cell) -> bool:
        """``value instanceof cell[0]``, memoizing the last receiver
        class's answer in the cell (monomorphic type-check cache)."""
        if value is None:
            return False
        if isinstance(value, JArray):
            return cell[0] == "Object"
        cls = value.class_name
        if cls == cell[1]:
            return cell[2]
        answer = self._registry.is_subtype(cls, cell[0])
        cell[1] = cls
        cell[2] = answer
        return answer

    def _npe(self, thread, what: str) -> StepResult:
        return self.throw_new(thread, "NullPointerException", what)

    def static_slot(self, class_name: str, field_name: str) -> tuple:
        """The ``jvm.statics`` key of a static field named from
        ``class_name``: the declaring class's (the GETSTATIC/PUTSTATIC
        rows cache it in their cell)."""
        key = (class_name, field_name)
        slot = self._static_slots.get(key)
        if slot is None:
            cls = self._registry.resolve(class_name)
            while cls is not None:
                f = cls.fields.get(field_name)
                if f is not None and f.is_static:
                    slot = (cls.name, field_name)
                    break
                cls = cls.superclass
            if slot is None:
                raise LinkageError(
                    f"no static field {field_name!r} in {class_name!r} "
                    f"hierarchy"
                )
            self._static_slots[key] = slot
        return slot

    # ==================================================================
    # Monitors
    # ==================================================================
    def _op_monitorenter(self, thread, frame, arg):
        obj = frame.stack[-1]  # popped only once acquisition completes
        if obj is None:
            frame.stack.pop()
            return self._npe(thread, "monitorenter")
        result = self._sync.enter(thread, obj)
        if result is EnterResult.ACQUIRED:
            frame.stack.pop()
            frame.held_monitors.append(obj)
            frame.pc += 1
            return None
        # A failed attempt retries later: keep the counters as if the
        # instruction never ran, so progress points don't depend on
        # whether this replica happened to contend.
        thread.instructions -= 1
        return (
            StepResult.BLOCKED
            if result is EnterResult.BLOCKED
            else StepResult.PARKED
        )

    def _op_monitorexit(self, thread, frame, arg):
        obj = frame.stack.pop()
        if obj is None:
            return self._npe(thread, "monitorexit")
        if not self._sync.exit(thread, obj):
            return self.throw_new(
                thread, "IllegalMonitorStateException", "not the owner"
            )
        if obj in frame.held_monitors:
            frame.held_monitors.remove(obj)
        frame.pc += 1

    # ==================================================================
    # Exceptions
    # ==================================================================
    def _op_athrow(self, thread, frame, arg):
        exc = frame.stack.pop()
        if exc is None:
            return self._npe(thread, "athrow")
        if not isinstance(exc, JObject) or not self._registry.is_subtype(
            exc.class_name, "Throwable"
        ):
            raise ReproError(f"athrow of non-Throwable {describe(exc)}")
        return self.dispatch_exception(thread, exc)

    # ==================================================================
    # Invocation
    # ==================================================================
    def _op_invoke(self, thread, frame, site):
        ref = site.ref
        op = site.op
        stack = frame.stack
        nargs = site.nargs

        if op is Op.INVOKESTATIC:
            receiver = None
            method = site.method
            if method is None:
                method = self._jvm().resolve_static_method(ref)
                site.method = method
                site.intrinsic = self._intrinsics.get(
                    (method.declaring_class.name, method.name, nargs)
                )
            intrinsic = site.intrinsic
        else:
            receiver = stack[-1 - nargs]
            if receiver is None:
                del stack[len(stack) - 1 - nargs:]
                thread.br_cnt -= 1  # the call never happened
                return self._npe(thread, f"invoke {ref.class_name}.{ref.method_name}")
            if op is Op.INVOKESPECIAL:
                method = site.method
                if method is None:
                    method = self._registry.lookup_method(
                        ref.class_name, ref.method_name, nargs
                    )
                    site.method = method
                    site.intrinsic = self._intrinsics.get(
                        (method.declaring_class.name, method.name, nargs)
                    )
                intrinsic = site.intrinsic
            else:
                dyn_class = (
                    "Object" if isinstance(receiver, JArray)
                    else receiver.class_name
                )
                if dyn_class == site.vclass:
                    method = site.vmethod
                    intrinsic = site.vintrinsic
                else:
                    method = self._registry.lookup_method(
                        dyn_class, ref.method_name, nargs
                    )
                    intrinsic = self._intrinsics.get(
                        (method.declaring_class.name, method.name, nargs)
                    )
                    site.vclass = dyn_class
                    site.vmethod = method
                    site.vintrinsic = intrinsic

        # Intrinsics (wait/notify/thread ops) manage the stack themselves
        # because several of them suspend mid-instruction.
        if intrinsic is not None:
            return intrinsic(self._jvm(), thread, frame, method, receiver,
                             nargs)

        # Hot backups pause on natives whose log record has not arrived
        # yet — checked before any state (stack, monitors) changes, so
        # the invoke retries cleanly.
        jvm = self._jvm() if method.is_native else None
        if jvm is not None and jvm.native_policy.would_starve(
            jvm, method, thread
        ):
            thread.br_cnt -= 1
            thread.instructions -= 1
            return StepResult.STARVED

        # Synchronized methods acquire their monitor *before* arguments
        # are popped, so a blocked attempt can retry cleanly.
        sync_target = None
        if method.is_synchronized:
            sync_target = (
                self._jvm().class_lock_object(method.declaring_class.name)
                if method.is_static
                else receiver
            )
            result = self._sync.enter(thread, sync_target)
            if result is not EnterResult.ACQUIRED:
                thread.br_cnt -= 1  # retried later; count it once
                thread.instructions -= 1
                return (
                    StepResult.BLOCKED
                    if result is EnterResult.BLOCKED
                    else StepResult.PARKED
                )

        args = stack[len(stack) - nargs:] if nargs else []
        del stack[len(stack) - nargs:]
        if receiver is not None:
            stack.pop()
            args = [receiver] + args

        if jvm is not None:
            return jvm.invoke_native(
                thread, frame, method, receiver, args, sync_target
            )

        callee = Frame(method, args)
        callee.sync_object = sync_target
        thread.frames.append(callee)
        return None

    _op_invokevirtual = _op_invokespecial = _op_invokestatic = _op_invoke

    # ==================================================================
    # Returns
    # ==================================================================
    def _op_return(self, thread, frame, arg):
        return self._do_return(thread, frame, None, push=False)

    def _op_vreturn(self, thread, frame, arg):
        return self._do_return(thread, frame, frame.stack.pop(), push=True)

    def _do_return(self, thread, frame, value, push: bool):
        self._release_frame_monitors(thread, frame)
        thread.frames.pop()
        if not thread.frames:
            return self._jvm().thread_finished(thread,
                                               value if push else None)
        caller = thread.frames[-1]
        if push:
            caller.stack.append(value)
        caller.pc += 1
        return None


_SLICE_END_OF_RESULT = {
    StepResult.BLOCKED: SliceEnd.BLOCKED,
    StepResult.WAITING: SliceEnd.WAITING,
    StepResult.PARKED: SliceEnd.PARKED,
    StepResult.YIELDED: SliceEnd.YIELDED,
    StepResult.TERMINATED: SliceEnd.TERMINATED,
    StepResult.STARVED: SliceEnd.STARVED,
}


def _stack_underflow(thread: JavaThread) -> None:
    """Turn an ``IndexError`` out of a handler into the diagnostic it
    means (the verifier bounds stack depth); returns when the error
    came from somewhere else, so the caller re-raises it."""
    frame = thread.frames[-1] if thread.frames else None
    if frame is None or frame.pc >= len(frame.method.code.instructions):
        return
    op = frame.method.code.instructions[frame.pc].op
    raise ReproError(
        f"operand stack underflow at {frame.method.qualified_name}"
        f":{frame.pc} ({op.value}) — verifier should have caught this"
    ) from None
