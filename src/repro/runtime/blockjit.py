"""Superinstruction block compiler for the ``block`` execution engine.

:func:`compile_block` turns one straight-line run of *plain* pre-decoded
bytecodes (the region between two safe-point-relevant events — no
control flow, no monitors) into a single generated Python function,
cached on the decoded stream.  Its source is ``compile``d once per
process; each interpreter binds its own names as the function's
defaults.  It writes no opcode semantics of its own: each op is the row
of :data:`~repro.runtime.optable.ROWS` that the interpreter's handler is
rendered from, spliced here in the block discipline —

* the operand stack is simulated at *compile* time — values flow
  through Python temporaries, and ``frame.stack`` is only touched for
  values that live across the block boundary (pops below block entry,
  pushes surviving to block exit);
* constants, inline-cache cells, and the helpers a row declares are
  bound as default arguments, so every name the hot path touches is a
  Python local;
* ``thread.instructions`` accounting is deferred: the function returns
  ``(n, result)`` and the caller applies ``n`` as one add (the same
  batch discipline the interpreting loop already uses);
* ``jvm.heavy_ops`` increments are folded into one compile-time
  constant per exit path.

Safe-point equivalence (DESIGN.md §6c): a block contains no control
flow, no monitor operation, no invoke — so no deschedule, no GC, no
native, and no output can occur inside it.  Every architectural effect
(heap writes with their ``mut_era`` stamps, locals, statics, allocation
order, thrown Java exceptions and their messages) is produced exactly
as the interpreting loop would produce it, and ``frame.pc`` is
synchronized at the top of every slow path of a row, so the handler
search and the diagnostic state match the interpreter bit-for-bit at
every point where they are observable.

Exception exits skip re-materializing the virtual stack because
:meth:`Interpreter.dispatch_exception` either clears the frame's stack
(handler in this frame) or discards the frame entirely (unwind) — the
stale real stack is never observable.

Branch fusion: when the event op terminating a run is a branch row
(GOTO / IF* — touches only the operand stack and ``pc``, never blocks,
never raises, never changes the frame list), the block inlines it and
returns the :data:`BRANCH` sentinel so the caller can do the event-exit
bookkeeping (``br_cnt`` is ticked in-block, before the branch, like the
event path does).  The safe-point boundary *before* the branch is
preserved by a bail-out: if a GC was requested during the run, or the
caller needs replay-preemption checks this slice (``bail``), the block
rolls the branch operands back onto the real stack and returns at the
boundary — the interpreting event path then runs the branch after full
checks, exactly like ``engine="slice"``.
"""

from __future__ import annotations

import builtins
import re
import types
from typing import Optional

from repro.bytecode.opcodes import SAFEPOINT_EVENT_OPS
from repro.runtime.optable import HELPERS, ROWS, Emitter, Row, decode

#: Runs shorter than this gain nothing over the interpreting batch
#: loop (a fused branch makes even a one-op run worth compiling);
#: runs longer than the cap would starve under small budgets because a
#: block only runs when the whole run fits the budget.
MIN_RUN = 2
MAX_RUN = 512

#: Returned (as the result half of ``(n, result)``) by a block that
#: executed its fused terminating branch: the caller must do the
#: event-exit bookkeeping (flush deferred counts, check quantum).
BRANCH = object()

_ATOM = re.compile(r"-?\d+|None|\w+")

#: Compiled block functions by generated source, once per process: the
#: same run of the same program renders the same source in every
#: interpreter, which binds its own names as the function's defaults.
_CODE: dict = {}
#: A block loads nothing global but builtins.
_GLOBALS = {"__builtins__": builtins}


class CompiledBlock:
    """One compiled straight-line run: ``fn(thread, frame, bail)``
    executes it and returns ``(instructions_executed, result)`` where
    ``result`` is None (stopped at the terminating event), a
    :class:`StepResult` (an op dispatched a Java exception), or
    :data:`BRANCH` (the fused branch ran).  ``size`` counts the fused
    branch, so the ``rem >= size`` budget gate covers every path."""

    __slots__ = ("size", "fn")

    def __init__(self, size: int, fn) -> None:
        self.size = size
        self.fn = fn


class _BlockEmitter(Emitter):
    """The block discipline: a virtual operand stack ``vs`` of atomic
    expressions, and slow paths that synchronise ``frame.pc`` first."""

    def __init__(self, env: dict, entry: int) -> None:
        super().__init__()
        self.env = env
        self.entry = entry
        self.vs: list = []
        self.nconst = 0
        self.binds: dict = {}       # default-arg name -> value
        self.heavy = 0              # jvm.heavy_ops completed so far
        self.i = 0                  # index of the op being spliced
        self.fused = False

    def bind(self, *names) -> None:
        for name in names:
            self.binds[name] = HELPERS.get(name) or self.env[name]

    def const(self, value) -> str:
        """An atomic expression for a constant operand: ints are
        inlined, everything else is bound as a default argument."""
        if type(value) is int:
            return repr(value)
        for bound, v in self.binds.items():
            if v is value and bound.startswith("k"):
                return bound
        name = f"k{self.nconst}"
        self.nconst += 1
        self.binds[name] = value
        return name

    def operands(self, row: Row, arg, cmp=None) -> dict:
        parts = arg if len(row.operands) > 1 else (arg,)
        return self.names(row, [self.const(v) for v in parts], cmp)

    def pop(self) -> str:
        if self.vs:
            return self.vs.pop()
        t = self.temp()
        self.emit(f"{t} = S.pop()")
        return t

    def int32(self, target: str, expr: str, depth: int) -> None:
        self.bind("wrap_int")
        super().int32(target, expr, depth)

    def slow(self, action: str, depth: int) -> None:
        """Sync pc to the op; a Java exception exit also settles the
        deferred heavy ops and returns the count of ops run, this one
        included."""
        self.emit(f"frame.pc = {self.entry + self.i}", depth)
        if not action.startswith("return "):
            self.emit(action, depth)
            return
        if self.heavy:
            self.bind("heavy")
            self.emit(f"heavy.n += {self.heavy}", depth)
        self.emit(f"return ({self.i + 1}, {action[7:]})", depth)

    def op(self, i: int, row: Row, arg) -> None:
        """Splice plain op ``i`` of the run."""
        self.i = i
        names = self.operands(row, arg)
        for name in reversed(row.ins):
            names[name] = self.pop()
        self.bind(*row.helpers)

        def push(expr, depth):
            if not _ATOM.fullmatch(expr):
                t = self.temp()
                self.emit(f"{t} = {expr}", depth)
                expr = t
            self.vs.append(expr)

        self.body(row, names, push)
        self.heavy += row.heavy

    def fuse(self, np: int, branch_pc: int, row: Row, cmp, target) -> None:
        """Inline the branch at ``branch_pc`` after the ``np`` plain
        ops, guarded by the boundary bail-out (module doc)."""
        names = self.operands(row, target, cmp)
        restore = [self.pop() for _ in row.ins][::-1]
        names.update(zip(row.ins, restore))
        self.bind("heap")
        self.binds["BRANCH"] = BRANCH
        self.flush(branch_pc)
        self.emit("if bail or heap.gc_requested:")
        for expr in restore:
            self.emit(f"S.append({expr})", 1)
        self.emit(f"return ({np}, None)", 1)
        self.emit("thread.br_cnt += 1")
        if row.cond is None:
            self.emit(f"frame.pc = {target}")
        else:
            self.emit(f"frame.pc = {target} if {self.sub(row.cond, names)} "
                      f"else {branch_pc + 1}")
        self.emit(f"return ({np + 1}, BRANCH)")
        self.fused = True

    def flush(self, pc: int) -> None:
        """Leave the run at ``pc``: settle heavy ops, materialize the
        virtual stack."""
        self.emit(f"frame.pc = {pc}")
        if self.heavy:
            self.bind("heavy")
            self.emit(f"heavy.n += {self.heavy}")
        for expr in self.vs:
            self.emit(f"S.append({expr})")
        self.vs = []

    def render(self, size: int) -> str:
        if not self.fused:
            self.flush(self.entry + size)
            self.emit(f"return ({size}, None)")
        sig = ["thread", "frame", "bail"]
        sig.extend(f"{name}={name}" for name in self.binds)
        return self.function(f"__block__({', '.join(sig)})")


def compile_block(interp, stream, entry: int) -> Optional[CompiledBlock]:
    """Compile the straight-line run starting at ``entry`` in
    ``stream`` (a :class:`~repro.runtime.interpreter._DecodedStream`).

    Returns None when the run is too short or too long — the
    interpreting batch loop keeps handling those entries.
    """
    instrs = stream.code.instructions
    end = entry
    while end < len(instrs) and instrs[end].op not in SAFEPOINT_EVENT_OPS:
        end += 1
    size = end - entry
    # The only event ops with a table row are the fusable branches.
    row = ROWS.get(instrs[end].op) if end < len(instrs) else None
    if size > MAX_RUN or size < (1 if row is not None else MIN_RUN):
        return None
    em = _BlockEmitter(interp._env, entry)
    for i in range(size):
        em.op(i, ROWS[instrs[entry + i].op], stream[entry + i][2])
    if row is not None:
        cmp, target = decode(row, instrs[end].operands)
        em.fuse(size, end, row, cmp, target)
    src = em.render(size)
    code = _CODE.get(src)
    if code is None:
        module = compile(src, f"<block {stream.code.uid}:{entry}>", "exec")
        code = _CODE[src] = next(c for c in module.co_consts
                                 if isinstance(c, types.CodeType))
    # Bind this interpreter's names as the defaults, in signature order.
    fn = types.FunctionType(code, _GLOBALS, None, tuple(em.binds.values()))
    return CompiledBlock(size + (row is not None), fn)
