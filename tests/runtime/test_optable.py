"""The opcode table: one row per plain or branch opcode, rendered into
the interpreter's handlers (each compiled once per process) and spliced
by the block compiler.  The semantics themselves are pinned by
``test_interpreter_ops.py`` and the engine-equivalence tests."""

import builtins
import dis

import pytest

from repro.bytecode.instructions import ins
from repro.bytecode.opcodes import (
    CMP_OPS,
    OP_INFO,
    SAFEPOINT_EVENT_OPS,
    Op,
    OperandKind,
)
from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.runtime.blockjit import _BlockEmitter
from repro.runtime.interpreter import Semantics
from repro.runtime.jvm import JVM, JVMConfig
from repro.runtime.optable import ROWS, bind_handler, decode
from repro.runtime.stdlib import default_natives, new_program_registry

_SAMPLE_OPERAND = {
    OperandKind.INT: 3, OperandKind.FLOAT: 1.5, OperandKind.STRING: "s",
    OperandKind.LOCAL: 0, OperandKind.LABEL: 0, OperandKind.CLASS: "Object",
    OperandKind.FIELD: "f", OperandKind.CMP: "lt", OperandKind.TYPE: "int",
}

_PROGRAM = """
class Main {
    static void main() {
        int acc = 0;
        for (int i = 0; i < 20; i++) { acc = acc + i * 2; }
        System.println("" + acc);
    }
}
"""


def _jvm():
    return JVM(new_program_registry(), default_natives(),
               Environment().attach("t"), JVMConfig())


def test_every_opcode_is_an_event_op_or_one_row_with_its_stack_effect():
    for op in Op:
        hand_written = hasattr(Semantics, f"_op_{op.value}")
        assert hand_written != (op in ROWS), op
        assert not hand_written or op in SAFEPOINT_EVENT_OPS, op
    for op, row in ROWS.items():
        info = OP_INFO[op]
        assert (len(row.ins), len(row.out)) == (info.pops, info.pushes), op
        # A row is a plain op, or a branch the block compiler may fuse.
        assert row.branch == (op in SAFEPOINT_EVENT_OPS), op
        assert row.branch == info.is_branch, op


def _run(engine="slice"):
    registry = compile_program(_PROGRAM)
    jvm = JVM(registry, default_natives(), Environment().attach("t"),
              JVMConfig(engine=engine))
    assert jvm.run("Main").ok
    return jvm


def test_a_second_jvm_compiles_nothing(monkeypatch):
    """Handler source is compiled once per process: constructing and
    running another JVM over the same opcodes only binds closures."""
    _run()
    calls = []
    for name in ("compile", "exec"):
        real = getattr(builtins, name)
        monkeypatch.setattr(builtins, name, lambda *a, real=real, **k: (
            calls.append(a) or real(*a, **k)))
    jvm = _run()
    assert calls == []
    assert jvm.interpreter._handlers


def test_handlers_are_per_interpreter_closures_over_one_code_object():
    a, b = _run().interpreter._handlers, _run("step").interpreter._handlers
    (_, load_a), (_, load_b) = a[Op.LOAD, None], b[Op.LOAD, None]
    assert load_a is not load_b
    assert load_a.__code__ is load_b.__code__


def test_every_handler_key_binds():
    env = _jvm().interpreter._env
    for op, row in ROWS.items():
        for cmp in CMP_OPS if row.cmp else (None,):
            assert callable(bind_handler((op, cmp), env)), (op, cmp)


@pytest.mark.parametrize("op", list(ROWS), ids=lambda op: op.value)
def test_a_block_splice_binds_every_name_its_row_uses(op):
    """A helper a row uses but does not declare would be a global
    lookup in the generated block — a NameError on first execution,
    which for a slow path may be never in a test run."""
    instr = ins(op, *(_SAMPLE_OPERAND[kind]
                      for kind in OP_INFO[op].operand_kinds))
    cmp, arg = decode(ROWS[op], instr.operands)
    em = _BlockEmitter(_jvm().interpreter._env, 0)
    if ROWS[op].branch:
        em.fuse(0, 0, ROWS[op], cmp, arg)
    else:
        em.op(0, ROWS[op], arg)
    src = em.render(1)
    namespace = dict(em.binds)
    exec(compile(src, "<probe>", "exec"), namespace)
    loaded = {i.argval for i in dis.get_instructions(namespace["__block__"])
              if i.opname == "LOAD_GLOBAL"}
    assert loaded <= set(dir(builtins)), loaded


def _block_functions(jvm):
    return [blk.fn for stream in jvm.interpreter._code_cache.values()
            for blk in stream.blocks.values() if blk]


def test_a_second_jvm_compiles_no_block(monkeypatch):
    """Block source is compiled once per process: a second JVM running
    the same program binds the first one's code objects to its own
    names, and creates no code object."""
    first_jvm = _run("block")
    first = _block_functions(first_jvm)
    calls = []
    for name in ("compile", "exec"):
        real = getattr(builtins, name)
        monkeypatch.setattr(builtins, name, lambda *a, real=real, **k: (
            calls.append(a) or real(*a, **k)))
    second_jvm = _run("block")
    second = _block_functions(second_jvm)
    assert calls == []
    assert first and len(second) == len(first)
    codes = {id(fn.__code__) for fn in first}
    for fn in second:
        assert id(fn.__code__) in codes
        assert fn not in first
        assert first_jvm.heap not in fn.__defaults__
