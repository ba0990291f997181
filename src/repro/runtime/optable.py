"""The opcode table: each plain and branch bytecode's semantics, once.

Every bytecode except the safe-point *event* ops (invoke, return,
monitor, athrow — hand-written in :mod:`repro.runtime.interpreter`) is
one :class:`Row` of :data:`ROWS`:

* ``operands`` names the decoded operand parts (``decode`` builds an
  inline-cache cell from them); a ``CMP`` operand is no runtime value
  but the ``{cmp}`` operator, so each comparison is rendered apart;
* ``ins`` names the stack inputs (bottom to top) and ``out`` the pushed
  expressions — ``OP_INFO``'s pops and pushes;
* ``body`` holds the statements between.  ``if COND: ACTION`` is a
  slow path, entered in a block with ``frame.pc`` synchronised:
  ``return ...`` is a Java exception exit, anything else (a cache fill,
  an internal error, a rare fix-up) falls through.  ``catch`` wraps
  the outputs in ``try``/``except EXC: ACTION``;
* ``int32(EXPR)`` is a Java ``int`` result, rendered as a range test
  that calls ``wrap_int`` only on overflow;
* ``heavy`` is the ``jvm.heavy_ops`` weight and ``helpers`` the names
  the row binds (:data:`HELPERS` or the per-interpreter
  :func:`environment`); a branch row jumps to ``{target}`` when
  ``cond`` holds (always, for ``goto``).

:class:`Emitter` renders rows.  Its own discipline is the ``(thread,
frame, arg)`` handler over the real operand stack that ``step()`` and
``run_slice`` dispatch.  Each handler's factory is compiled once per
process, on first use (compiling all of them would add milliseconds to
every import); each interpreter calls it to bind its heap, statics,
counters and slow paths as closure cells, so a JVM's construction
compiles nothing.  None of them is the JVM itself: a handler lives in a
stream the JVM owns, so binding the JVM would make every JVM a
reference cycle.  The block compiler's subclass
(:mod:`repro.runtime.blockjit`) splices the same rows over a
compile-time virtual stack.  A handler pushes its final expression
directly; a single-use input is popped where it is used.
"""

from __future__ import annotations

import re
from typing import Dict

from repro.bytecode.opcodes import Op
from repro.errors import LinkageError, ReproError
from repro.runtime.values import JObject, conforms, describe, wrap_int


class Row:
    """One opcode's semantics (module docstring).  Name lists are given
    as space-separated strings."""

    __slots__ = ("ins", "out", "body", "operands", "decode", "catch",
                 "heavy", "helpers", "cond", "cmp")

    def __init__(self, ins="", *out, body=(), operands="", decode=None,
                 catch=None, heavy=0, helpers="", cond=None) -> None:
        self.ins = tuple(ins.split())
        self.out = out
        self.body = tuple(body)
        self.operands = tuple(operands.split())
        self.decode = decode
        self.catch = catch
        self.heavy = heavy
        self.helpers = tuple(helpers.split())
        self.cond = cond
        self.cmp = "{cmp}" in (cond or "")   # a CMP operand leads

    @property
    def branch(self) -> bool:
        return self.operands == ("target",)


def _branch(ins, cond) -> Row:
    return Row(ins, operands="target", cond=cond)


def _f_div_zero(a: float) -> float:
    """Java float division by zero yields ±Inf or NaN, never a trap."""
    if a == 0.0:
        return float("nan")
    return float("inf") if a > 0 else float("-inf")


def _field_miss(obj, name):
    """GETFIELD/PUTFIELD on a field the object lacks (always raises)."""
    raise LinkageError(f"no field {name!r} on {describe(obj)}") from None


def _store_miss(value, arr):
    """ARRSTORE element-type mismatch (always raises)."""
    raise ReproError(
        f"array store type mismatch: {describe(value)} into "
        f"{arr.elem_type}[]"
    )


#: Helpers that are the same for every interpreter.
HELPERS = {
    "wrap_int": wrap_int, "f_div_zero": _f_div_zero,
    "field_miss": _field_miss, "store_miss": _store_miss,
    "JObject": JObject, "conforms": conforms, "describe": describe,
}


class HeavyOps:
    """``jvm.heavy_ops``: a counter cell of its own, so a handler can
    bump it without binding the JVM."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def environment(jvm, semantics, new_checked: set) -> dict:
    """The per-interpreter names a row may bind: parts of ``jvm`` and
    the slow paths of its interpreter's ``semantics``."""
    heap = jvm.heap
    return {
        "statics": jvm.statics, "heavy": jvm.heavy, "heap": heap,
        "throw_new": semantics.throw_new, "npe": semantics._npe,
        "cached_instance": semantics._cached_instance,
        "new_checked": new_checked, "resolve": jvm.registry.resolve,
        "alloc_object": heap.alloc_object, "alloc_array": heap.alloc_array,
        "static_slot": semantics.static_slot,
    }


_DIV0 = ("if {b} == 0: return throw_new(thread, 'ArithmeticException', "
         "'/ by zero')")
_STATIC = ("{s} = {cell}[2]", "if {s} is None: {s} = {cell}[2] = "
           "static_slot({cell}[0], {cell}[1])")
_ARRAY = ("{d} = {a}.data", "if not 0 <= {i} < len({d}): return throw_new("
          "thread, 'ArrayIndexOutOfBoundsException', "
          "'index %s out of bounds for length %s' % ({i}, len({d})))")


def _cell(*operands):
    """GETSTATIC/PUTSTATIC inline cache: class, field, resolved slot."""
    return [*operands, None]


def _type_cell(class_name):
    """INSTANCEOF/CHECKCAST cache: class, last receiver class, answer."""
    return [class_name, None, False]


ROWS: Dict[Op, Row] = {
    Op.NOP: Row(),
    **dict.fromkeys((Op.ICONST, Op.FCONST, Op.SCONST),
                    Row("", "{value}", operands="value")),
    Op.ACONST_NULL: Row("", "None"),
    Op.LOAD: Row("", "LV[{slot}]", operands="slot"),
    Op.STORE: Row("a", body=["LV[{slot}] = {a}"], operands="slot"),
    Op.IINC: Row(body=["{r} = int32(LV[{slot}] + {delta})",
                        "LV[{slot}] = {r}"], operands="slot delta"),
    Op.POP: Row("a"),
    Op.DUP: Row("a", "{a}", "{a}"),
    Op.DUP_X1: Row("a b", "{b}", "{a}", "{b}"),
    Op.SWAP: Row("a b", "{b}", "{a}"),
    Op.IADD: Row("a b", "int32({a} + {b})"),
    Op.ISUB: Row("a b", "int32({a} - {b})"),
    Op.IMUL: Row("a b", "int32({a} * {b})"),
    # Truncate toward zero: when the signs differ, negating the dividend
    # makes floor division truncate.  Only MIN_INT / -1 leaves range.
    Op.IDIV: Row("a b", "int32({a} // {b} if ({a} < 0) == ({b} < 0) "
                  "else -(-{a} // {b}))", body=[_DIV0], helpers="throw_new"),
    # The remainder takes the dividend's sign, Python's the divisor's:
    # shift by one divisor when they disagree.  |result| < |divisor|.
    Op.IREM: Row("a b", "{r}", body=[
        _DIV0, "{r} = {a} % {b}",
        "if {r} and ({a} < 0) != ({b} < 0): {r} -= {b}"],
        helpers="throw_new"),
    Op.INEG: Row("a", "int32(-{a})"),
    # Shift counts use their low five bits; an in-range int shifted
    # right stays in range.
    Op.ISHL: Row("a b", "int32({a} << ({b} & 31))"),
    Op.ISHR: Row("a b", "{a} >> ({b} & 31)"),
    Op.IUSHR: Row("a b", "int32(({a} & 0xFFFFFFFF) >> ({b} & 31))"),
    # Bitwise ops on in-range ints stay in range (Python sign-extends).
    Op.IAND: Row("a b", "{a} & {b}"),
    Op.IOR: Row("a b", "{a} | {b}"),
    Op.IXOR: Row("a b", "{a} ^ {b}"),
    Op.FADD: Row("a b", "{a} + {b}", heavy=1),
    Op.FSUB: Row("a b", "{a} - {b}", heavy=1),
    Op.FMUL: Row("a b", "{a} * {b}", heavy=1),
    Op.FDIV: Row("a b", "({a} / {b}) if {b} != 0.0 else f_div_zero({a})",
                  heavy=1, helpers="f_div_zero"),
    Op.FNEG: Row("a", "-{a}"),
    Op.I2F: Row("a", "float({a})"),
    Op.F2I: Row("a", "int32(int({a}))"),
    Op.SCONCAT: Row("a b", "{a} + {b}"),
    Op.S2I: Row("a", "int32(int({a}.strip(), 10))", catch=(
        "ValueError", "return throw_new(thread, 'NumberFormatException', "
        "'for input string: %r' % ({a},))"), helpers="throw_new"),
    Op.I2S: Row("a", "str({a})"),
    Op.F2S: Row("a", "repr(float({a}))"),
    Op.NEW: Row("", "alloc_object({cls})", body=[
        "if {cls} not in new_checked: resolve({cls}); new_checked.add({cls})"],
        operands="cls", helpers="new_checked resolve alloc_object"),
    Op.GETFIELD: Row("o", "{o}.fields[{name}]", body=[
        "if {o} is None: return npe(thread, 'getfield ' + {name})"],
        catch=("(KeyError, AttributeError)", "field_miss({o}, {name})"),
        operands="name", helpers="npe field_miss"),
    Op.PUTFIELD: Row("o v", body=[
        "if {o} is None: return npe(thread, 'putfield ' + {name})",
        "if not isinstance({o}, JObject) or {name} not in {o}.fields: "
        "field_miss({o}, {name})",
        "{o}.fields[{name}] = {v}", "{o}.mut_era = heap.era"],
        operands="name", helpers="npe JObject field_miss heap"),
    Op.GETSTATIC: Row("", "statics[{s}]", body=_STATIC, operands="cell",
                       decode=_cell, helpers="statics static_slot"),
    Op.PUTSTATIC: Row("v", body=_STATIC + ("statics[{s}] = {v}",),
                       operands="cell", decode=_cell,
                       helpers="statics static_slot"),
    Op.INSTANCEOF: Row("v", "1 if cached_instance({v}, {cell}) else 0",
                        operands="cell", decode=_type_cell,
                        helpers="cached_instance"),
    Op.CHECKCAST: Row("v", "{v}", body=[
        "if {v} is not None and not cached_instance({v}, {cell}): "
        "return throw_new(thread, 'ClassCastException', "
        "'%s cannot be cast to %s' % (describe({v}), {cell}[0]))"],
        operands="cell", decode=_type_cell,
        helpers="cached_instance throw_new describe"),
    Op.NEWARRAY: Row("n", "alloc_array({etype}, {n})", body=[
        "if {n} < 0: return throw_new(thread, "
        "'NegativeArraySizeException', str({n}))"],
        operands="etype", helpers="throw_new alloc_array"),
    Op.ARRLOAD: Row("a i", "{d}[{i}]", body=[
        "if {a} is None: return npe(thread, 'arrload')", *_ARRAY],
        heavy=1, helpers="npe throw_new"),
    Op.ARRSTORE: Row("a i v", body=[
        "if {a} is None: return npe(thread, 'arrstore')", *_ARRAY,
        "if not conforms({v}, {a}.elem_type): store_miss({v}, {a})",
        "{d}[{i}] = {v}", "{a}.mut_era = heap.era"],
        heavy=1, helpers="npe throw_new conforms store_miss heap"),
    Op.ARRAYLENGTH: Row("a", "len({a}.data)", body=[
        "if {a} is None: return npe(thread, 'arraylength')"], helpers="npe"),
    # Branches touch only the operand stack and pc: they never block,
    # raise or change the frame list, so a block may fuse one.
    Op.GOTO: _branch("", None),
    Op.IF: _branch("a", "{a} {cmp} 0"),
    **dict.fromkeys((Op.IF_ICMP, Op.IF_FCMP, Op.IF_SCMP),
                    _branch("a b", "{a} {cmp} {b}")),
    Op.IF_NULL: _branch("a", "{a} is None"),
    Op.IF_NONNULL: _branch("a", "{a} is not None"),
    Op.IF_ACMP_EQ: _branch("a b", "{a} is {b}"),
    Op.IF_ACMP_NE: _branch("a b", "{a} is not {b}"),
}

#: Comparison tokens (see ``CMP_FNS``) as Python operators.
CMP_SRC = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
            "gt": ">", "ge": ">="}


def decode(row: Row, operands) -> tuple:
    """``(cmp token or None, decoded operand)`` of an instruction of
    ``row``: the token selects the handler, the operand is what ``arg``
    is in the handler and what the block splice inlines."""
    if row.decode is not None:
        return None, row.decode(*operands)
    if row.cmp:
        return operands[0], operands[1]
    return None, operands[0] if len(operands) == 1 else operands or None


_TOKEN = re.compile(r"\{(\w+)\}")
_INT32 = re.compile(r"int32\((.*)\)")
_STACK = re.compile(r"(?<![\w.])S(?=[.\[])")
_LOCALS = re.compile(r"(?<![\w.])LV(?=\[)")


class Emitter:
    """Renders rows as Python source.  This base discipline is the
    handler's: inputs and outputs live on the real stack ``S`` and slow
    paths run as written.  The block compiler's subclass keeps a
    virtual stack and turns slow paths into synchronised exits."""

    def __init__(self) -> None:
        self.lines: list = []
        self.ntemp = 0

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * (depth + 1) + line)

    def temp(self) -> str:
        name = f"t{self.ntemp}"
        self.ntemp += 1
        return name

    def sub(self, template: str, names: dict) -> str:
        """Fill a template; a name no input or operand defines is a
        fresh temporary of this op."""
        def fill(match):
            name = match.group(1)
            if name not in names:
                names[name] = self.temp()
            return names[name]
        return _TOKEN.sub(fill, template)

    def int32(self, target: str, expr: str, depth: int) -> None:
        """``target = expr`` as a Java int: wrap only on overflow."""
        self.emit(f"{target} = {expr}", depth)
        self.emit(f"if {target} > 2147483647 or {target} < -2147483648:",
                  depth)
        self.emit(f"{target} = wrap_int({target})", depth + 1)

    def slow(self, action: str, depth: int) -> None:
        self.emit(action, depth)

    def names(self, row: Row, values, cmp=None) -> dict:
        """Template names of the row's operands and comparison."""
        names = dict(zip(row.operands, values))
        if cmp is not None:
            names["cmp"] = CMP_SRC[cmp]
        return names

    def function(self, signature: str) -> str:
        """The emitted lines as ``def signature:``, with ``S``/``LV``
        naming the frame's stack/locals (inlined where used once)."""
        text = "\n".join(self.lines)
        for ref, alias, full in ((_STACK, "S", "frame.stack"),
                                 (_LOCALS, "LV", "frame.locals")):
            count = len(ref.findall(text))
            if count == 1:
                text = ref.sub(full, text)
            elif count:
                text = f"    {alias} = {full}\n{text}"
        return f"def {signature}:\n{text}\n"

    def body(self, row: Row, names: dict, push) -> None:
        """The row's statements, then its outputs through
        ``push(expr, depth)``, inside the row's ``catch``."""
        for line in row.body:
            line = self.sub(line, names)
            target, _, rhs = line.partition(" = ")
            match = _INT32.fullmatch(rhs)
            if line.startswith("if "):
                head, action = line.split(": ", 1)
                self.emit(head + ":")
                self.slow(action, 1)
            elif match:
                self.int32(target, match.group(1), 0)
            else:
                self.emit(line)
        depth = 1 if row.catch else 0
        if row.catch:
            self.emit("try:")
        for template in row.out:
            expr = self.sub(template, names)
            match = _INT32.fullmatch(expr)
            if match:
                expr = self.temp()
                self.int32(expr, match.group(1), depth)
            push(expr, depth)
        if row.catch:
            exc, action = row.catch
            self.emit(f"except {exc}:")
            self.slow(self.sub(action, names), 1)


def _render_handler(row: Row, fname: str, cmp=None) -> str:
    """``def fname(thread, frame, arg)`` for one row (and comparison)."""
    em = Emitter()
    param = row.operands[0] if len(row.operands) == 1 else "arg"
    if len(row.operands) > 1:
        em.emit(f"{', '.join(row.operands)} = arg")
    names = em.names(row, row.operands, cmp)
    text = " ".join(row.body + row.out + (row.cond or "",)
                    + (row.catch or ()))
    if len(row.ins) == 1 and text.count(f"{{{row.ins[0]}}}") <= 1:
        # A single-use input is popped where it is used.
        names[row.ins[0]] = "S.pop()"
        if f"{{{row.ins[0]}}}" not in text:
            em.emit("S.pop()")
    else:
        for x in reversed(row.ins):
            em.emit(f"{x} = S.pop()")
            names[x] = x
    em.body(row, names,
            lambda expr, depth: em.emit(f"S.append({expr})", depth))
    if row.heavy:
        em.emit(f"heavy.n += {row.heavy}")
    if not row.branch:
        em.emit("frame.pc += 1")
    elif row.cond is None:
        em.emit(f"frame.pc = {param}")
    else:
        em.emit(f"frame.pc = {param} if {em.sub(row.cond, names)} "
                f"else frame.pc + 1")
    return em.function(f"{fname}(thread, frame, {param})")


#: Every name :func:`environment` provides, in a fixed order.
_ENV = sorted({h for row in ROWS.values() for h in row.helpers}
              - HELPERS.keys() | {"heavy"})

#: Handler factories by handler key, compiled on first use in the
#: process; an interpreter only calls them.
_FACTORIES: dict = {}


def bind_handler(key, env: dict):
    """One interpreter's handler for ``key``, ``(op, cmp token)``: a
    closure over ``env``.  Its source is rendered and compiled the
    first time any interpreter in the process needs it."""
    factory = _FACTORIES.get(key)
    if factory is None:
        op, cmp = key
        body = _render_handler(ROWS[op], op.name, cmp) + f"return {op.name}\n"
        src = f"def _bind({', '.join(_ENV)}):\n" + "".join(
            "    " + line for line in body.splitlines(True))
        namespace = dict(HELPERS)
        exec(compile(src, f"<{op.value} handler>", "exec"), namespace)
        factory = _FACTORIES[key] = namespace["_bind"]
    return factory(**env)
