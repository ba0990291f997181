"""Bytecode semantics, exercised through small assembled programs.

This is the per-opcode oracle for every execution engine: each program
runs under ``step``, ``slice`` and ``block`` (with the block compiler's
hot threshold at 1, so every eligible straight-line run is compiled
and the generated code — not the interpreting loop — is what executes),
and all three must agree on console output, the full ``uncaught``
tuples, instruction counts and ``heavy_ops`` before a case's
expectation is checked.  The engines are looped inside each test rather
than parametrized so the test ids stay stable.
"""

import pytest

from repro.bytecode.instructions import ExceptionEntry
from repro.classfile.model import JClass, JField
from repro.errors import LinkageError, ReproError
from repro.runtime.jvm import JVMConfig
from tests.util import run_asm_main

ENGINES = ("step", "slice", "block")


def _config(engine):
    return JVMConfig(engine=engine, block_hot_threshold=1,
                     max_instructions=5_000_000)


def _run(body, **kwargs):
    """Run ``body`` under every engine; return the step engine's
    ``(result, jvm, env)`` once all three observed the same thing."""
    runs = {}
    for engine in ENGINES:
        result, jvm, env = run_asm_main(body, config=_config(engine),
                                        **kwargs)
        runs[engine] = (result, jvm, env, (
            result.ok, list(result.uncaught), env.console.lines(),
            result.instructions, jvm.heavy_ops,
        ))
    for engine in ENGINES[1:]:
        assert runs[engine][3] == runs["step"][3], engine
    assert runs["block"][1].interpreter.blocks_compiled > 0
    return runs["step"][:3]


def _out(body, max_locals=4, **kwargs):
    result, jvm, env = _run(body, max_locals=max_locals, **kwargs)
    assert result.ok, result.uncaught
    return env.console.lines()


def _uncaught(body, **kwargs):
    result, _, _ = _run(body, **kwargs)
    return result.uncaught


def _print_int(expr_asm):
    return _out(f"{expr_asm}\ni2s\ninvokestatic System.println/1/0\nreturn\n")


def _print_float(expr_asm):
    return _out(f"{expr_asm}\nf2s\ninvokestatic System.println/1/0\nreturn\n")


def test_int_arithmetic():
    assert _print_int("iconst 7\niconst 3\niadd") == ["10"]
    assert _print_int("iconst 7\niconst 3\nisub") == ["4"]
    assert _print_int("iconst 7\niconst 3\nimul") == ["21"]
    assert _print_int("iconst 7\niconst 3\nidiv") == ["2"]
    assert _print_int("iconst 7\niconst 3\nirem") == ["1"]
    assert _print_int("iconst 7\nineg") == ["-7"]


def test_int_division_truncates_toward_zero():
    assert _print_int("iconst -2147483648\niconst -1\nidiv") == [
        "-2147483648"]
    assert _print_int("iconst -7\niconst 2\nidiv") == ["-3"]
    assert _print_int("iconst 7\niconst -2\nidiv") == ["-3"]
    assert _print_int("iconst -7\niconst 2\nirem") == ["-1"]
    assert _print_int("iconst 7\niconst -2\nirem") == ["1"]
    assert _print_int("iconst -2147483648\niconst -1\nirem") == ["0"]


def test_int_overflow_wraps():
    assert _print_int("iconst 2147483647\niconst 1\niadd") == ["-2147483648"]
    assert _print_int("iconst -2147483648\niconst 1\nisub") == ["2147483647"]
    assert _print_int("iconst 65536\niconst 65536\nimul") == ["0"]
    assert _print_int("iconst 123456789\niconst 1000\nimul") == [
        "-1097262584"]
    assert _print_int("iconst -2147483648\nineg") == ["-2147483648"]
    assert _out("""
        iconst 2147483647
        store 0
        iinc 0 1
        load 0
        i2s
        invokestatic System.println/1/0
        return
    """) == ["-2147483648"]


def test_bitwise_ops():
    assert _print_int("iconst 12\niconst 10\niand") == ["8"]
    assert _print_int("iconst 12\niconst 10\nior") == ["14"]
    assert _print_int("iconst 12\niconst 10\nixor") == ["6"]
    assert _print_int("iconst 1\niconst 4\nishl") == ["16"]
    assert _print_int("iconst -8\niconst 1\nishr") == ["-4"]
    assert _print_int("iconst -1\niconst 28\niushr") == ["15"]


def test_shift_counts_are_masked_to_five_bits():
    assert _print_int("iconst 1\niconst 33\nishl") == ["2"]
    assert _print_int("iconst 1\niconst 31\nishl") == ["-2147483648"]
    assert _print_int("iconst -8\niconst 33\nishr") == ["-4"]
    assert _print_int("iconst -1\niconst 60\niushr") == ["15"]
    assert _print_int("iconst 5\niconst 32\nishl") == ["5"]


def test_iushr_of_negative_is_logical():
    assert _print_int("iconst -8\niconst 1\niushr") == ["2147483644"]
    assert _print_int("iconst -1\niconst 0\niushr") == ["-1"]


def test_float_arithmetic_and_conversions():
    assert _out("""
        fconst 2.5
        fconst 1.5
        fadd
        f2i
        i2s
        invokestatic System.println/1/0
        iconst 3
        i2f
        fconst 2.0
        fdiv
        f2s
        invokestatic System.println/1/0
        return
    """) == ["4", "1.5"]


def test_float_div_by_zero_is_infinite_not_trap():
    assert _print_float("fconst 1.0\nfconst 0.0\nfdiv") == ["inf"]
    assert _print_float("fconst -1.0\nfconst 0.0\nfdiv") == ["-inf"]
    assert _print_float("fconst 0.0\nfconst 0.0\nfdiv") == ["nan"]


def test_string_ops():
    assert _out("""
        sconst "foo"
        sconst "bar"
        sconcat
        invokestatic System.println/1/0
        sconst "42"
        s2i
        iconst 1
        iadd
        i2s
        invokestatic System.println/1/0
        return
    """) == ["foobar", "43"]


def test_s2i_failure_raises_java_exception():
    assert _uncaught('sconst "nope"\ns2i\npop\nreturn') == [
        ("t0", "NumberFormatException", "for input string: 'nope'")]


def test_s2i_wraps_out_of_range_text():
    assert _print_int('sconst " 2147483648 "\ns2i') == ["-2147483648"]


def test_locals_and_iinc():
    assert _out("""
        iconst 5
        store 0
        iinc 0 3
        load 0
        i2s
        invokestatic System.println/1/0
        return
    """) == ["8"]


def test_stack_manipulation():
    assert _print_int("iconst 1\niconst 2\nswap\nisub") == ["1"]
    assert _print_int("iconst 3\ndup\nimul") == ["9"]
    # dup_x1: [a b] -> [b a b]
    assert _out("""
        iconst 2
        iconst 5
        dup_x1
        pop
        pop
        i2s
        invokestatic System.println/1/0
        return
    """) == ["5"]


def test_conditionals():
    assert _out("""
        iconst 1
        if ne yes
        sconst "no"
        goto done
      yes:
        sconst "yes"
      done:
        invokestatic System.println/1/0
        return
    """) == ["yes"]


def test_null_checks_raise_npe():
    for body, what in (
        ("aconst_null\ngetfield x\npop\nreturn", "getfield x"),
        ("aconst_null\niconst 1\nputfield x\nreturn", "putfield x"),
        ("aconst_null\narraylength\npop\nreturn", "arraylength"),
        ("aconst_null\niconst 0\narrload\npop\nreturn", "arrload"),
        ("aconst_null\niconst 0\niconst 0\narrstore\nreturn", "arrstore"),
        ("iconst 7\naconst_null\nmonitorenter\nreturn", "monitorenter"),
    ):
        assert _uncaught(body) == [("t0", "NullPointerException", what)], body


def test_div_by_zero():
    for op in ("idiv", "irem"):
        assert _uncaught(f"iconst 1\niconst 0\n{op}\npop\nreturn") == [
            ("t0", "ArithmeticException", "/ by zero")]


def test_arrays():
    assert _out("""
        iconst 3
        newarray int
        store 0
        load 0
        iconst 1
        iconst 42
        arrstore
        load 0
        iconst 1
        arrload
        i2s
        invokestatic System.println/1/0
        load 0
        arraylength
        i2s
        invokestatic System.println/1/0
        return
    """) == ["42", "3"]


def test_array_defaults():
    assert _out("""
        iconst 2
        newarray str
        iconst 0
        arrload
        sconst "<empty>"
        sconcat
        invokestatic System.println/1/0
        return
    """) == ["<empty>"]


def test_array_index_out_of_bounds():
    assert _uncaught("""
        iconst 2
        newarray int
        iconst 5
        arrload
        pop
        return
    """) == [("t0", "ArrayIndexOutOfBoundsException",
              "index 5 out of bounds for length 2")]
    assert _uncaught("""
        iconst 2
        newarray int
        iconst -1
        iconst 9
        arrstore
        return
    """) == [("t0", "ArrayIndexOutOfBoundsException",
              "index -1 out of bounds for length 2")]


def test_negative_array_size():
    assert _uncaught("iconst -1\nnewarray int\npop\nreturn") == [
        ("t0", "NegativeArraySizeException", "-1")]


def _box():
    box = JClass("Box", "Object")
    box.add_field(JField("value", "int"))
    return box


def test_new_object_and_fields():
    assert _out("""
        new Box
        store 0
        load 0
        iconst 99
        putfield value
        load 0
        getfield value
        i2s
        invokestatic System.println/1/0
        return
    """, extra_classes=[_box()]) == ["99"]


def test_field_write_survives_a_caught_fault_later_in_the_run():
    """A putfield and a faulting arrload in one straight-line run (one
    compiled block under ``block``), caught by a handler in the same
    frame: the write before the fault is kept, the handler sees the
    exception's message, and the ops after the fault never ran."""
    body = """
        new Box
        store 0
        iconst 2
        newarray int
        store 1
        load 0
        iconst 7
        putfield value
        load 1
        iconst 5
        arrload
        store 2
        load 0
        iconst 8
        putfield value
        return
      handler:
        getfield message
        invokestatic System.println/1/0
        load 0
        getfield value
        i2s
        invokestatic System.println/1/0
        return
    """
    result, _, env = _run(body, extra_classes=[_box()],
                          exception_table=[ExceptionEntry(0, 15, 16, "*")])
    assert result.ok, result.uncaught
    assert env.console.lines() == ["index 5 out of bounds for length 2", "7"]


def test_getfield_unknown_field_is_internal_error():
    for engine in ENGINES:
        with pytest.raises(LinkageError):
            run_asm_main("""
                new Object
                dup
                invokespecial Object.<init>/0/0
                getfield ghost
                pop
                return
            """, config=_config(engine))


def test_instanceof_and_checkcast():
    assert _out("""
        new Thread
        instanceof Object
        i2s
        invokestatic System.println/1/0
        new Object
        instanceof Thread
        i2s
        invokestatic System.println/1/0
        aconst_null
        instanceof Object
        i2s
        invokestatic System.println/1/0
        return
    """) == ["1", "0", "0"]


def test_checkcast_failure():
    # The oid is deterministic: the boot allocates in a fixed order.
    assert _uncaught("""
        new Object
        checkcast Thread
        pop
        return
    """) == [("t0", "ClassCastException",
              "<Object#32> cannot be cast to Thread")]


def test_checkcast_null_passes():
    result, _, _ = _run("aconst_null\ncheckcast Thread\npop\nreturn")
    assert result.ok


def test_operand_stack_underflow_caught_by_verifier():
    # The verifier rejects underflowing bodies before they can run.
    with pytest.raises(ReproError, match="pops 1"):
        run_asm_main("pop\nreturn")
