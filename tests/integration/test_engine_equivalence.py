"""Differential tests: the fast path must be observationally identical
to single-step execution.

The batched engine is only admissible because every replication-
relevant observation point (progress points, shipped logs, state
digests, console output) happens at safe-point events the fast path
still honors one at a time.  These tests enforce that claim across:

* every harness workload (test profile), unreplicated;
* per-slice ``(vid, progress_point, reason)`` trajectories;
* replicated primaries under both strategies — byte-identical shipped
  logs;
* random MiniJava programs (Hypothesis);
* random straight-line bytecode ending in a fusable branch, faulting
  inputs included (Hypothesis) — the opcode table's handler and block
  renderings against each other, op by op.

The ``block`` engine (superinstruction compiler) rides the same sweep:
its hot threshold is forced to 1 in these tests so every eligible
basic block actually compiles, making the compiled path — deferred
instruction accounting, branch fusion, block chaining — the path under
test rather than a cold fallback to the slice loop.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.classfile.model import JClass, JField
from repro.conform.workloads import get_workload, workload_names
from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.runtime.jvm import JVM, JVMConfig, RunHooks
from repro.runtime.stdlib import default_natives
from repro.workloads import ALL_WORKLOADS
from tests.minijava.test_compiler_properties import bool_exprs, int_exprs
from tests.util import run_asm_main

ENGINES = ("step", "slice", "block")


def _config(engine, base=None):
    """A JVMConfig for one engine; block compiles everything hot."""
    config = dataclasses.replace(base, engine=engine) if base is not None \
        else JVMConfig(engine=engine)
    if engine == "block":
        config.block_hot_threshold = 1
    return config


def _observe(result, jvm, env):
    """Everything the replication layer could tell two runs apart by."""
    return {
        "digest": jvm.state_digest(),
        "instructions": result.instructions,
        "reschedules": result.reschedules,
        "uncaught": list(result.uncaught),
        "transcript": env.console.transcript(),
        "threads": sorted(
            (t.vid, t.br_cnt, t.mon_cnt, t.instructions)
            for t in jvm.scheduler.threads
        ),
    }


# ----------------------------------------------------------------------
# Harness workloads, unreplicated
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_workload_equivalence(workload):
    registry = workload.compile("test")
    observed = {}
    for engine in ENGINES:
        env = Environment()
        workload.prepare_env(env, "test")
        result, jvm = run_unreplicated(
            registry, workload.main_class,
            env=env, jvm_config=_config(engine),
        )
        observed[engine] = _observe(result, jvm, env)
    for engine in ENGINES[1:]:
        assert observed["step"] == observed[engine], engine


# ----------------------------------------------------------------------
# Slice-end trajectories
# ----------------------------------------------------------------------
class _Recorder(RunHooks):
    def __init__(self):
        self.events = []

    def on_slice_end(self, jvm, thread, reason):
        self.events.append((thread.vid, thread.progress_point(), reason))


def test_slice_end_trajectories_match():
    """Every descheduling decision lands on the same ``(br_cnt, pc,
    mon_cnt)`` point for the same reason under both engines — the
    property replicated thread scheduling relies on."""
    workload = get_workload("counter")
    trajectories = {}
    for engine in ENGINES:
        env = Environment()
        jvm = JVM(
            workload.registry(), default_natives(), env.attach("traj"),
            _config(engine, workload.jvm_config(engine)),
        )
        recorder = _Recorder()
        jvm.run_hooks = recorder
        result = jvm.run(workload.main_class)
        assert result.ok, result.uncaught
        trajectories[engine] = recorder.events
    for engine in ENGINES[1:]:
        assert trajectories["step"] == trajectories[engine], engine
    assert len(trajectories["step"]) > 1  # actually multi-slice


# ----------------------------------------------------------------------
# Replicated primaries: shipped logs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_name", sorted(workload_names()))
@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_replicated_shipped_logs_identical(workload_name, strategy):
    workload = get_workload(workload_name)
    observed = {}
    for engine in ENGINES:
        machine = ReplicatedJVM(
            workload.registry(), env=Environment(),
            config=ReplicationConfig(
                strategy=strategy,
                jvm_config=_config(engine, workload.jvm_config(engine)),
            ),
        )
        result = machine.run(workload.main_class)
        assert result.outcome == "primary_completed", result.outcome
        observed[engine] = {
            "delivered": list(machine.transport.delivered),
            "digest": machine.primary_jvm.state_digest(),
            "stable": machine.env.snapshot_stable(),
            "records": machine.primary_metrics.records_logged,
        }
    for engine in ENGINES[1:]:
        assert observed["step"] == observed[engine], engine


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(cond=bool_exprs(), hit=int_exprs(), miss=int_exprs(),
       reps=st.integers(1, 8))
def test_random_programs_equivalent(cond, hit, miss, reps):
    source = """
        class Main {
            static void main(String[] args) {
                int acc = 0;
                for (int i = 0; i < %d; i++) {
                    if (%s) { acc = acc + %s; } else { acc = acc - %s; }
                }
                System.println(acc);
            }
        }
    """ % (reps, cond.text, hit.text, miss.text)
    registry = compile_program(source)
    observed = {}
    for engine in ENGINES:
        env = Environment()
        result, jvm = run_unreplicated(
            registry, "Main", env=env, jvm_config=_config(engine),
        )
        observed[engine] = _observe(result, jvm, env)
    for engine in ENGINES[1:]:
        assert observed["step"] == observed[engine], engine


# ----------------------------------------------------------------------
# Random straight-line bytecode: the opcode semantics, op by op
# ----------------------------------------------------------------------
# Stack kinds: I int, F finite float, G float that may be inf/nan, S
# string, B Box-or-null, A int-array-or-null, N the null literal.  An
# input pattern letter accepts: I/S exactly, F any float, B/A that
# kind or N, R any reference, X anything.
_INT_VALUES = (0, 1, -1, 2, 7, -7, 31, 32, 33, 2**31 - 1, -2**31)
_FLOAT_VALUES = (0.0, -1.0, 1.5, 2.0)
_STRINGS = ("12", " -3 ", "nope", "2147483648", "")
_REFS = "BAN"

#: (assembly, input pattern bottom..top, output kinds).  ``newarray``
#: only ever sees a small literal size, so no run allocates gigabytes.
_STRAIGHT_OPS = (
    [(f"{op}", "II", "I") for op in (
        "iadd", "isub", "imul", "idiv", "irem", "ishl", "ishr", "iushr",
        "iand", "ior", "ixor")]
    + [(f"{op}", "FF", "F") for op in ("fadd", "fsub", "fmul", "fdiv")]
    + [
        ("ineg", "I", "I"), ("fneg", "F", "F"), ("i2f", "I", "F"),
        ("f2i", "F", "I"), ("i2s", "I", "S"), ("f2s", "F", "S"),
        ("s2i", "S", "I"), ("sconcat", "SS", "S"), ("nop", "", ""),
        ("aconst_null", "", "N"), ("new Box", "", "B"),
        ("getfield value", "B", "I"), ("putfield value", "BI", ""),
        ("arrload", "AI", "I"), ("arrstore", "AII", ""),
        ("arraylength", "A", "I"), ("instanceof Box", "R", "I"),
        ("checkcast Box", "R", None),
        ("getstatic Cell n", "", "I"), ("putstatic Cell n", "I", ""),
        ("getstatic Cell box", "", "B"), ("putstatic Cell box", "B", ""),
        ("getstatic Cell arr", "", "A"), ("putstatic Cell arr", "A", ""),
        ("pop", "X", ""), ("dup", "X", None), ("swap", "XX", None),
        ("dup_x1", "XX", None),
        # Faulting inputs, made as likely as any single op.
        ("iconst 0\nidiv", "I", "I"), ("iconst 0\nirem", "I", "I"),
        ('sconst "nope"\ns2i', "", "I"), ("iconst 5\narrload", "A", "I"),
    ]
)

_BRANCHES = (
    ("goto", ""), ("if {cmp}", "I"), ("if_icmp {cmp}", "II"),
    ("if_fcmp {cmp}", "FF"), ("if_scmp {cmp}", "SS"), ("if_null", "R"),
    ("if_nonnull", "R"), ("if_acmp_eq", "RR"), ("if_acmp_ne", "RR"),
)


def _accepts(letter, kind):
    if letter == "X":
        return True
    if letter == "F":
        return kind in "FG"
    if letter == "R":
        return kind in _REFS
    if letter in "BA":
        return kind in (letter, "N")
    return kind == letter


def _fits(pattern, stack):
    return len(stack) >= len(pattern) and all(
        _accepts(letter, kind)
        for letter, kind in zip(pattern, stack[len(stack) - len(pattern):])
    )


def _to_string(kind):
    """Assembly turning a stack value of ``kind`` into a printable str."""
    return {"I": "i2s", "F": "f2s", "G": "f2s", "S": "nop"}.get(
        kind, "instanceof Box\ni2s")


@st.composite
def straight_line_programs(draw):
    """A stack-typed straight-line run of plain ops ending in a fusable
    branch (verifier-valid by construction), followed by code printing
    which way the branch went and every value still live."""
    lines = ["new Box", "putstatic Cell box", "iconst 3", "newarray int",
             "putstatic Cell arr"]
    stack, local_kinds = [], {}
    for _ in range(draw(st.integers(0, 16))):
        choices = [("const",), ("load",), ("store",), ("iinc",),
                   ("newarray",)]
        choices += [entry for entry in _STRAIGHT_OPS
                    if _fits(entry[1], stack)
                    and not (entry[0] == "f2i" and stack[-1] == "G")]
        choice = draw(st.sampled_from(choices))
        if choice == ("const",):
            kind = draw(st.sampled_from("IFS"))
            values = {"I": _INT_VALUES, "F": _FLOAT_VALUES, "S": _STRINGS}
            value = draw(st.sampled_from(values[kind]))
            mnemonic = {"I": "iconst", "F": "fconst", "S": "sconst"}[kind]
            lines.append(f"{mnemonic} {value!r}".replace("'", '"'))
            stack.append(kind)
        elif choice == ("newarray",):
            size = draw(st.sampled_from((-1, 0, 2)))
            lines += [f"iconst {size}", "newarray int"]
            stack.append("A")
        elif choice == ("load",):
            if local_kinds:
                slot = draw(st.sampled_from(sorted(local_kinds)))
                lines.append(f"load {slot}")
                stack.append(local_kinds[slot])
        elif choice == ("store",):
            if stack:
                slot = draw(st.integers(0, 3))
                lines.append(f"store {slot}")
                local_kinds[slot] = stack.pop()
        elif choice == ("iinc",):
            ints = sorted(s for s, k in local_kinds.items() if k == "I")
            if ints:
                delta = draw(st.sampled_from((1, -1, 2**31 - 1)))
                lines.append(f"iinc {draw(st.sampled_from(ints))} {delta}")
        else:
            asm, pattern, outs = choice
            ins = [stack.pop() for _ in pattern][::-1]
            if outs is None:        # stack shuffles and checkcast
                outs = (ins * 2 if asm == "dup" else ins[::-1]
                        if asm == "swap" else ins[1:] + ins
                        if asm == "dup_x1" else ins)
            elif outs == "F" and ("G" in ins or asm == "fdiv"):
                outs = "G"
            lines.append(asm)
            stack.extend(outs)
    asm, pattern = draw(st.sampled_from(
        [b for b in _BRANCHES if _fits(b[1], stack)]))
    del stack[len(stack) - len(pattern):]
    cmp = draw(st.sampled_from(("eq", "ne", "lt", "le", "gt", "ge")))
    lines += [asm.format(cmp=cmp) + " taken", 'sconst "F"', "goto out",
              "taken:", 'sconst "T"', "out:",
              "invokestatic System.println/1/0"]
    for kind in reversed(stack):
        lines += [_to_string(kind), "invokestatic System.println/1/0"]
    for slot, kind in sorted(local_kinds.items()):
        lines += [f"load {slot}", _to_string(kind),
                  "invokestatic System.println/1/0"]
    lines += ["getstatic Cell n", "i2s", "invokestatic System.println/1/0",
              "return"]
    return "\n".join(lines)


def _straight_line_classes():
    box = JClass("Box", "Object")
    box.add_field(JField("value", "int"))
    cell = JClass("Cell", "Object")
    for name, kind in (("n", "int"), ("box", "ref"), ("arr", "ref")):
        cell.add_field(JField(name, kind, is_static=True))
    return [box, cell]


@settings(max_examples=80, deadline=None)
@given(body=straight_line_programs())
def test_random_straight_line_bytecode_equivalent(body):
    observed = {}
    for engine in ENGINES:
        result, jvm, env = run_asm_main(
            body, extra_classes=_straight_line_classes(),
            config=_config(engine),
        )
        observed[engine] = dict(_observe(result, jvm, env),
                                heavy_ops=jvm.heavy_ops)
    for engine in ENGINES[1:]:
        assert observed["step"] == observed[engine], engine
