"""Fast-path machinery: pre-decoded streams, inline caches, compiled
superinstruction blocks, cache invalidation on class (re)definition,
and step() as a budget-1 slice.

Observational equivalence between the engines is covered by
``tests/integration/test_engine_equivalence.py``; these tests pin the
mechanisms themselves.
"""

import pytest

from repro.bytecode.assembler import assemble
from repro.classfile.model import JClass
from repro.errors import ReproError
from repro.replication.config import ReplicationConfig
from repro.runtime.frames import Frame
from repro.runtime.interpreter import _InvokeSite
from repro.runtime.jvm import JVM, JVMConfig, StepResult
from repro.runtime.scheduler import SliceEnd
from repro.runtime.stdlib import default_natives, new_program_registry
from repro.runtime.threads import JavaThread, ThreadState
from tests.util import run_minijava

_LOOP_SOURCE = """
class Helper {
    int bias;
    Helper(int b) { this.bias = b; }
    int mix(int x) { return x + this.bias; }
}
class Main {
    static void main() {
        Helper h = new Helper(3);
        int acc = 0;
        for (int i = 0; i < 20; i++) { acc = h.mix(acc); }
        System.println("" + acc);
    }
}
"""


def _main_method(jvm):
    return jvm.registry.resolve("Main").methods[("main", 0)]


def _probe_thread(method):
    thread = JavaThread((-1,), None, name="probe", is_system=True)
    thread.frames.append(Frame(method, []))
    thread.state = ThreadState.RUNNABLE
    return thread


# ----------------------------------------------------------------------
# Decoded streams
# ----------------------------------------------------------------------
def test_code_uids_are_unique():
    a = assemble("return\n", max_locals=1)
    b = assemble("return\n", max_locals=1)
    assert a.uid != b.uid


def test_decoded_streams_cached_per_code():
    result, jvm, _ = run_minijava(_LOOP_SOURCE)
    assert result.ok, result.uncaught
    interp = jvm.interpreter
    code = _main_method(jvm).code
    stream = interp._code_cache.get(code.uid)
    assert stream is not None
    assert len(stream) == len(code.instructions)
    # A fresh frame over the same code reuses the cached list: one
    # probe step attaches the identical object, not a re-decode.
    probe = _probe_thread(_main_method(jvm))
    interp.run_slice(probe, budget=1)
    assert probe.frames[-1].decoded is stream


def test_invoke_sites_fill_monomorphically():
    result, jvm, _ = run_minijava(_LOOP_SOURCE)
    assert result.ok
    sites = [
        arg
        for stream in jvm.interpreter._code_cache.values()
        for (_, _, arg) in stream
        if isinstance(arg, _InvokeSite)
    ]
    assert sites
    # The hot virtual call resolved once and stayed cached on the
    # receiver's dynamic class.
    assert any(site.vclass is not None for site in sites)


# ----------------------------------------------------------------------
# Invalidation on (re)definition
# ----------------------------------------------------------------------
def test_registry_version_bumps_on_register():
    registry = new_program_registry()
    before = registry.version
    registry.register(JClass("Extra", "Object"))
    assert registry.version == before + 1
    registry.register(JClass("Extra2", "Object"))
    assert registry.version == before + 2


def test_redefinition_drops_decoded_streams_and_caches():
    result, jvm, _ = run_minijava(_LOOP_SOURCE)
    assert result.ok
    interp = jvm.interpreter
    method = _main_method(jvm)
    old_stream = interp._code_cache[method.code.uid]

    # A lingering frame holding a cached stream, as a restored replica
    # or a descheduled thread would have.
    scheduler_thread = jvm.scheduler.threads[0]
    frame = Frame(method, [])
    frame.decoded = old_stream
    scheduler_thread.frames.append(frame)

    jvm.registry.register(JClass("Extra", "Object"))
    assert interp._registry_version != jvm.registry.version

    # The next slice entry notices the version bump and rebuilds.
    end = interp.run_slice(_probe_thread(method), budget=1)
    assert end is SliceEnd.BUDGET
    assert frame.decoded is None
    assert interp._registry_version == jvm.registry.version
    rebuilt = interp._code_cache[method.code.uid]
    assert rebuilt is not old_stream

    scheduler_thread.frames.pop()


# ----------------------------------------------------------------------
# Compiled superinstruction blocks
# ----------------------------------------------------------------------
_BLOCK_CONFIG = JVMConfig(engine="block", block_hot_threshold=1)


def test_hot_blocks_compile_and_hit():
    result, jvm, env = run_minijava("""
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 50; i++) { acc = acc + i * 2; }
            System.println("" + acc);
        }
    }
    """, config=_BLOCK_CONFIG)
    assert result.ok, result.uncaught
    assert env.console.lines() == ["2450"]
    interp = jvm.interpreter
    assert interp.blocks_compiled > 0
    assert interp.block_cache_hits > interp.blocks_compiled
    stream = interp._code_cache[_main_method(jvm).code.uid]
    compiled = [b for b in stream.blocks.values() if b]
    assert compiled
    # Every compiled block knows its instruction span for the deferred
    # accounting add at block exit.
    assert all(b.size >= 1 for b in compiled)


def test_cold_blocks_stay_uncompiled_below_threshold():
    _, jvm, _ = run_minijava("""
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 50; i++) { acc = acc + i; }
        }
    }
    """, config=JVMConfig(engine="block", block_hot_threshold=1_000_000))
    assert jvm.interpreter.blocks_compiled == 0
    assert jvm.interpreter.block_cache_hits == 0


def test_redefinition_drops_compiled_blocks_with_streams():
    """A registry-version bump must drop compiled blocks and decoded
    streams *atomically* — a stale block closing over a dead stream
    would execute superseded code."""
    result, jvm, _ = run_minijava(_LOOP_SOURCE, config=_BLOCK_CONFIG)
    assert result.ok
    interp = jvm.interpreter
    assert interp.blocks_compiled > 0
    method = _main_method(jvm)
    old_stream = interp._code_cache[method.code.uid]
    old_blocks = dict(old_stream.blocks)
    assert any(old_blocks.values())

    jvm.registry.register(JClass("Extra", "Object"))
    end = interp.run_slice(_probe_thread(method), budget=1)
    assert end is SliceEnd.BUDGET
    rebuilt = interp._code_cache[method.code.uid]
    assert rebuilt is not old_stream
    # The rebuilt stream carries no compiled block from before the
    # bump — anything in it was compiled fresh against the new stream
    # (the probe step itself re-warms entry 0 at threshold 1).
    for entry, blk in rebuilt.blocks.items():
        assert blk is not old_blocks.get(entry)
    assert rebuilt.blocks.keys() <= {0}


def test_block_counters_flow_into_replication_metrics():
    from repro.env.environment import Environment
    from repro.minijava import compile_program
    from repro.replication.machine import ReplicatedJVM

    registry = compile_program(_LOOP_SOURCE)
    machine = ReplicatedJVM(registry, env=Environment(),
                            config=ReplicationConfig(
                                strategy="thread_sched",
                                jvm_config=_BLOCK_CONFIG))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    metrics = machine.primary_metrics
    assert metrics.engine == "block"
    assert metrics.blocks_compiled > 0
    assert metrics.block_cache_hits > 0
    assert "blocks_compiled" in metrics.as_dict()


# ----------------------------------------------------------------------
# step() over the slice engine
# ----------------------------------------------------------------------
def test_step_executes_exactly_one_instruction():
    result, jvm, _ = run_minijava(_LOOP_SOURCE)
    assert result.ok
    thread = _probe_thread(_main_method(jvm))
    assert jvm.interpreter.step(thread) is StepResult.CONTINUE
    assert thread.instructions == 1
    assert thread.frames  # still mid-method


def test_step_drives_method_to_termination():
    source = """
    class Main {
        static void main() {
            int acc = 0;
            for (int i = 0; i < 5; i++) { acc = acc + i; }
        }
    }
    """
    result, jvm, _ = run_minijava(source)
    assert result.ok
    thread = _probe_thread(_main_method(jvm))
    steps = 0
    while True:
        outcome = jvm.interpreter.step(thread)
        steps += 1
        if outcome is StepResult.TERMINATED:
            break
        assert outcome is StepResult.CONTINUE
        assert steps < 1_000
    assert not thread.frames
    assert thread.instructions == steps


def test_run_slice_budget_exhaustion():
    result, jvm, _ = run_minijava(_LOOP_SOURCE)
    assert result.ok
    thread = _probe_thread(_main_method(jvm))
    end = jvm.interpreter.run_slice(thread, budget=3)
    assert end is SliceEnd.BUDGET
    assert thread.instructions == 3


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------
def test_unknown_engine_rejected():
    from repro.env.environment import Environment
    from repro.minijava import compile_program

    registry = compile_program("class Main { static void main() {} }")
    with pytest.raises(ReproError):
        JVM(registry, default_natives(),
            Environment().attach("t"), JVMConfig(engine="jit"))


@pytest.mark.parametrize("engine", ["step", "slice", "block"])
def test_both_engines_run(engine):
    result, _, env = run_minijava(
        'class Main { static void main() { System.println("hi"); } }',
        config=JVMConfig(engine=engine),
    )
    assert result.ok
    assert env.console.lines() == ["hi"]
