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
* random MiniJava programs (Hypothesis).

The ``block`` engine (superinstruction compiler) rides the same sweep:
its hot threshold is forced to 1 in these tests so every eligible
basic block actually compiles, making the compiled path — deferred
instruction accounting, branch fusion, block chaining — the path under
test rather than a cold fallback to the slice loop.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.conform.workloads import get_workload, workload_names
from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.runtime.jvm import JVM, JVMConfig, RunHooks
from repro.runtime.stdlib import default_natives
from repro.workloads import ALL_WORKLOADS
from tests.minijava.test_compiler_properties import bool_exprs, int_exprs

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
