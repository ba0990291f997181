"""ReplicatedJVM facade: configuration, custom handlers, edge cases."""

import pytest

from repro.env.environment import Environment
from repro.errors import AlreadyRanError, ReplicationError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import (
    ReplicaSettings,
    ReplicatedJVM,
    parse_log,
)
from repro.replication.records import IdMap, encode
from repro.replication.sehandlers import SideEffectHandler
from repro.runtime.natives import NativeSpec
from repro.runtime.stdlib import build_natives

TRIVIAL = "class Main { static void main(String[] args) { } }"


def test_unknown_strategy_rejected():
    with pytest.raises(ReplicationError, match="unknown strategy"):
        ReplicatedJVM(compile_program(TRIVIAL),
                      config=ReplicationConfig(strategy="quantum"))


def test_parse_log_partitions_by_kind():
    parsed = parse_log([encode(IdMap(1, (0,), 1))])
    assert parsed.total == 1
    assert parsed.id_maps == [IdMap(1, (0,), 1)]
    assert parsed.lock_acqs == []


def test_failover_with_empty_log_is_a_fresh_run():
    """Crash before anything was flushed: the backup starts from the
    initial state and simply runs the program."""
    source = """
        class Main {
            static void main(String[] args) { System.println("once"); }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(crash_at=1))
    result = machine.run("Main")
    assert result.failed_over
    assert env.console.lines() == ["once"]
    assert machine.backup_metrics.records_replayed == 0


def test_replica_settings_are_visible_per_session():
    env = Environment()
    machine = ReplicatedJVM(compile_program(TRIVIAL), env=env,
                            config=ReplicationConfig(
                                primary=ReplicaSettings(1, 0, 10),
                                backup=ReplicaSettings(2, 999, 20),
                                crash_at=None))
    machine.run("Main")
    assert machine.primary_jvm.config.scheduler_seed == 1
    machine.replay_backup("Main")
    assert machine.backup_jvm.config.scheduler_seed == 2


def test_detector_timeout_configurable():
    env = Environment()
    source = """
        class Main {
            static void main(String[] args) { System.println("x"); }
        }
    """
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                crash_at=1,
                                detector_timeout=7))
    result = machine.run("Main")
    assert result.detection_intervals == 7


def test_custom_application_side_effect_handler():
    """The paper: 'Applications can incorporate their own handlers
    using the same functions.'  A custom native with a custom handler
    participates in exactly-once recovery."""

    class BeepHandler(SideEffectHandler):
        name = "beeper"

        def log(self, session, spec, receiver, args, outcome):
            return {"op": "beep", "count": args[0]}

        def receive(self, state, payload):
            state["beeps"] = state.get("beeps", 0) + payload["count"]

        def test(self, env, state, spec, args):
            # Beeps are written to a file named beeps.txt, one '!' each.
            expected = state.get("beeps", 0) + args[0]
            return (env.fs.exists("beeps.txt")
                    and len(env.fs.contents("beeps.txt")) >= expected)

    def beep_impl(ctx, receiver, args):
        session = ctx.output_target()
        current = (session.env.fs.contents("beeps.txt")
                   if session.env.fs.exists("beeps.txt") else "")
        session.env.fs.put("beeps.txt", current + "!" * args[0])
        return None

    natives = build_natives()
    natives.register(NativeSpec(
        "Beeper.beep/1", beep_impl,
        is_output=True, testable=True, se_handler="beeper",
    ))

    from repro.minijava.extensions import NativeClassSpec, NativeMethodSpec

    source = """
        class Main {
            static void main(String[] args) {
                Beeper.beep(3);
                Beeper.beep(2);
            }
        }
    """
    beeper_class = NativeClassSpec("Beeper", methods=(
        NativeMethodSpec("beep", ("int",), "void"),
    ))

    def build_registry():
        return compile_program(source, native_classes=[beeper_class])

    # Sweep all crash points: beeps land exactly once.
    env0 = Environment()
    m0 = ReplicatedJVM(build_registry(), natives=natives, env=env0,
                       config=ReplicationConfig(se_handlers=[BeepHandler()]))
    m0.run("Main")
    assert env0.fs.contents("beeps.txt") == "!" * 5
    events = m0.shipper.injector.events

    for crash_at in range(1, events + 1):
        env = Environment()
        machine = ReplicatedJVM(build_registry(), natives=natives, env=env,
                                config=ReplicationConfig(
                                    se_handlers=[BeepHandler()],
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.fs.contents("beeps.txt") == "!" * 5, crash_at


# ======================================================================
# Lifecycle: one machine, one run; clone() for the next one
# ======================================================================
PRINTER = """
class Main {
    static void main(String[] args) {
        for (int i = 0; i < 3; i++) { System.println("n=" + i); }
    }
}
"""


def test_second_run_raises_already_ran():
    machine = ReplicatedJVM(compile_program(PRINTER), env=Environment())
    machine.run("Main")
    with pytest.raises(AlreadyRanError, match="clone"):
        machine.run("Main")


def test_already_ran_is_a_replication_error():
    assert issubclass(AlreadyRanError, ReplicationError)


def test_clone_is_fresh_and_runnable():
    machine = ReplicatedJVM(compile_program(PRINTER), env=Environment())
    first = machine.run("Main")
    clone = machine.clone()
    second = clone.run("Main")
    assert second.outcome == first.outcome
    assert clone.env is not machine.env
    assert clone.env.console.lines() == machine.env.console.lines()
    assert clone.strategy == machine.strategy


def test_clone_overrides_selected_knobs():
    machine = ReplicatedJVM(compile_program(PRINTER), env=Environment(),
                            config=ReplicationConfig(
                                crash_at=None,
                                detector_timeout=3))
    machine.run("Main")
    clone = machine.clone(crash_at=2, detector_timeout=5)
    result = clone.run("Main")
    assert result.failed_over
    assert result.detection_intervals == 5
    assert clone.env.console.lines() == machine.env.console.lines()
    # Untouched knobs carry over.
    later = machine.clone()
    assert later.crash_at is None


def test_clone_before_run_is_allowed():
    machine = ReplicatedJVM(compile_program(PRINTER), env=Environment())
    clone = machine.clone(crash_at=1)
    assert clone.run("Main").failed_over
    assert machine.run("Main").outcome == "primary_completed"
