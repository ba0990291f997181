"""clone() must not leak run state between sweep iterations: fresh
side-effect handlers, fresh fault counters, identical metrics."""

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.minijava.extensions import NativeClassSpec, NativeMethodSpec
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.sehandlers import SideEffectHandler
from repro.replication.transport import FaultyTransport
from repro.runtime.natives import NativeSpec
from repro.runtime.stdlib import build_natives

PRINTER = """
class Main {
    static void main() {
        int i = 0;
        while (i < 3) { System.println("n=" + i); i = i + 1; }
    }
}
"""


def test_clone_twice_and_diff_metrics():
    """Two clones of one template run identically: every counter in
    the primary and backup metrics matches — nothing carried over."""
    template = ReplicatedJVM(compile_program(PRINTER), env=Environment(),
                             config=ReplicationConfig(
                                 strategy="thread_sched",
                                 crash_at=4))
    runs = []
    for _ in range(2):
        machine = template.clone()
        result = machine.run("Main")
        assert result.failed_over
        runs.append(machine)
    first, second = runs
    assert first.primary_metrics.as_dict() == second.primary_metrics.as_dict()
    assert first.backup_metrics.as_dict() == second.backup_metrics.as_dict()
    assert first.env.console.lines() == second.env.console.lines()


def test_clone_gets_fresh_side_effect_handlers():
    """A stateful custom handler must not be shared with the clone —
    state it accumulated in one run would corrupt the next."""

    class StickyHandler(SideEffectHandler):
        name = "sticky"

        def __init__(self):
            self.log_calls = 0

        def log(self, session, spec, receiver, args, outcome):
            self.log_calls += 1
            return {"n": self.log_calls}

    handler = StickyHandler()
    template = ReplicatedJVM(compile_program(PRINTER), env=Environment(),
                             config=ReplicationConfig(se_handlers=[handler]))
    clone = template.clone()
    cloned_handler = clone._extra_se_handlers[0]
    assert isinstance(cloned_handler, StickyHandler)
    assert cloned_handler is not handler
    handler.log_calls = 99
    assert cloned_handler.log_calls != 99


def test_cloned_handlers_give_identical_sweep_outcomes():
    """End-to-end: a custom output native plus handler behaves the same
    in back-to-back cloned runs (the regression the leak would break)."""

    class BeepHandler(SideEffectHandler):
        name = "beeper"

        def log(self, session, spec, receiver, args, outcome):
            return {"op": "beep", "count": args[0]}

        def receive(self, state, payload):
            state["beeps"] = state.get("beeps", 0) + payload["count"]

        def test(self, env, state, spec, args):
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
    source = """
        class Main {
            static void main() { Beeper.beep(2); Beeper.beep(3); }
        }
    """
    beeper = NativeClassSpec("Beeper", methods=(
        NativeMethodSpec("beep", ("int",), "void"),
    ))
    registry = compile_program(source, native_classes=[beeper])
    template = ReplicatedJVM(registry, natives=natives, env=Environment(),
                             config=ReplicationConfig(
                                 se_handlers=[BeepHandler()],
                                 crash_at=6))
    for _ in range(3):
        machine = template.clone()
        machine.run("Main")
        assert machine.env.fs.contents("beeps.txt") == "!" * 5


def test_clone_resets_fault_counters():
    """A clone of a machine whose faulty transport dropped and
    retransmitted messages starts with zeroed transport stats and
    metrics."""
    template = ReplicatedJVM(
        compile_program(PRINTER), env=Environment(),
        config=ReplicationConfig(
            transport=lambda: FaultyTransport(seed=99, drop_rate=0.3),
        ),
    )
    template.run("Main")
    stats = template.transport.stats
    assert stats.heartbeats_sent > 0

    clone = template.clone()
    fresh = clone.transport.stats
    assert clone.transport is not template.transport
    assert fresh.heartbeats_sent == 0
    assert fresh.acks_delivered == 0
    assert fresh.retransmits == 0
    assert fresh.messages_dropped == 0
    assert clone.primary_metrics.retransmits == 0
    assert clone.shipper is None      # no run yet, no injector events
    result = clone.run("Main")
    assert result.outcome == "primary_completed"


def test_clone_of_faulty_transport_instance_keeps_fault_schedule():
    """Cloning a machine built around a transport *instance* rebuilds
    an identically-seeded transport: same profile, same seed, zero
    accumulated counters — so sweeps are reproducible."""
    transport = FaultyTransport(seed=1234, drop_rate=0.5)
    template = ReplicatedJVM(compile_program(PRINTER), env=Environment(),
                             config=ReplicationConfig(transport=transport))
    template.run("Main")
    assert template.transport.stats.messages_dropped > 0

    clone = template.clone()
    assert clone.transport.seed == 1234
    assert clone.transport.profile == transport.profile
    assert clone.transport.stats.messages_dropped == 0
    clone.run("Main")
    assert (clone.transport.stats.messages_dropped
            == template.transport.stats.messages_dropped)
