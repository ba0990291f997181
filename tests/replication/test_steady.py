"""Steady-state incremental checkpointing: bounded logs, bounded replay.

The tentpole invariants, at the pair-machine and replica-group levels:

* while the primary is healthy, the retained log is truncated at every
  adopted checkpoint, so its high-water mark stays bounded by the
  emission interval instead of growing with run length;
* a failover replays only the post-checkpoint tail — the promoted
  backup restores the digest-verified basis and consumes the few
  records shipped since, not the whole history;
* exactly-once outputs and final-state equivalence survive a crash at
  any point, including inside a delta emission;
* log truncation never drops records a re-integration transfer still
  needs — the steady emitter only arms after the arm-time transfer is
  fully adopted, and every truncation happens at an adoption boundary.
"""

import pytest

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.fleet.fleet import Fleet
from repro.fleet.traffic import TrafficSpec, generate
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.records import decode_record
from repro.replication.supervisor import ReplicaGroup

MULTI = """
    class W extends Thread {
        static Object lock = new Object();
        static int shared;
        void run() {
            for (int i = 0; i < 100; i++) {
                synchronized (lock) { shared = shared + 1; }
            }
        }
    }
    class Main {
        static void main(String[] args) {
            W a = new W(); W b = new W();
            a.start(); b.start(); a.join(); b.join();
            System.println(W.shared);
        }
    }
"""

ECHO_SERVER = """
class Main {
    static void main(String[] args) {
        boolean run = true;
        int served = 0;
        while (run) {
            String req = Server.recv("req");
            if (req.startsWith("stop")) {
                run = false;
            } else {
                Server.reply(req, "ok:" + req.length());
                served = served + 1;
            }
        }
        System.println("served " + served);
    }
}
"""


@pytest.fixture(scope="module")
def multi_registry():
    return compile_program(MULTI)


@pytest.fixture(scope="module")
def echo_registry():
    return compile_program(ECHO_SERVER)


# ======================================================================
# Pair machine: emission, truncation, bounded replay
# ======================================================================
def test_steady_emissions_truncate_the_log(multi_registry):
    env = Environment()
    machine = ReplicatedJVM(multi_registry, env=env,
                            config=ReplicationConfig(
                                strategy="lock_sync",
                                checkpoint_interval=2))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    assert env.console.lines() == ["200"]
    metrics = machine.primary_metrics
    assert machine._steady.emissions >= 2
    assert metrics.deltas_shipped >= 1          # full first, deltas after
    assert metrics.deltas_composed == metrics.deltas_shipped
    assert metrics.records_truncated > 0
    # Bounded log: the high-water mark must sit well below the total
    # shipped record count (the unbounded baseline).
    assert 0 < metrics.retained_records_max < metrics.records_sent


def test_steady_interval_off_means_no_emissions(multi_registry):
    env = Environment()
    machine = ReplicatedJVM(multi_registry, env=env,
                            config=ReplicationConfig(strategy="lock_sync"))
    machine.run("Main")
    assert machine._steady is None
    metrics = machine.primary_metrics
    assert metrics.deltas_shipped == 0
    assert metrics.records_truncated == 0


def test_steady_failover_replays_only_the_tail(multi_registry):
    """Crash late in the run: without checkpointing the backup would
    replay the entire history; with it, only the retained tail."""
    # Baseline replay size, no checkpointing.
    env = Environment()
    baseline = ReplicatedJVM(multi_registry, env=env,
                             config=ReplicationConfig(
                                 strategy="lock_sync", crash_at=200))
    assert baseline.run("Main").failed_over
    assert env.console.lines() == ["200"]
    unbounded_tail = baseline.backup_metrics.recovery_tail_records

    env = Environment()
    machine = ReplicatedJVM(multi_registry, env=env,
                            config=ReplicationConfig(
                                strategy="lock_sync", crash_at=200,
                                checkpoint_interval=2))
    result = machine.run("Main")
    assert result.failed_over
    assert env.console.lines() == ["200"]
    backup = machine.backup_metrics
    assert backup.checkpoints_restored == 1
    assert backup.recovery_tail_records < unbounded_tail
    assert (backup.recovery_tail_records
            <= machine.primary_metrics.retained_records_max + 32)


@pytest.mark.parametrize("strategy", ["thread_sched", "lock_sync"])
def test_steady_crash_sweep_is_exactly_once(multi_registry, strategy):
    """Crash at a spread of injector events — including indices inside
    delta emissions — and require identical output every time."""
    env = Environment()
    pilot = ReplicatedJVM(multi_registry, env=env,
                          config=ReplicationConfig(
                              strategy=strategy, checkpoint_interval=2))
    pilot.run("Main")
    events = pilot.shipper.injector.events
    assert pilot._steady.emissions >= 2
    stride = max(1, events // 20)
    for crash_at in range(1, events + 1, stride):
        env = Environment()
        machine = pilot.clone(env=env, crash_at=crash_at)
        result = machine.run("Main")
        assert result.failed_over, crash_at
        assert env.console.lines() == ["200"], crash_at


def test_steady_serving_failover_with_bounded_tail(echo_registry):
    env = Environment()
    machine = ReplicatedJVM(echo_registry, env=env,
                            config=ReplicationConfig(
                                checkpoint_interval=3, crash_at=60))
    machine.start_serving("Main", port="req")
    for i in range(12):
        assert machine.serve(f"r{i:02d} get {i}") == \
            f"ok:{len(f'r{i:02d} get {i}')}"
    result = machine.stop_serving("stop now")
    assert result is not None
    assert env.responses.count() == 12
    assert env.responses.duplicates == 0
    assert "served 12" in env.console.transcript()
    backup = machine.backup_metrics
    assert backup.checkpoints_restored == 1
    assert (backup.recovery_tail_records
            <= machine.primary_metrics.retained_records_max + 32)


# ======================================================================
# Configuration surface
# ======================================================================
def test_hot_backup_excludes_steady_checkpointing(multi_registry):
    with pytest.raises(ReplicationError, match="hot_backup"):
        ReplicatedJVM(multi_registry, env=Environment(),
                      config=ReplicationConfig(hot_backup=True,
                                               checkpoint_interval=4))


def test_invalid_interval_is_rejected(multi_registry):
    with pytest.raises(ReplicationError, match="checkpoint_interval"):
        ReplicatedJVM(multi_registry, env=Environment(),
                      config=ReplicationConfig(checkpoint_interval=0))


def test_clone_carries_checkpoint_interval(multi_registry):
    machine = ReplicatedJVM(multi_registry, env=Environment(),
                            config=ReplicationConfig(
                                strategy="lock_sync",
                                checkpoint_interval=2))
    machine.run("Main")
    clone = machine.clone()
    assert clone.checkpoint_interval == 2
    off = machine.clone(checkpoint_interval=None)
    assert off.checkpoint_interval is None
    assert off.run("Main").outcome == "primary_completed"


# ======================================================================
# Replica group: chained crashes, transfer/truncation safety
# ======================================================================
def test_group_steady_survives_chained_crashes(echo_registry):
    env = Environment()
    group = ReplicaGroup(echo_registry, env=env,
                         config=ReplicationConfig(
                             checkpoint_interval=4,
                             crash_schedule={0: 25, 1: 40},
                             max_failures=6))
    group.start_serving("Main", port="req")
    for i in range(20):
        assert group.serve(f"r{i:03d} get {i}") is not None
    result = group.stop_serving("stop")
    assert result.outcome == "completed"
    assert result.failures_survived == 2
    assert env.responses.count() == 20
    assert env.responses.duplicates == 0
    assert "served 20" in env.console.transcript()
    # Every crashed generation had adopted steady checkpoints, and the
    # recoveries they seeded replayed only tails.
    crashed = [r for r in group.reports if r.outcome == "crashed"]
    assert crashed and all(r.steady_checkpoints > 0 for r in crashed)
    for report in group.reports:
        if report.recovery_metrics is not None:
            assert report.recovery_metrics.checkpoints_restored == 1
            assert report.recovery_metrics.recovery_tail_records <= 64


def test_group_truncation_never_races_arm_transfer(multi_registry):
    """Satellite regression: with the most aggressive interval (1) and
    a tiny chunk size, every generation truncates its log constantly —
    yet a crash *inside* the next re-integration transfer must still
    recover, because steady emission only arms after the arm transfer
    is fully adopted and truncation only ever happens at an adoption
    boundary.  A truncation racing the in-flight transfer would tear
    the chunk stream and this chain could not complete."""
    # Generation 1's transfer spans checkpoint_chunks + 1 events.
    env = Environment()
    pilot = ReplicaGroup(multi_registry, env=env,
                         config=ReplicationConfig(
                             strategy="thread_sched",
                             checkpoint_interval=1, chunk_bytes=256,
                             crash_schedule={0: 30}, max_failures=4))
    assert pilot.run("Main").outcome == "completed"
    gen0 = pilot.reports[0]
    gen1 = pilot.reports[1]
    assert gen0.steady_checkpoints > 0
    assert gen0.primary_metrics.records_truncated > 0
    transfer_events = gen1.checkpoint_chunks + 1
    assert transfer_events >= 2

    for crash_at in range(1, transfer_events + 1):
        env = Environment()
        group = ReplicaGroup(multi_registry, env=env,
                             config=ReplicationConfig(
                                 strategy="thread_sched",
                                 checkpoint_interval=1, chunk_bytes=256,
                                 crash_schedule={0: 30, 1: crash_at},
                                 max_failures=4))
        result = group.run("Main")
        assert result.outcome == "completed", crash_at
        assert env.console.lines() == ["200"], crash_at
        assert group.reports[1].outcome == "crashed_in_transfer", crash_at


def test_group_steady_serving_survives_a_crash(echo_registry):
    """The recovery basis is re-armed from the checkpoint stream at
    every adoption; a run that crashes mid-stream and still completes
    recovered from a basis that stream produced."""
    env = Environment()
    group = ReplicaGroup(echo_registry, env=env,
                         config=ReplicationConfig(
                             checkpoint_interval=3,
                             crash_schedule={0: 30}))
    group.start_serving("Main", port="req")
    for i in range(10):
        group.serve(f"r{i:03d} get {i}")
    result = group.stop_serving("stop")
    assert result.outcome == "completed"


def test_steady_basis_does_not_grow_with_requests_served():
    """A shard whose heap stays the same size keeps a basis of the same
    size: the checkpoint carries replica state, not the outside world's
    responses (a basis that copied them grew from 6.6 KB after 200
    requests to 38 KB after 1,400)."""
    fleet = Fleet(1, config=ReplicationConfig(checkpoint_interval=32))
    group = fleet.groups[0]
    fleet.start()
    sizes = {}
    for served, request in enumerate(
            generate(TrafficSpec(n_requests=1400, seed=5)), start=1):
        fleet.submit(request.text)
        group.pump()
        if served in (200, 1400):
            sizes[served] = len(group._ckpt.payload)
    fleet.stop()
    assert group.reports[-1].steady_checkpoints > 100
    assert abs(sizes[1400] - sizes[200]) <= 32, sizes
    payload = group._ckpt.payload
    assert b"response:" not in payload
    # At most the request still held by the server's heap is in it.
    rids = [rid for rid, _ in group.env.responses.items()]
    assert len(rids) == 1400
    assert sum(rid.encode() in payload for rid in rids) <= 1


def test_an_emission_reads_back_only_the_records_it_shipped(monkeypatch):
    """Adoption reassembles the transfer from the records delivered
    since the emission began, never the whole retained log before it
    (those were read back by earlier emissions)."""
    from repro.replication import steady

    decoded = []
    monkeypatch.setattr(steady, "decode_record", lambda data: (
        decoded.append(data) or decode_record(data)))
    emissions = []
    real_emit = steady.SteadyCheckpointer.emit
    real_adopt = steady.SteadyCheckpointer._adopt_from_wire

    def emit(self, jvm):
        emissions.append([len(self._channel.delivered)])
        real_emit(self, jvm)

    def adopt(self, *args):
        mark = len(decoded)
        out = real_adopt(self, *args)
        retained = emissions[-1][0]
        emissions[-1] += [len(self._channel.delivered) - retained,
                          len(decoded) - mark]
        return out

    monkeypatch.setattr(steady.SteadyCheckpointer, "emit", emit)
    monkeypatch.setattr(steady.SteadyCheckpointer, "_adopt_from_wire",
                        adopt)
    fleet = Fleet(1, config=ReplicationConfig(checkpoint_interval=4))
    assert fleet.serve(TrafficSpec(n_requests=60, seed=5)).exactly_once
    assert len(emissions) > 5
    # The retained log held records at most emissions: reading it all
    # back would have decoded them too.
    assert sum(1 for retained, _, _ in emissions if retained) \
        > len(emissions) // 2
    for retained, shipped, read in emissions:
        assert read == shipped, (retained, shipped, read)
