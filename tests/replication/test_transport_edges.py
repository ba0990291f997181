"""FaultyTransport edge cases: duplicate-then-reorder, a dropped final
ack before output commit, backpressure stall accounting — and through
it all, the delivered log stays a contiguous prefix of what was sent."""

import pytest

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.transport import (
    FAULT_PROFILES,
    FaultProfile,
    FaultyTransport,
)


def _batches(n, size=2):
    return [[f"b{i}r{j}".encode() for j in range(size)] for i in range(n)]


def _is_prefix(delivered, batches):
    flat = [record for batch in batches for record in batch]
    return delivered == flat[:len(delivered)]


# ======================================================================
# Duplicate-then-reorder of the same record
# ======================================================================
def test_duplicate_then_reorder_delivers_exactly_once():
    """Every message is duplicated and the copies take wildly different
    paths (reordering), yet each record lands in the log exactly once,
    in send order."""
    profile = FaultProfile(name="dupreorder", dup_rate=1.0,
                           reorder_rate=0.6, jitter=6.0)
    transport = FaultyTransport(profile, seed=7)
    batches = _batches(8)
    for batch in batches:
        transport.send(batch)
        assert _is_prefix(transport.delivered, batches)
    transport.settle()
    assert transport.delivered == [r for b in batches for r in b]
    assert transport.stats.messages_duplicated >= 8
    # A duplicate overtaking a later message is the reorder case; the
    # seeded schedule above produces both held messages and late dups.
    assert transport.stats.messages_reordered > 0


def test_late_duplicate_of_delivered_message_is_ignored():
    """A copy arriving after its sequence number was already delivered
    must be dropped by the receiver (and re-acked), not appended."""
    profile = FaultProfile(name="lagdup", dup_rate=1.0, reorder_rate=1.0,
                           jitter=20.0)
    for seed in range(5):
        transport = FaultyTransport(profile, seed=seed)
        batches = _batches(5, size=1)
        for batch in batches:
            transport.send(batch)
        transport.settle()
        assert transport.delivered == [r for b in batches for r in b], seed


# ======================================================================
# Dropped final ack before output commit
# ======================================================================
def test_dropped_final_ack_is_recovered_by_retransmission():
    """The backup delivered the record but its ack vanished: the
    primary's output commit must block, retransmit, accept the re-ack,
    and the record must appear in the log exactly once."""
    transport = FaultyTransport(FaultProfile(name="ackdrop"), seed=3)
    dropped = {"n": 0}
    original_ack = transport._send_ack

    def dropping_ack():
        if dropped["n"] == 0:           # swallow only the first ack
            dropped["n"] += 1
            transport.stats.messages_dropped += 1
            return
        original_ack()

    transport._send_ack = dropping_ack
    transport.send([b"intent", b"result"])
    waited = transport.wait_ack()

    assert dropped["n"] == 1
    assert transport.delivered == [b"intent", b"result"]   # exactly once
    assert transport.stats.retransmits >= 1
    assert waited >= transport.profile.retry_timeout
    assert transport.stats.ack_wait_time == pytest.approx(waited)


def test_output_commit_survives_dropped_acks_end_to_end():
    """Machine-level: with a seeded lossy link every output commit
    still completes, outputs land exactly once, and the ack stalls are
    accounted in the metrics."""
    source = """
        class Main {
            static void main() {
                int i = 0;
                while (i < 4) { System.println("out=" + i); i = i + 1; }
            }
        }
    """
    env = Environment()
    machine = ReplicatedJVM(
        compile_program(source), env=env,
        config=ReplicationConfig(
            transport=lambda: FaultyTransport(FAULT_PROFILES["lossy"],
                                              seed=11),
        ),
    )
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    assert env.console.lines() == [f"out={i}" for i in range(4)]
    metrics = machine.primary_metrics
    assert metrics.output_commits == 4
    assert metrics.ack_waits == 4
    # The seeded link drops messages, so recovery work must show up.
    assert metrics.messages_dropped > 0
    assert metrics.retransmits > 0
    assert metrics.ack_wait_time > 0


# ======================================================================
# Backpressure stall accounting
# ======================================================================
def test_backpressure_stalls_are_counted():
    """A window-1 link with high latency: every second send must stall
    until the previous batch is acked, and each stall increments the
    counter exactly as the wait loop spins."""
    profile = FaultProfile(name="narrow", window=1, latency=30.0)
    transport = FaultyTransport(profile, seed=5)
    batches = _batches(4, size=1)
    transport.send(batches[0])
    assert transport.stats.backpressure_stalls == 0
    for batch in batches[1:]:
        transport.send(batch)
    assert transport.stats.backpressure_stalls >= 3
    transport.settle()
    assert transport.delivered == [r for b in batches for r in b]


def test_backpressure_stall_time_advances_virtual_clock():
    profile = FaultProfile(name="narrow2", window=1, latency=25.0)
    transport = FaultyTransport(profile, seed=6)
    transport.send([b"a"])
    before = transport.now
    transport.send([b"b"])     # must wait out the first batch's ack
    assert transport.now >= before + profile.latency


# ======================================================================
# The contiguous-prefix invariant
# ======================================================================
@pytest.mark.parametrize("profile_name", ["lossy", "flaky", "jittery",
                                          "chaotic"])
def test_delivered_log_is_always_a_contiguous_prefix(profile_name):
    """At every observable moment — mid-send, post-crash, post-drain —
    the delivered log is a contiguous prefix of the sent batches, for
    every fault profile and a spread of seeds and crash points."""
    profile = FAULT_PROFILES[profile_name]
    for seed in range(6):
        for crash_after in (1, 3, 5, None):
            transport = FaultyTransport(profile, seed=seed)
            batches = _batches(6)
            for i, batch in enumerate(batches):
                transport.send(batch)
                assert _is_prefix(transport.delivered, batches), \
                    (profile_name, seed, i)
                if crash_after is not None and i + 1 == crash_after:
                    break
            if crash_after is None:
                transport.settle()
                assert transport.delivered == [r for b in batches
                                               for r in b]
            else:
                transport.crash_sender()
                assert _is_prefix(transport.delivered, batches), \
                    (profile_name, seed, "post-crash")
