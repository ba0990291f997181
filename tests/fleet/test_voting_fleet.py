"""Voting fleet under chaos: quorum shards, partitions, demotion.

Every shard is an n-member quorum-voting group instead of a
primary-backup pair.  The properties under test:

* a steady voting fleet serves exactly-once, with every response held
  for an f+1 quorum certificate before release;
* a seeded proposer liar on one shard is outvoted, deposed, and
  re-armed mid-load — the other shards never notice;
* a member partitioned from the delivered log is *suspected* (silence)
  and absolved at the heal, never convicted — suspicion is provably
  distinct from being outvoted on evidence;
* a confirmed engine-correlated divergence anywhere demotes the whole
  fleet to the step engine at each shard's next safe-point, with zero
  lost or duplicated responses (graceful degradation).
"""

import pytest

from repro.errors import ReplicationError
from repro.fleet import Fleet, TrafficSpec
from repro.replication.config import ReplicationConfig
from repro.replication.transport import (
    ChaosTransport,
    FaultProfile,
    LinkOutage,
    MemberPartition,
)


def _config(**overrides):
    overrides.setdefault("strategy", "thread_sched")
    return ReplicationConfig(voting=True, **overrides)


def _traffic(n_requests, seed=20030622):
    return TrafficSpec(qps=400.0, n_requests=n_requests, n_clients=4,
                       keyspace=32, seed=seed)


# ======================================================================
# Construction rules
# ======================================================================
def test_voting_fleet_rejects_crash_schedules():
    with pytest.raises(ReplicationError):
        Fleet(2, config=_config(),
              crash_schedule_for=lambda s: {0: 40} if s == 0 else None)


def test_lie_shard_must_be_in_range():
    with pytest.raises(ReplicationError):
        Fleet(2, config=_config(lie_at=("output", 3)), lie_shard=5)


# ======================================================================
# Steady state
# ======================================================================
def test_steady_voting_fleet_serves_exactly_once():
    fleet = Fleet(2, config=_config())
    metrics = fleet.serve(_traffic(40))
    assert metrics.exactly_once
    assert metrics.responses_committed == 40
    # Every committed response was gated on a quorum certificate.
    assert metrics.outputs_gated >= metrics.responses_committed
    assert metrics.quorum_certs > 0
    assert metrics.votes_cast >= 3 * metrics.quorum_certs // 2
    assert metrics.members_quarantined == 0
    assert metrics.degraded_to == ""
    for sm in metrics.per_shard:
        assert sm.engine == "slice"      # nobody demoted anything


def test_voting_shard_counts_each_era_once():
    """A voting group folds its eras into ``group.metrics`` itself; the
    shard takes that fold and nothing else (it used to add the eras a
    second time, doubling the block-compiler counters)."""
    from repro.runtime.jvm import JVMConfig

    fleet = Fleet(1, config=_config(jvm_config=JVMConfig(engine="block")))
    metrics = fleet.serve(_traffic(60))
    assert metrics.exactly_once
    eras = [m for report in fleet.groups[0].reports
            for m in (report.primary_metrics, report.recovery_metrics)
            if m is not None]
    assert metrics.blocks_compiled == sum(m.blocks_compiled for m in eras) > 0
    assert metrics.block_cache_hits == sum(m.block_cache_hits for m in eras)


# ======================================================================
# A proposer liar on one shard mid-load
# ======================================================================
def test_proposer_liar_is_convicted_on_its_shard_only():
    lie_shard = 1
    fleet = Fleet(3, config=_config(lie_at=("output", 5)),
                  lie_shard=lie_shard)
    metrics = fleet.serve(_traffic(60))
    assert metrics.exactly_once
    assert metrics.responses_committed == 60
    liar = metrics.per_shard[lie_shard]
    assert liar.members_quarantined == 1
    assert liar.members_rearmed == 1
    assert liar.failovers_absorbed == 1   # deposition = one failover
    group = fleet.groups[lie_shard]
    assert [(i.member, i.role) for i in group.incidents] == \
        [(0, "proposer")]
    for shard, sm in enumerate(metrics.per_shard):
        if shard != lie_shard:
            assert sm.members_quarantined == 0
            assert sm.failovers_absorbed == 0


def test_lying_follower_quarantined_without_deposition():
    fleet = Fleet(2, config=_config(lie_at=("output", 5), lie_member=2),
                  lie_shard=0)
    metrics = fleet.serve(_traffic(40))
    assert metrics.exactly_once
    sm = metrics.per_shard[0]
    assert sm.members_quarantined == 1
    assert sm.failovers_absorbed == 0     # follower conviction: no failover
    assert [i.member for i in fleet.groups[0].incidents] == [2]


# ======================================================================
# Partition != guilt
# ======================================================================
def test_partitioned_member_is_suspected_then_absolved_on_heal():
    """Member 1 of shard 0 loses the delivered log for a window; it is
    suspected from the silence and absolved at the heal — never
    convicted, because silence is not evidence."""
    chaos = ChaosTransport(
        FaultProfile(latency=2.0), seed=61,
        member_partitions=(MemberPartition(1, 30.0, 120.0, "records"),))
    fleet = Fleet(3, config=_config(),
                  transport_for=lambda s: chaos if s == 0 else None)
    metrics = fleet.serve(_traffic(80))
    assert metrics.exactly_once
    assert metrics.responses_committed == 80
    sm = metrics.per_shard[0]
    assert sm.members_suspected >= 1
    assert sm.suspicions_cleared >= 1
    assert sm.members_quarantined == 0    # absolved, not convicted
    assert all(slot.state == "healthy" for slot in fleet.groups[0].slots)


def test_asymmetric_outage_and_partition_heal_cleanly():
    """The rev outage cuts acks only (the case fail-stop cannot model)
    while a member partition rides the same link; both heal with the
    fleet still exactly-once and nobody convicted."""
    chaos = ChaosTransport(
        seed=62,
        outages=(LinkOutage(200.0, 600.0, "rev"),),
        member_partitions=(MemberPartition(1, 30.0, 120.0, "records"),))
    fleet = Fleet(3, config=_config(),
                  transport_for=lambda s: chaos if s == 0 else None)
    metrics = fleet.serve(_traffic(80))
    assert metrics.exactly_once
    sm = metrics.per_shard[0]
    assert sm.members_suspected >= 1 and sm.suspicions_cleared >= 1
    assert sm.members_quarantined == 0
    transport = fleet._shard_transports[0]
    assert transport.chaos.acks_cut > 0   # the outage really bit


# ======================================================================
# Graceful degradation
# ======================================================================
def test_engine_divergence_demotes_the_whole_fleet():
    """One shard's MVEE guard rules an engine-correlated divergence
    (the off-engine member outvoted on an output); the controller
    demotes every shard to step at its next safe-point and the fleet
    keeps serving."""
    fleet = Fleet(2, config=_config(variants="step+slice",
                                    lie_at=("output", 5), lie_member=1),
                  lie_shard=0)
    metrics = fleet.serve(_traffic(60))
    assert metrics.exactly_once
    assert metrics.responses_committed == 60
    assert metrics.variant_divergences >= 1
    assert metrics.degraded_to == "step"
    assert metrics.engine_demotions == 2  # both shards, not just the alarm's
    assert fleet.degradation.demoted
    for shard, sm in enumerate(metrics.per_shard):
        assert sm.engine == "step"
        group = fleet.groups[shard]
        assert group.base_config.engine == "step"
        assert all(slot.engine == "step" for slot in group.slots)
        assert group.demotions and group.demotions[-1][1] == "step"


# ======================================================================
# The acceptance scenario: liar + chaos + demotion, one run
# ======================================================================
def test_voting_fleet_acceptance_under_chaos():
    """Three voting shards under open-loop load, all at once: shard 1
    carries a lying proposer, shard 0 rides a chaos link (asymmetric
    ack outage + member partition), and shard 2's step-engine member is
    seeded to diverge — the fleet convicts exactly the liars, absolves
    the partitioned member at the heal, demotes everyone to step, and
    still answers every request exactly once."""
    from repro.replication.voting import CorruptionInjector, LieSpec

    chaos = ChaosTransport(
        seed=63,
        outages=(LinkOutage(200.0, 600.0, "rev"),),
        member_partitions=(MemberPartition(1, 30.0, 120.0, "records"),))
    fleet = Fleet(3,
                  config=_config(variants="step+slice",
                                 lie_at=("output", 5)),
                  lie_shard=1,
                  transport_for=lambda s: chaos if s == 0 else None)
    # A second, independent fault domain: shard 2's off-engine member
    # lies on an output ordinal, which the MVEE guard must rule as
    # engine-correlated (its engine is outside the certifying
    # majority's).  Seeded directly — the config's lie seeding is
    # deliberately single-shard.
    fleet.groups[2].injector = CorruptionInjector(
        [LieSpec("output", 8, -1, 1)])

    metrics = fleet.serve(_traffic(90))

    # Exactly-once survived all three fault domains at once.
    assert metrics.exactly_once
    assert metrics.responses_committed == 90

    # Shard 1: the proposer liar was convicted (and only it).
    liar = metrics.per_shard[1]
    assert liar.members_quarantined == 1 and liar.members_rearmed == 1
    assert [(i.member, i.role) for i in fleet.groups[1].incidents] == \
        [(0, "proposer")]

    # Shard 0: the partitioned member was absolved at the heal.
    chaotic = metrics.per_shard[0]
    assert chaotic.members_suspected >= 1
    assert chaotic.suspicions_cleared >= 1
    assert chaotic.members_quarantined == 0

    # Shard 2's divergence demoted the *whole* fleet to step.
    assert metrics.variant_divergences >= 1
    assert metrics.degraded_to == "step"
    assert metrics.engine_demotions == 3
    for group in fleet.groups:
        assert group.base_config.engine == "step"
        assert all(slot.engine == "step" for slot in group.slots)
