"""Fleet-level serving metrics: what was served, and what it survived.

Per-replica event counters live in
:class:`repro.replication.metrics.ReplicationMetrics`; this module
carries a named few of them up — replica to shard, shard to fleet,
through the one :func:`~repro.replication.metrics.fold` — and adds the
traffic-facing view: requests routed, responses verified against the
serial reference, failovers absorbed, and the exactly-once verdict.

These are counts.  How *fast* a fleet serves is measured on the wall
clock by ``benchmarks/wallclock/``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List

from repro.replication.metrics import fold


@dataclass
class ReplicaCounters:
    """The :class:`~repro.replication.metrics.ReplicationMetrics`
    counters a serving report carries, under the same names."""

    #: Requests found lost in flight at a failover and requeued.
    requests_requeued: int = 0
    #: Quorum-voting counters (all zero for crash-fault-only shards).
    members_quarantined: int = 0
    members_rearmed: int = 0
    variant_divergences: int = 0
    votes_cast: int = 0
    quorum_certs: int = 0
    outputs_gated: int = 0
    members_suspected: int = 0
    suspicions_cleared: int = 0
    engine_demotions: int = 0
    #: Superinstruction-compiler counters (zero unless a replica ran
    #: ``engine="block"``).
    blocks_compiled: int = 0
    block_cache_hits: int = 0

    def absorb(self, other) -> None:
        """Fold in a replica's ``ReplicationMetrics``, or a shard's
        counters into the fleet's."""
        fold(self, other, _REPLICA_COUNTERS)


_REPLICA_COUNTERS = tuple(f.name for f in fields(ReplicaCounters))


@dataclass
class ShardServingMetrics(ReplicaCounters):
    """One shard group's slice of the traffic."""

    shard: int = 0
    requests_routed: int = 0
    responses_committed: int = 0
    duplicates: int = 0
    failovers_absorbed: int = 0
    generations: int = 1
    #: Execution engine the shard ended the run on ("" = non-voting).
    engine: str = ""

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class FleetServingMetrics(ReplicaCounters):
    """The whole fleet's view of one traffic run."""

    n_shards: int = 0
    requests_offered: int = 0
    responses_committed: int = 0
    #: Requests that never got a committed response (must be 0).
    responses_lost: int = 0
    #: Responses committed more than once (must be 0).
    responses_duplicated: int = 0
    #: Responses whose text differs from the serial reference (must be 0).
    responses_wrong: int = 0
    failovers_absorbed: int = 0
    #: Engine the fleet degraded to ("" = never demoted).
    degraded_to: str = ""
    per_shard: List[ShardServingMetrics] = field(default_factory=list)

    @property
    def exactly_once(self) -> bool:
        return (self.responses_lost == 0 and self.responses_duplicated == 0
                and self.responses_wrong == 0)

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "exactly_once": self.exactly_once}
