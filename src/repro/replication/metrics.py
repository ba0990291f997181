"""Replication metrics: the event counters behind Table 2 and the
overhead components behind Figures 2-4.

Counters are *facts* (how many records, messages, bytes, commits);
turning the paper workloads' counters into simulated time is the job of
the cost model in :mod:`repro.harness.costs`, so the same run can be
re-costed without re-executing.

Counters from several replicas combine through one rule, :func:`fold`:
a counter sums unless its field is declared a high-water mark, which
folds by ``max``.  An era into its voting group, a replica into its
shard and a shard into its fleet all go through it.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable


def _high_water() -> int:
    """A counter whose fold over replicas is ``max``, not the sum."""
    return field(default=0, metadata={"fold": max})


@dataclass
class ReplicationMetrics:
    """Counters collected on one replica during one run."""

    role: str = "primary"

    # --- Table 2 rows -------------------------------------------------
    natives_intercepted: int = 0     # non-deterministic natives invoked
    output_commits: int = 0          # NM output commits
    lock_records: int = 0            # lock acquisition records created
    id_maps: int = 0
    schedule_records: int = 0
    native_result_records: int = 0
    se_records: int = 0
    digest_records: int = 0          # state-digest checkpoints emitted
    digest_bytes: int = 0            # wire bytes spent on digests
    #: distinct objects whose monitor was ever acquired
    objects_locked: int = 0
    locks_acquired: int = 0
    largest_l_asn: int = _high_water()
    reschedules: int = 0

    # --- Wire-level ---------------------------------------------------
    messages_sent: int = 0
    records_sent: int = 0
    bytes_sent: int = 0
    ack_waits: int = 0

    # --- Transport-level (zero on the in-memory transport) ------------
    retransmits: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    backpressure_stalls: int = 0
    #: measured round-trip time spent inside output-commit ack waits
    ack_wait_time: float = 0.0
    heartbeats_sent: int = 0
    heartbeats_delivered: int = 0

    # --- Execution ----------------------------------------------------
    instructions: int = 0
    cf_changes: int = 0              # br_cnt sum over threads
    heavy_ops: int = 0               # array/float bytecodes
    native_calls: int = 0            # all native invocations
    #: Execution engine the run used ("step", "slice", or "block"): a
    #: label, never a price.
    engine: str = "step"
    #: Superinstruction blocks compiled by the ``block`` engine.
    blocks_compiled: int = 0
    #: Executions served by an already-compiled block.
    block_cache_hits: int = 0

    # --- Checkpoint transfer (replica-group re-integration) -----------
    checkpoint_records: int = 0      # checkpoint chunk records shipped
    checkpoint_bytes: int = 0        # wire bytes spent on checkpoints
    checkpoints_shipped: int = 0     # complete checkpoints transferred
    checkpoints_restored: int = 0    # checkpoints adopted by a replica
    records_fenced: int = 0          # stale-epoch records discarded
    records_truncated: int = 0       # log records dropped at a boundary
    #: measured time spent shipping checkpoints (flush + ack)
    checkpoint_transfer_wait: float = 0.0

    # --- Steady-state incremental checkpoints --------------------------
    delta_records: int = 0           # delta chunk records shipped
    delta_bytes: int = 0             # wire bytes spent on delta chunks
    deltas_shipped: int = 0          # complete delta checkpoints acked
    deltas_composed: int = 0         # deltas composed onto a basis
    #: high-water mark of the retained (delivered + buffered) log —
    #: with checkpointing on, bounded by the emission interval.
    retained_records_max: int = _high_water()
    #: log records in the retained tail at recovery time (backup role):
    #: the replay work a promoted backup actually performed.
    recovery_tail_records: int = 0

    # --- Backup-only --------------------------------------------------
    records_replayed: int = 0
    outputs_suppressed: int = 0
    outputs_tested: int = 0
    outputs_reexecuted: int = 0

    # --- Quorum voting (Byzantine mode) --------------------------------
    votes_cast: int = 0              # ballots tallied (all members)
    vote_bytes: int = 0              # wire bytes spent on vote records
    quorum_certs: int = 0            # certificates formed (f+1 matches)
    outputs_gated: int = 0           # outputs held for a quorum check
    members_suspected: int = 0       # recoverable heartbeat suspicions
    suspicions_cleared: int = 0      # suspicions absolved by resumed
                                     # beats or a matching vote
    members_quarantined: int = 0     # convictions (outvoted/equivocated)
    members_rearmed: int = 0         # convicted members rebuilt from a
                                     # verified checkpoint
    variant_divergences: int = 0     # MVEE guard alarms
    #: Graceful degradations: the whole group rebuilt onto the oracle
    #: engine at a safe-point boundary after a confirmed
    #: engine-correlated divergence.
    engine_demotions: int = 0

    # --- Serving (request/response lifecycle) -------------------------
    #: ``Server.recv`` takes executed live on this replica.
    requests_ingested: int = 0
    #: ``Server.reply`` outputs committed live on this replica.
    responses_committed: int = 0
    #: Requests found lost in flight at a failover and requeued.
    requests_requeued: int = 0

    # --- Interval-coalesced lock replication ----------------------------
    #: Acquisitions covered by the shipped ``LockIntervalRecord``\ s.
    interval_acquisitions: int = 0

    @property
    def records_logged(self) -> int:
        """Total log records created (the paper's 'Logged Messages' row
        counts messages; records feed the buffering ablation)."""
        return (
            self.lock_records + self.id_maps + self.schedule_records
            + self.native_result_records + self.se_records
            + self.output_commits
        )

    def absorb(self, other: "ReplicationMetrics") -> None:
        """Fold another replica's (or era's) counters into this one."""
        fold(self, other)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


#: How each numeric field of :class:`ReplicationMetrics` folds.
_RULES = {
    f.name: f.metadata.get("fold", operator.add)
    for f in fields(ReplicationMetrics)
    if isinstance(f.default, (int, float))
}


def fold(into, other, names: Iterable[str] = _RULES) -> None:
    """``into.<name>`` absorbs ``other.<name>`` for each named counter
    of :class:`ReplicationMetrics` (all of them by default): by ``max``
    where the field is declared a high-water mark, by sum otherwise.
    ``into`` and ``other`` are any objects carrying those attributes."""
    for name in names:
        setattr(into, name,
                _RULES[name](getattr(into, name), getattr(other, name)))
