"""Bounded logs under sustained fleet traffic.

Long-run serving is where unbounded logs actually hurt: a shard that
retains every record since boot replays its whole life on failover.
With steady-state incremental checkpointing the retained log's
high-water mark must stay flat as traffic grows — bounded by the
checkpoint interval, not the run length — and a mid-load failover must
replay only the post-checkpoint tail.
"""

# The replay-budget slack on top of the retained-log high-water mark is
# the chained conform sweep's own allowance, not a mirrored copy of it.
from repro.conform import REPLAY_SLACK
from repro.fleet import Fleet, TrafficSpec
from repro.replication.config import ReplicationConfig


def _final_primary_metrics(group):
    return group.reports[-1].primary_metrics


def test_long_run_retained_log_is_flat_in_traffic_volume():
    """Triple the traffic; the retained-log high-water mark must not
    move, while total shipped records (the unbounded baseline's replay
    cost) grows with the run."""
    marks, sent = [], []
    for n_requests in (100, 300):
        fleet = Fleet(2, config=ReplicationConfig(checkpoint_interval=4))
        metrics = fleet.serve(
            TrafficSpec(n_requests=n_requests, seed=11))
        assert metrics.exactly_once
        for group in fleet.groups:
            pm = _final_primary_metrics(group)
            assert group.reports[-1].steady_checkpoints > 0
            assert pm.records_truncated > 0
            marks.append(pm.retained_records_max)
            sent.append(pm.records_sent)
    # Bounded: every shard's high-water mark is a small constant ...
    assert max(marks) <= min(marks) + REPLAY_SLACK
    assert max(marks) < min(sent) // 4
    # ... while the would-be replay cost grew with the traffic.
    assert min(sent[2:]) > max(sent[:2]) * 2


def test_long_run_snapshot_count_is_bounded():
    """Steady emission re-arms the recovery basis in place: hundreds of
    checkpoints adopted, but one retained snapshot at any time."""
    fleet = Fleet(2, config=ReplicationConfig(checkpoint_interval=4))
    metrics = fleet.serve(TrafficSpec(n_requests=200, seed=3))
    assert metrics.exactly_once
    for group in fleet.groups:
        assert group.reports[-1].steady_checkpoints > 20


def test_no_interval_means_no_steady_emission():
    fleet = Fleet(2, config=ReplicationConfig())
    metrics = fleet.serve(TrafficSpec(n_requests=100, seed=11))
    assert metrics.exactly_once
    for group in fleet.groups:
        assert group.reports[-1].steady_checkpoints == 0
        assert _final_primary_metrics(group).deltas_shipped == 0


def test_mid_load_failover_replays_only_the_tail():
    """A shard primary fail-stops under sustained load: the promoted
    backup restores the last adopted checkpoint and replays a tail no
    larger than the retained-log budget; the fleet stays exactly-once
    and the other shards never notice."""
    crash_shard = 1
    fleet = Fleet(3,
                  config=ReplicationConfig(checkpoint_interval=4),
                  crash_schedule_for=(
                      lambda s: {0: 60} if s == crash_shard else None
                  ))
    metrics = fleet.serve(
        TrafficSpec(qps=400.0, n_requests=400, n_clients=8))

    assert metrics.requests_offered == 400
    assert metrics.responses_committed == 400
    assert metrics.exactly_once
    assert metrics.failovers_absorbed == 1

    hit = fleet.groups[crash_shard]
    crashed = hit.reports[0]
    assert crashed.outcome == "crashed"
    assert crashed.steady_checkpoints > 0
    # The recovery that promoted the backup is recorded on the
    # generation it produced.
    rm = hit.reports[1].recovery_metrics
    assert rm is not None
    assert rm.checkpoints_restored == 1
    assert (rm.recovery_tail_records
            <= crashed.primary_metrics.retained_records_max + REPLAY_SLACK)
    # The completing generation kept checkpointing after the failover.
    assert hit.reports[-1].steady_checkpoints > 0
    for shard, group in enumerate(fleet.groups):
        if shard != crash_shard:
            assert len(group.reports) == 1


def test_chained_mid_load_failovers_stay_bounded():
    """Two successive crashes on one shard: each recovery replays only
    its generation's tail, and the re-armed generation resumes steady
    emission from the freshly transferred basis."""
    crash_shard = 0
    fleet = Fleet(2,
                  config=ReplicationConfig(checkpoint_interval=3,
                                           max_failures=4),
                  crash_schedule_for=(
                      lambda s: {0: 40, 1: 40} if s == crash_shard else None
                  ))
    metrics = fleet.serve(TrafficSpec(n_requests=250, seed=21))
    assert metrics.exactly_once
    assert metrics.failovers_absorbed == 2
    hit = fleet.groups[crash_shard]
    assert len(hit.reports) == 3
    for crashed, successor in zip(hit.reports, hit.reports[1:]):
        assert crashed.outcome == "crashed"
        rm = successor.recovery_metrics
        assert rm is not None
        assert rm.checkpoints_restored == 1
        assert (rm.recovery_tail_records
                <= crashed.primary_metrics.retained_records_max
                + REPLAY_SLACK)
