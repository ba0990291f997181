"""The sharded fleet: routing, traffic determinism, crash-under-load.

The headline property (the paper's availability claim, scaled out): a
fleet of shard groups serving sustained traffic keeps serving while
one shard's primary fail-stops — the failover touches that shard only,
and every request still gets exactly one response whose text matches
the serial reference model.
"""

import json

import pytest

from repro.errors import ReplicationError
from repro.fleet import (
    Fleet,
    TrafficSpec,
    generate,
    key_of,
    reference_responses,
    shard_of,
)


# ======================================================================
# Traffic generation
# ======================================================================
def test_traffic_is_deterministic_under_the_seed():
    spec = TrafficSpec(n_requests=100, seed=42)
    assert generate(spec) == generate(spec)
    assert generate(spec) != generate(TrafficSpec(n_requests=100, seed=43))


def test_traffic_arrivals_are_monotone_and_open_loop():
    requests = generate(TrafficSpec(qps=200.0, n_requests=300))
    arrivals = [r.arrival_ms for r in requests]
    assert arrivals == sorted(arrivals)
    # Open-loop: the mean inter-arrival gap tracks the configured QPS.
    mean_gap = arrivals[-1] / (len(arrivals) - 1)
    assert 2.0 < mean_gap < 10.0       # nominal 5ms at 200 QPS


def test_request_ids_are_unique():
    requests = generate(TrafficSpec(n_requests=250))
    assert len({r.rid for r in requests}) == 250


def test_reference_model_applies_ops_serially():
    spec = TrafficSpec(n_requests=50, seed=9)
    requests = generate(spec)
    expected = reference_responses(requests)
    assert set(expected) == {r.rid for r in requests}
    for req in requests:
        if req.op == "put":
            assert expected[req.rid] == "stored"
        else:
            assert expected[req.rid] == "miss" or \
                expected[req.rid].startswith("v=")


# ======================================================================
# Routing
# ======================================================================
def test_router_partitions_the_keyspace():
    keyspace, n_shards = 64, 3
    owners = {key: shard_of(key, n_shards) for key in range(keyspace)}
    assert set(owners.values()) == set(range(n_shards))
    # A partition: every key has exactly one owner, stable across calls.
    assert owners == {k: shard_of(k, n_shards) for k in range(keyspace)}


def test_key_extraction_from_request_text():
    assert key_of("c0r00001 put 17 944") == 17
    assert key_of("c3r00044 get 5") == 5
    with pytest.raises(ReplicationError):
        key_of("malformed")
    with pytest.raises(ReplicationError):
        key_of("rid op notakey")


def test_fleet_rejects_empty_fleet():
    with pytest.raises(ReplicationError):
        Fleet(0)


# ======================================================================
# Serving
# ======================================================================
def test_single_shard_fleet_serves_exactly_once():
    fleet = Fleet(1)
    metrics = fleet.serve(TrafficSpec(n_requests=60))
    assert metrics.exactly_once
    assert metrics.responses_committed == 60
    assert metrics.per_shard[0].requests_routed == 60


def test_fleet_spreads_traffic_across_shards():
    fleet = Fleet(3)
    metrics = fleet.serve(TrafficSpec(n_requests=120))
    assert metrics.exactly_once
    routed = [s.requests_routed for s in metrics.per_shard]
    assert sum(routed) == 120
    assert all(n > 0 for n in routed)


def test_fleet_crash_under_load_is_exactly_once():
    """The acceptance scenario: 3 shards, 500 sustained requests, one
    primary fail-stops mid-load, fails over, and re-arms a fresh
    backup — with zero lost, duplicated, or wrong responses."""
    crash_shard = 1
    fleet = Fleet(3, crash_schedule_for=(
        lambda s: {0: 40} if s == crash_shard else None
    ))
    spec = TrafficSpec(qps=400.0, n_requests=500, n_clients=8)
    metrics = fleet.serve(spec)

    assert metrics.requests_offered == 500
    assert metrics.responses_committed == 500
    assert metrics.exactly_once
    assert metrics.failovers_absorbed == 1

    hit = metrics.per_shard[crash_shard]
    assert hit.failovers_absorbed == 1
    assert hit.generations == 2        # crashed gen + completing gen
    assert hit.requests_requeued == metrics.requests_requeued == 1
    # The other shards never noticed: single generation, no failover,
    # no requeues.
    for shard, sm in enumerate(metrics.per_shard):
        if shard != crash_shard:
            assert sm.generations == 1
            assert sm.failovers_absorbed == 0
            assert sm.requests_requeued == 0


def test_fleet_responses_match_serial_reference():
    """Committed response text equals the serial reference model's,
    request by request, even across a failover."""
    spec = TrafficSpec(n_requests=200, seed=77)
    requests = generate(spec)
    expected = reference_responses(requests)
    fleet = Fleet(3, crash_schedule_for=(
        lambda s: {0: 30} if s == 0 else None
    ))
    metrics = fleet.serve(requests)
    assert metrics.exactly_once
    for shard, group in enumerate(fleet.groups):
        for req in requests:
            if shard_of(req.key, fleet.n_shards) == shard:
                assert group.env.responses.get(req.rid) == expected[req.rid]


def test_fleet_absorbs_crashes_on_multiple_shards():
    fleet = Fleet(3, crash_schedule_for=(
        lambda s: {0: 25} if s in (0, 2) else None
    ))
    metrics = fleet.serve(TrafficSpec(n_requests=300, seed=5))
    assert metrics.exactly_once
    assert metrics.failovers_absorbed == 2


def test_block_engine_fleet_serves_the_same_and_rolls_its_counters_up():
    """Every replica on the compiled engine: identical verdict, and the
    replicas' block counters fold replica -> shard -> fleet."""
    from repro.replication.config import ReplicationConfig
    from repro.runtime.jvm import JVMConfig

    fleet = Fleet(2, config=ReplicationConfig(
        jvm_config=JVMConfig(engine="block")))
    metrics = fleet.serve(TrafficSpec(n_requests=120))
    assert metrics.exactly_once
    assert metrics.responses_committed == 120
    assert metrics.blocks_compiled > 0
    assert metrics.block_cache_hits > metrics.blocks_compiled
    for name in ("blocks_compiled", "block_cache_hits"):
        assert getattr(metrics, name) == sum(
            getattr(sm, name) for sm in metrics.per_shard)
        for sm, group in zip(metrics.per_shard, fleet.groups):
            assert getattr(sm, name) == sum(
                getattr(r.primary_metrics, name) for r in group.reports)


def test_fleet_metrics_report_is_json_shaped():
    fleet = Fleet(2)
    metrics = fleet.serve(TrafficSpec(n_requests=40))
    report = metrics.as_dict()
    assert report["exactly_once"] is True
    assert report["n_shards"] == 2
    assert len(report["per_shard"]) == 2
    assert report["per_shard"][1]["shard"] == 1
    assert sum(s["requests_routed"] for s in report["per_shard"]) == 40
    json.dumps(report)


def test_fleet_keeps_no_clock():
    """Serving speed is measured by benchmarks/wallclock, not priced
    here: the cost-model hook is gone, not ignored."""
    with pytest.raises(TypeError):
        Fleet(1, cost_model=None)
