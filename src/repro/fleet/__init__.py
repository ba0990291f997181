"""Sharded replica fleet serving request traffic.

``Fleet`` fronts N :class:`~repro.replication.supervisor.ReplicaGroup`\\ s
(one hash shard of the keyspace each) with a request router and one
:class:`~repro.replication.transport.TransportMux` event loop;
:mod:`~repro.fleet.traffic` generates the seeded arrival schedule and
the serial reference answers; :mod:`~repro.fleet.metrics` reports what
was routed, committed, requeued and failed over, and the exactly-once
verdict.
"""

from repro.fleet.degradation import DegradationController
from repro.fleet.fleet import Fleet, key_of, shard_of
from repro.fleet.metrics import FleetServingMetrics, ShardServingMetrics
from repro.fleet.traffic import (
    Request,
    TrafficSpec,
    generate,
    reference_responses,
)

__all__ = [
    "DegradationController",
    "Fleet",
    "FleetServingMetrics",
    "Request",
    "ShardServingMetrics",
    "TrafficSpec",
    "generate",
    "key_of",
    "reference_responses",
    "shard_of",
]
