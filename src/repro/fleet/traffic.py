"""Open-loop traffic for the shard fleet.

The generator is *open-loop*: arrival times come from a seeded
exponential inter-arrival process at a target QPS and do **not** wait
for responses — exactly the load model under which a failover shows up
as a latency spike plus a queue that the recovered shard must drain,
rather than the clients politely pausing.  ``Fleet.serve`` delivers
the schedule in arrival order and ignores the times; the wall-clock
benchmark paces real arrivals with them.

Everything is deterministic under the seed: request ids, operations,
keys, values, and arrival times.  The fleet's exactly-once and
correctness checks replay the same schedule through a Python reference
model (:func:`reference_responses`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Operation mix: weights for (op, needs_value).
_OPS = (("put", True), ("get", False), ("add", True), ("get", False))


@dataclass(frozen=True)
class Request:
    """One client request: ``"<rid> <op> <key> [<val>]"`` on the wire."""

    rid: str
    op: str
    key: int
    val: int
    arrival_ms: float

    @property
    def text(self) -> str:
        if self.op in ("put", "add"):
            return f"{self.rid} {self.op} {self.key} {self.val}"
        return f"{self.rid} {self.op} {self.key}"


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one open-loop traffic run."""

    qps: float = 400.0
    n_requests: int = 500
    n_clients: int = 8
    keyspace: int = 64
    seed: int = 20030622


def generate(spec: TrafficSpec) -> List[Request]:
    """The full request schedule, in arrival order."""
    rng = random.Random(spec.seed)
    mean_gap_ms = 1000.0 / spec.qps
    now = 0.0
    requests: List[Request] = []
    for i in range(spec.n_requests):
        now += rng.expovariate(1.0 / mean_gap_ms) if mean_gap_ms > 0 else 0.0
        client = rng.randrange(spec.n_clients)
        op, needs_value = _OPS[rng.randrange(len(_OPS))]
        key = rng.randrange(spec.keyspace)
        val = rng.randrange(1, 1000) if needs_value else 0
        requests.append(Request(
            rid=f"c{client}r{i:05d}",
            op=op,
            key=key,
            val=val,
            arrival_ms=now,
        ))
    return requests


def reference_responses(requests: Sequence[Request]) -> Dict[str, str]:
    """What a correct fleet must answer, request id -> response text.

    Keys are disjoint across shards (hash-sharding is a partition) and
    each shard serves its requests in arrival order — failover requeues
    preserve order — so applying the ops sequentially in global arrival
    order yields every shard's exact serial history."""
    vals: Dict[int, int] = {}
    expected: Dict[str, str] = {}
    for req in requests:
        if req.op == "put":
            vals[req.key] = req.val
            expected[req.rid] = "stored"
        elif req.op == "add":
            vals[req.key] = vals.get(req.key, 0) + req.val
            expected[req.rid] = f"v={vals[req.key]}"
        else:
            expected[req.rid] = (
                f"v={vals[req.key]}" if req.key in vals else "miss"
            )
    return expected
