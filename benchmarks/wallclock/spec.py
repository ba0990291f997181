"""Frozen definitions: the six workloads and every metric name.

Nothing here is derived at run time from a measurement.  Request
counts, open-loop rates, crash schedules and program lists are
constants, so two commits do identical work per round; only the
*number* of rounds that fit into ``--seconds`` varies.  The open-loop
rates sit at about a quarter of the closed-loop capacity measured when
this file was written (see README.md, "Sizing observations").

This module imports nothing from ``repro``: ``BENCHMARK.json`` is
checked against it by the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple, Union

DEFAULT_SEED = 20030622
RUN_SECONDS = 12
N_SHARDS = 3


@dataclass(frozen=True)
class ServeSpec:
    """A sharded ``DB_SERVER`` fleet under closed- then open-loop load."""

    name: str
    why: str
    #: ``ReplicationConfig`` keyword arguments.
    config: Dict[str, object] = field(default_factory=dict)
    #: Every generation's primary fail-stops at this injector event
    #: (``crash_schedule_for`` on every shard); ``None`` = no crashes.
    crash_every: Optional[int] = None
    #: Per round, on a fresh fleet per phase: untimed warm-up requests,
    #: closed-loop requests, open-loop requests and their fixed rate.
    warmup: int = 0
    closed: int = 0
    open: int = 0
    rate: float = 0.0
    #: Requests pushed through the unreplicated server each round, the
    #: denominator of ``overhead_ratio``.
    baseline: int = 3000
    #: True where requests wait on a kernel timer, not on the
    #: processor (README.md, "What the socket workload can resolve"):
    #: closed-loop times are reported as measured instead of at
    #: reference speed, the open loop is paced in wall time, and both
    #: latency metrics are taken from the closed loop.
    timer_bound: bool = False
    #: Fleets per round that are armed and serve nothing: more samples
    #: of the arm time (``recovery_ms`` where no primary is crashed).
    arm_only: int = 0
    #: Samples a gated percentile needs beyond it (0 in the smoke run,
    #: whose timings mean nothing).
    min_beyond: int = 10
    profile: str = "bench"

    def scaled(self, share: float) -> "ServeSpec":
        """The same workload at ``share`` of its counts (the smoke
        run).  Rates, configs and checks are untouched; crashes come
        twice as densely, so that even a tiny run kills every shard's
        primary at least once."""
        def cut(n: int, floor: int) -> int:
            return max(floor, int(n * share))
        return replace(
            self, warmup=cut(self.warmup, 4), closed=cut(self.closed, 8),
            open=cut(self.open, 6), baseline=cut(self.baseline, 60),
            crash_every=(None if self.crash_every is None
                         else cut(self.crash_every, 40) // 2),
            min_beyond=0,
        )


@dataclass(frozen=True)
class BatchSpec:
    """SPEC-analogue programs run unreplicated, replicated, replayed."""

    name: str
    why: str
    programs: Tuple[str, ...] = ()
    strategy: str = "lock_sync"
    profile: str = "bench"

    def scaled(self, share: float) -> "BatchSpec":
        """Programs cannot be cut by a share: the smoke run uses the
        workloads' small ``test`` profile."""
        return replace(self, profile="test")


Spec = Union[ServeSpec, BatchSpec]

WORKLOADS: Tuple[Spec, ...] = (
    ServeSpec(
        name="serve_steady",
        why="crash-only shards on the in-memory transport: time is "
            "interpreter + native interception + log encode/flush",
        warmup=500, closed=4000, open=1000, rate=1500.0, arm_only=8,
    ),
    ServeSpec(
        name="serve_socket",
        why="same fleet over localhost TCP: the send-to-ack round trip "
            "per output commit dominates, the interpreter is under 1%",
        config={"transport": "socket"},
        warmup=20, closed=150, open=40, rate=10.0, timer_bound=True,
        arm_only=16,
    ),
    ServeSpec(
        name="serve_voting",
        why="three voting members under thread_sched: every request "
            "runs three times and every output waits for an f+1 "
            "certificate",
        config={"voting": True, "n_members": 3,
                "strategy": "thread_sched"},
        warmup=200, closed=800, open=300, rate=250.0, arm_only=8,
    ),
    ServeSpec(
        name="serve_recovery",
        why="checkpoint_interval=32 with every primary crashed at "
            "event 1500: delta capture/compose/verify on the steady "
            "path, restore + tail replay on the failover path",
        config={"checkpoint_interval": 32},
        crash_every=1500,
        warmup=100, closed=1000, open=150, rate=190.0,
    ),
    BatchSpec(
        name="batch_locksync",
        why="db and jess under lock_sync: tens of thousands of lock "
            "records written by run and read back by replay, the "
            "paper's worst case",
        programs=("db", "jess"), strategy="lock_sync",
    ),
    BatchSpec(
        name="batch_compute",
        why="compress, mpegaudio and mtrt under thread_sched: under "
            "600 records each, almost pure interpreter time, so "
            "replication changes must leave it flat",
        programs=("compress", "mpegaudio", "mtrt"),
        strategy="thread_sched",
    ),
)

BY_NAME: Dict[str, Spec] = {w.name: w for w in WORKLOADS}

#: Crash-schedule generations covered: more than any round survives.
CRASH_GENERATIONS = 6


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before it counts as a regression (None for per-layer).
    bound: Optional[float] = None


#: Reported by every workload from the untraced run.  What each name
#: means on each workload is tabulated in README.md.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops", "1/s", "higher", 0.2),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("recovery_ms", "ms", "lower", 0.2),
    Metric("overhead_ratio", "ratio", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: Printed with the end-to-end block but never gated: too few samples
#: or too unsteady to meet a bound (see README.md).
DIAGNOSTIC: Tuple[Metric, ...] = (
    Metric("latency_p99_ms", "ms", "lower"),
    Metric("latency_open_p50_ms", "ms", "lower"),
    Metric("latency_open_p90_ms", "ms", "lower"),
    Metric("latency_max_ms", "ms", "lower"),
    Metric("generator_lag_p90_ms", "ms", "lower"),
    Metric("failover_gap_p50_ms", "ms", "lower"),
    Metric("exec_s", "s", "lower"),
    Metric("replay_s", "s", "lower"),
    Metric("arm_ms", "ms", "lower"),
    Metric("import_s", "s", "lower"),
    Metric("failed_share", "ratio", "lower"),
    Metric("rounds", "count", "higher"),
    Metric("latency_samples", "count", "higher"),
)


def _layer(prefix: str, *names_units: Tuple[str, str, str]) -> Tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", u, b) for n, u, b in names_units)


#: Reported by every workload from the traced run (0 where the layer
#: is not on the workload's path).  Layer = module under src/repro/.
PER_LAYER: Tuple[Metric, ...] = (
    *_layer("fleet",
            ("submit_s", "s", "lower"), ("pump_s", "s", "lower"),
            ("requests", "count", "higher"),
            ("requests_requeued", "count", "lower")),
    *_layer("machine",
            ("run_s", "s", "lower"), ("replay_s", "s", "lower"),
            ("unreplicated_s", "s", "lower")),
    *_layer("runtime",
            ("run_slice_s", "s", "lower"),
            ("replica_slice_s", "s", "lower"),
            ("instructions", "count", "lower"),
            ("instr_per_s", "1/s", "higher"),
            ("slices", "count", "lower"),
            ("instr_per_slice", "count", "higher"),
            ("native_calls", "count", "lower"),
            ("blocks_compiled", "count", "lower"),
            ("block_cache_hits", "count", "higher")),
    *_layer("ndnatives",
            ("invoke_s", "s", "lower"), ("calls", "count", "lower"),
            ("calls_per_request", "count", "lower"),
            ("would_starve_s", "s", "lower"),
            ("would_starve_calls", "count", "lower")),
    *_layer("commit",
            ("log_s", "s", "lower"), ("log_calls", "count", "lower"),
            ("encode_s", "s", "lower"),
            ("output_commit_s", "s", "lower"),
            ("output_commits", "count", "lower"),
            ("flush_s", "s", "lower"),
            ("records_per_flush", "count", "higher"),
            ("bytes_per_request", "count", "lower")),
    *_layer("wire",
            ("encode_s", "s", "lower"), ("decode_s", "s", "lower"),
            ("bytes", "count", "lower")),
    *_layer("transport",
            ("send_s", "s", "lower"), ("wait_ack_s", "s", "lower"),
            ("messages", "count", "lower"), ("bytes", "count", "lower"),
            ("acks", "count", "lower"),
            ("retransmits", "count", "lower"),
            ("reconnects", "count", "lower"),
            ("self_share", "ratio", "lower")),
    *_layer("strategy",
            ("lock_records", "count", "lower"),
            ("id_maps", "count", "lower"),
            ("sched_records", "count", "lower"),
            ("records_per_kinstr", "count", "lower"),
            ("records_replayed", "count", "lower")),
    *_layer("digest",
            ("compute_s", "s", "lower"), ("computes", "count", "lower"),
            ("items_hashed", "count", "lower"),
            ("items_reused", "count", "higher"),
            ("reuse_ratio", "ratio", "higher")),
    *_layer("checkpoint",
            ("capture_s", "s", "lower"), ("compose_s", "s", "lower"),
            ("verify_restore_s", "s", "lower"),
            ("restore_s", "s", "lower"), ("deltas", "count", "lower"),
            ("bytes_per_delta", "count", "lower"),
            ("records_truncated", "count", "higher"),
            ("retained_records_max", "count", "lower")),
    *_layer("steady", ("emit_s", "s", "lower")),
    *_layer("recovery",
            ("failovers", "count", "lower"), ("gap_s", "s", "lower"),
            ("tail_records", "count", "lower"),
            ("rearm_s", "s", "lower")),
    *_layer("voting",
            ("tally_add_s", "s", "lower"), ("gate_s", "s", "lower"),
            ("follower_exec_s", "s", "lower"),
            ("votes_cast", "count", "lower"),
            ("quorum_certs", "count", "lower"),
            ("outputs_gated", "count", "lower"),
            ("vote_bytes", "count", "lower")),
    *_layer("minijava", ("compile_s", "s", "lower")),
    *_layer("trace",
            ("overhead_ratio", "ratio", "lower"),
            ("spans", "count", "lower"),
            ("attributed_share", "ratio", "higher")),
)


def benchmark_json() -> Dict[str, object]:
    """What ``BENCHMARK.json`` must say (the tests compare them)."""
    return {
        "command": ["python3", "benchmarks/wallclock/run.py"],
        "paths": ["benchmarks/wallclock"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
