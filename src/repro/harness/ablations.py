"""Ablation analyses for the design choices DESIGN.md calls out.

A1 — record buffering: the paper's primary buffers small records and
flushes periodically or on output commit.  :func:`buffering_sweep`
re-runs a workload with different batch sizes and reports messages and
simulated communication cost per batch size.

A2 — progress-tracking cost: the paper added ~12 instructions to the
bytecode dispatch loop to track the PC, dominating thread-scheduling
overhead.  :func:`tracking_sweep` re-costs an existing run under
different per-bytecode tracking charges (including the cheaper
per-branch-only design the paper suggests Jikes-style deterministic
yield points would enable).

A3 — interval coalescing: the paper observes (§6, vs DejaVu) that
logical thread intervals would collapse mtrt's 700k lock acquisitions
to 56 intervals.  :func:`coalesce_lock_records` computes exactly that
transform on our logs: consecutive acquisitions by the same thread
merge into one interval record.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.env.environment import Environment
from repro.harness.costs import CostModel
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.records import LockAcqRecord
from repro.workloads.base import Workload


def buffering_sweep(workload: Workload, profile: str,
                    batch_sizes: Tuple[int, ...] = (1, 16, 64, 512),
                    model: CostModel = CostModel()) -> Dict[int, Dict[str, float]]:
    """Run the lock-sync primary with several channel batch sizes."""
    results: Dict[int, Dict[str, float]] = {}
    for batch in batch_sizes:
        env = Environment()
        workload.prepare_env(env, profile)
        machine = ReplicatedJVM(
            workload.compile(profile), env=env,
            config=ReplicationConfig(strategy="lock_sync",
                                     batch_records=batch),
        )
        run = machine.run(workload.main_class)
        assert run.final_result.ok
        metrics = machine.primary_metrics
        results[batch] = {
            "messages": metrics.messages_sent,
            "records": metrics.records_sent,
            "bytes": metrics.bytes_sent,
            "communication_cost": model.primary_breakdown(
                metrics, "lock_sync")["communication"],
        }
    return results


def tracking_sweep(metrics, base_time: float,
                   charges: Tuple[float, ...] = (0.0, 0.1, 0.4, 1.0),
                   model: CostModel = CostModel()) -> Dict[float, float]:
    """Normalized thread-sched overhead under different per-bytecode
    tracking charges (0.0 models a deterministic-yield-point design
    where only branch counts are maintained)."""
    return {
        charge: replace(model, per_instr_tracking=charge).primary_time(
            metrics, "thread_sched") / base_time
        for charge in charges
    }


def coalesce_lock_records(raw_log: List[bytes]) -> Tuple[int, int]:
    """(record_count, interval_count) for the lock acquisition log:
    consecutive acquisitions by the same thread form one interval."""
    intervals = 0
    count = 0
    previous_thread = None
    for data in raw_log:
        from repro.replication.records import decode_record
        record = decode_record(data)
        if not isinstance(record, LockAcqRecord):
            continue
        count += 1
        if record.t_id != previous_thread:
            intervals += 1
            previous_thread = record.t_id
    return count, intervals
