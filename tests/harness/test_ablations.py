"""Ablation helper functions (fast, test-profile versions)."""

from repro.env.environment import Environment
from repro.harness.ablations import (
    buffering_sweep,
    coalesce_lock_records,
    tracking_sweep,
)
from repro.harness.costs import CostModel
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.metrics import ReplicationMetrics
from repro.workloads import BY_NAME


def test_buffering_sweep_shapes():
    sweep = buffering_sweep(BY_NAME["db"], "test", batch_sizes=(1, 64))
    assert sweep[1]["records"] == sweep[64]["records"]
    assert sweep[1]["bytes"] == sweep[64]["bytes"]
    assert sweep[1]["messages"] > sweep[64]["messages"]
    assert sweep[1]["communication_cost"] > sweep[64]["communication_cost"]


def test_tracking_sweep_monotone():
    metrics = ReplicationMetrics()
    metrics.instructions = 10_000
    metrics.cf_changes = 2_000
    base = CostModel().base_time(metrics)
    sweep = tracking_sweep(metrics, base, charges=(0.0, 0.5, 1.0))
    assert sweep[0.0] < sweep[0.5] < sweep[1.0]
    # zero-charge still includes the per-branch tracking
    assert sweep[0.0] > 1.0


def test_coalesce_lock_records_counts_runs():
    from repro.replication.records import (
        IdMap, LockAcqRecord, encode,
    )
    records = [
        encode(IdMap(1, (0,), 1)),                 # ignored: not an acq
        encode(LockAcqRecord((0,), 1, 1, 1)),
        encode(LockAcqRecord((0,), 2, 1, 2)),      # same thread: one run
        encode(LockAcqRecord((0, 0), 1, 1, 3)),    # switch
        encode(LockAcqRecord((0,), 3, 1, 4)),      # switch back
    ]
    count, intervals = coalesce_lock_records(records)
    assert count == 4
    assert intervals == 3


def test_coalesce_on_real_run():
    workload = BY_NAME["mtrt"]
    env = Environment()
    workload.prepare_env(env, "test")
    machine = ReplicatedJVM(workload.compile("test"), env=env,
                            config=ReplicationConfig(strategy="lock_sync"))
    machine.run(workload.main_class)
    machine.channel.flush()
    count, intervals = coalesce_lock_records(machine.channel.backup_log())
    assert count > 0
    assert 0 < intervals <= count
