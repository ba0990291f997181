"""Bounded recovery, counted: retained log and replay tail vs checkpoint
interval.

The paper's promote-the-backup recovery replays the retained log; with
an unbounded log that replay grows with run length.  Steady-state
incremental checkpointing truncates the log at every adopted delta.
For each emission interval the sweep below runs ``db`` crash-free and
then with a late crash, and reports what the program *counted*:

* **checkpoints** adopted during the crash-free run;
* **log max** — the retained log's high-water mark in records (what
  the primary must keep buffered for a future promotion);
* **replay tail** — the records the promoted backup actually replayed;
* **output ok** — the crashed run's console equals the crash-free one.

The ``inf`` row is the no-checkpoint baseline: the log is never
truncated and a late crash replays the whole history.  What an interval
costs and saves in *time* is measured by
``python3 benchmarks/wallclock/run.py --workload serve_recovery``.

Run under pytest (``pytest benchmarks/bench_recovery.py``), honoring
``REPRO_BENCH_PROFILE=test``; the table lands in ``benchmarks/results/``.
"""

from repro.env.environment import Environment
from repro.harness.tables import render_table
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.workloads import BY_NAME

#: Interval sweep per profile (``None`` = never checkpoint, the
#: unbounded baseline).  The test profile's run is short (~130
#: qualifying slices), so its finite intervals are small; the bench
#: profile has ~3000 slices and can amortize a large interval.
_INTERVALS = {
    "test": (None, 32, 8, 2),
    "bench": (None, 1024, 256, 64, 16, 4),
}
_WORKLOAD = "db"
_STRATEGY = "lock_sync"


def _run_cell(workload, profile, interval):
    """One interval: a crash-free run, then a late-crash recovery run
    at the same configuration."""
    env = Environment()
    workload.prepare_env(env, profile)
    steady = ReplicatedJVM(
        workload.compile(profile), env=env,
        config=ReplicationConfig(strategy=_STRATEGY,
                                 checkpoint_interval=interval))
    result = steady.run(workload.main_class)
    assert result.outcome == "primary_completed", result.outcome
    pm = steady.primary_metrics

    crash_env = Environment()
    workload.prepare_env(crash_env, profile)
    crashed = steady.clone(
        env=crash_env, crash_at=max(1, steady.shipper.injector.events - 2))
    assert crashed.run(workload.main_class).failed_over, interval
    return {
        "interval": interval,
        "checkpoints": pm.deltas_shipped + (1 if pm.checkpoint_records
                                            and interval else 0),
        "records_truncated": pm.records_truncated,
        "log_records_max": pm.retained_records_max,
        "recovery_tail_records": crashed.backup_metrics.recovery_tail_records,
        "output_ok": crash_env.console.lines() == env.console.lines(),
    }


def test_recovery_bench(bench_profile, save_result):
    workload = BY_NAME[_WORKLOAD]
    cells = [_run_cell(workload, bench_profile, interval)
             for interval in _INTERVALS[bench_profile]]
    save_result("recovery_intervals", render_table(
        f"Retained log and replay tail vs checkpoint interval "
        f"({_WORKLOAD}, {_STRATEGY}, profile={bench_profile})",
        ["Interval", "Ckpts", "Log max", "Replay tail", "Output ok"],
        [["inf" if c["interval"] is None else c["interval"],
          c["checkpoints"], c["log_records_max"],
          c["recovery_tail_records"], "yes" if c["output_ok"] else "NO"]
         for c in cells],
    ))

    baseline, finite = cells[0], cells[1:]
    assert all(c["output_ok"] for c in cells)
    # Without checkpointing the log is never truncated ...
    assert baseline["records_truncated"] <= 1
    for cell in finite:
        # ... with it, it is, and the replay tail drops below the
        # whole-history baseline.
        assert cell["records_truncated"] > 0, cell
        assert cell["recovery_tail_records"] \
            < baseline["recovery_tail_records"], cell
    # Shorter intervals never retain more log than longer ones.
    marks = [c["log_records_max"] for c in finite]
    assert marks == sorted(marks, reverse=True)
