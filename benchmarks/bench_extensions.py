"""Extensions beyond the paper's evaluation, quantified.

E1 — interval-coalesced lock replication (the paper's §6 suggestion,
implemented as a third strategy): wire volume vs plain lock-sync.
E2 — hot backup (the paper's 'keeping the backup updated' remark,
implemented): post-crash recovery work vs a cold backup.
"""

from repro.env.environment import Environment
from repro.harness.tables import render_table
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.workloads import BY_NAME


def _run_strategy(workload, profile, strategy, **kw):
    env = Environment()
    workload.prepare_env(env, profile)
    machine = ReplicatedJVM(workload.compile(profile), env=env,
                            config=ReplicationConfig(strategy=strategy, **kw))
    result = machine.run(workload.main_class)
    assert result.final_result.ok
    machine.channel.flush()
    return machine


def test_extension_interval_strategy(benchmark, bench_profile, save_result):
    """E1: the interval strategy ships far fewer records and bytes for
    lock-heavy workloads, while replay still reaches identical state."""
    def run_both():
        out = {}
        for workload_name in ("db", "mtrt"):
            workload = BY_NAME[workload_name]
            plain = _run_strategy(workload, bench_profile, "lock_sync")
            intervals = _run_strategy(workload, bench_profile,
                                      "lock_intervals")
            # replay equivalence for the interval strategy
            digest = intervals.primary_jvm.state_digest()
            intervals.replay_backup(workload.main_class)
            assert intervals.backup_jvm.state_digest() == digest
            out[workload_name] = (plain.primary_metrics,
                                  intervals.primary_metrics)
        return out

    data = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = []
    for name, (plain, intervals) in data.items():
        rows.append([
            name,
            plain.lock_records + plain.id_maps, intervals.lock_records,
            plain.bytes_sent, intervals.bytes_sent,
            plain.bytes_sent / max(intervals.bytes_sent, 1),
        ])
    save_result("extension_intervals", render_table(
        "Extension E1: per-acquisition records vs coalesced intervals",
        ["Workload", "Lock recs", "Interval recs",
         "Bytes (lock)", "Bytes (interval)", "Byte ratio"],
        rows,
    ))
    if bench_profile != "bench":
        return
    for name, (plain, intervals) in data.items():
        assert intervals.lock_records < plain.lock_records, name
        assert intervals.bytes_sent < plain.bytes_sent, name
    # db's single hot monitor coalesces massively
    plain_db, interval_db = data["db"]
    assert plain_db.lock_records > 10 * interval_db.lock_records


def test_extension_hot_backup_recovery(benchmark, bench_profile, save_result):
    """E2: the hot backup's post-crash recovery work is a fraction of
    the cold backup's full-log replay."""
    workload = BY_NAME["jess"]

    def measure():
        # a late crash: most of the run is already logged
        env = Environment()
        workload.prepare_env(env, bench_profile)
        probe = ReplicatedJVM(workload.compile(bench_profile), env=env,
                              config=ReplicationConfig(strategy="lock_sync"))
        probe.run(workload.main_class)
        crash_at = probe.shipper.injector.events - 1

        results = {}
        for hot in (False, True):
            env = Environment()
            workload.prepare_env(env, bench_profile)
            machine = ReplicatedJVM(workload.compile(bench_profile), env=env,
                                    config=ReplicationConfig(
                                        strategy="lock_sync",
                                        hot_backup=hot,
                                        crash_at=crash_at))
            outcome = machine.run(workload.main_class)
            assert outcome.failed_over and outcome.final_result.ok
            total = machine.backup_jvm.instructions
            recovery = total - (machine.hot_precrash_instructions if hot else 0)
            results["hot" if hot else "cold"] = (total, recovery)
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [mode, total, recovery]
        for mode, (total, recovery) in sorted(results.items())
    ]
    save_result("extension_hot_backup", render_table(
        "Extension E2: backup instructions to recover after a late crash "
        "(jess, lock-sync)",
        ["Backup", "Total instructions", "Post-crash instructions"],
        rows,
    ))
    if bench_profile != "bench":
        return
    cold_total, cold_recovery = results["cold"]
    hot_total, hot_recovery = results["hot"]
    assert cold_recovery == cold_total          # cold replays everything
    assert hot_recovery < cold_recovery * 0.2   # hot had already caught up
