"""Cost model arithmetic and table rendering."""

import pytest

from repro.harness.costs import DEFAULT_COST_MODEL, CostModel
from repro.harness.tables import averages, render_table
from repro.replication.metrics import ReplicationMetrics


def _metrics(**kw):
    m = ReplicationMetrics()
    for key, value in kw.items():
        setattr(m, key, value)
    return m


def test_base_time_weights_heavy_ops_and_natives():
    model = CostModel()
    plain = model.base_time(_metrics(instructions=1000))
    heavy = model.base_time(_metrics(instructions=1000, heavy_ops=500))
    nativ = model.base_time(_metrics(instructions=1000, native_calls=10))
    assert plain == 1000
    assert heavy == 1000 + 500 * model.heavy_extra
    assert nativ == 1000 + 10 * model.native_call


def test_lock_sync_breakdown_components():
    model = CostModel()
    m = _metrics(
        instructions=1000, lock_records=10, id_maps=2,
        messages_sent=3, bytes_sent=100, ack_waits=1,
        natives_intercepted=4, native_result_records=4, se_records=1,
    )
    b = model.primary_breakdown(m, "lock_sync")
    assert b["base"] == 1000
    assert b["communication"] == 3 * model.msg_fixed + 100 * model.per_byte
    assert b["pessimistic"] == model.ack_rtt
    assert b["lock_acquire"] == 12 * model.lock_record
    assert "rescheduling" not in b
    assert b["misc"] > 0


def test_thread_sched_breakdown_has_tracking_cost():
    model = CostModel()
    m = _metrics(instructions=1000, cf_changes=200, schedule_records=5)
    b = model.primary_breakdown(m, "thread_sched")
    assert b["rescheduling"] == 5 * model.sched_record
    expected_tracking = (1000 * model.per_instr_tracking
                         + 200 * model.per_cf_tracking)
    assert b["misc"] == pytest.approx(expected_tracking)
    assert "lock_acquire" not in b


def test_breakdown_does_not_depend_on_the_engine_that_ran_it():
    """The model prices the paper's interpreter; ``metrics.engine`` is
    a label of ours and selects nothing (it once shrank the tracking
    charge 5x under ``slice`` and turned Figure 4 upside down)."""
    model = CostModel()
    breakdowns = [
        model.primary_breakdown(
            _metrics(instructions=1000, cf_changes=200, schedule_records=5,
                     messages_sent=3, bytes_sent=100, records_sent=40,
                     engine=engine),
            "thread_sched")
        for engine in ("step", "slice", "block")
    ]
    assert breakdowns[0] == breakdowns[1] == breakdowns[2]


def test_thread_sched_overhead_is_dominated_by_bookkeeping():
    """Figure 4's shape claim on a real run of the default engine:
    misc (per-bytecode tracking) outweighs communication."""
    from repro.env.environment import Environment
    from repro.replication.config import ReplicationConfig
    from repro.replication.machine import ReplicatedJVM
    from repro.workloads import BY_NAME

    workload = BY_NAME["mtrt"]
    env = Environment()
    workload.prepare_env(env, "test")
    machine = ReplicatedJVM(workload.compile("test"), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    assert machine.run(workload.main_class).final_result.ok
    metrics = machine.primary_metrics
    assert metrics.engine == "slice"
    b = CostModel().primary_breakdown(metrics, "thread_sched")
    assert b["misc"] > b["communication"]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        CostModel().primary_breakdown(_metrics(), "quantum")


def test_backup_time_charges_replay():
    model = CostModel()
    m = _metrics(instructions=1000, records_replayed=10)
    assert model.backup_time(m) == 1000 + 10 * model.replay_record


def test_primary_time_is_breakdown_sum():
    model = DEFAULT_COST_MODEL
    m = _metrics(instructions=500, lock_records=5, messages_sent=1,
                 bytes_sent=50)
    assert model.primary_time(m, "lock_sync") == pytest.approx(
        sum(model.primary_breakdown(m, "lock_sync").values())
    )


def test_render_table_alignment():
    text = render_table("Title", ["Name", "A", "B"],
                        [["row1", 1, 2.5], ["longer-row", 30, 4]])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert lines[2].startswith("-")        # separator under the header
    assert "row1" in lines[3]
    assert "2.50" in lines[3]
    assert "longer-row" in lines[4]


def test_averages():
    data = {w: {"total": i + 1.0} for i, w in enumerate(
        ("jess", "jack", "compress", "db", "mpegaudio", "mtrt"))}
    assert averages(data, "total") == pytest.approx(3.5)
