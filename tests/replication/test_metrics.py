"""Replication metrics accounting."""

from dataclasses import fields

from repro.replication.metrics import ReplicationMetrics


def test_records_logged_sums_all_record_kinds():
    m = ReplicationMetrics()
    m.lock_records = 10
    m.id_maps = 2
    m.schedule_records = 3
    m.native_result_records = 4
    m.se_records = 5
    m.output_commits = 1
    assert m.records_logged == 25


def test_as_dict_round_trips_counters():
    m = ReplicationMetrics(role="backup")
    m.outputs_suppressed = 7
    m.interval_acquisitions = 3
    d = m.as_dict()
    assert d["outputs_suppressed"] == 7
    assert d["interval_acquisitions"] == 3
    assert "lock_records" in d


def test_as_dict_has_a_key_for_every_numeric_field():
    """The dict is derived from the dataclass, so a new counter cannot
    fall out of it (the hand-kept list had lost six)."""
    m = ReplicationMetrics()
    numeric = {f.name for f in fields(m)
               if isinstance(getattr(m, f.name), (int, float))}
    assert {"heavy_ops", "native_calls", "heartbeats_sent",
            "heartbeats_delivered", "ack_wait_time",
            "checkpoint_transfer_wait"} <= numeric
    assert numeric <= set(m.as_dict())


def test_absorb_sums_counters_and_takes_max_of_high_water_marks():
    total = ReplicationMetrics(role="voting-group")
    for bytes_sent, wait, retained, l_asn in ((100, 0.5, 40, 7),
                                              (30, 0.25, 90, 3),
                                              (5, 0.0, 20, 5)):
        era = ReplicationMetrics()
        era.bytes_sent = bytes_sent
        era.ack_wait_time = wait
        era.retained_records_max = retained
        era.largest_l_asn = l_asn
        total.absorb(era)
    assert total.bytes_sent == 135
    assert total.ack_wait_time == 0.75
    assert total.retained_records_max == 90
    assert total.largest_l_asn == 7
    assert total.role == "voting-group"   # labels are not folded


def test_defaults_are_zero():
    m = ReplicationMetrics()
    d = m.as_dict()
    assert d.pop("role") == "primary"  # labels, not counters
    assert d.pop("engine") == "step"
    assert all(v == 0 for v in d.values())
