"""Log shipping, output commit, and crash injection."""

import pytest

from repro.env.channel import Channel
from repro.errors import PrimaryCrashed
from repro.replication.commit import CrashInjector, LogShipper
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import IdMap, decode_record


def _shipper(batch=10, crash_at=None):
    channel = Channel(batch_records=batch)
    metrics = ReplicationMetrics()
    shipper = LogShipper(channel, metrics, CrashInjector(crash_at))
    return channel, metrics, shipper


def test_records_reach_backup_after_flush():
    channel, metrics, shipper = _shipper()
    shipper.log(IdMap(1, (0,), 1))
    assert channel.delivered == []
    channel.flush()
    assert decode_record(channel.delivered[0]) == IdMap(1, (0,), 1)
    assert metrics.messages_sent == 1
    assert metrics.records_sent == 1
    assert metrics.bytes_sent > 0


def test_output_commit_flushes_and_waits():
    channel, metrics, shipper = _shipper(batch=100)
    shipper.log(IdMap(1, (0,), 1))
    shipper.output_commit()
    assert len(channel.delivered) == 1
    assert metrics.output_commits == 1
    assert metrics.ack_waits == 1


def test_batch_auto_flush_counts_messages():
    channel, metrics, shipper = _shipper(batch=3)
    for i in range(7):
        shipper.log(IdMap(i, (0,), i))
    assert metrics.messages_sent == 2          # two full batches
    assert channel.pending_records == 1


def test_crash_injector_fires_at_exact_event():
    channel, metrics, shipper = _shipper(crash_at=3)
    shipper.log(IdMap(1, (0,), 1))
    shipper.log(IdMap(2, (0,), 2))
    with pytest.raises(PrimaryCrashed, match=r"event 3 \(log:IdMap\)"):
        shipper.log(IdMap(3, (0,), 3))
    assert shipper.injector.fired
    assert shipper.injector.events == 3


def test_crash_injector_disabled_by_default():
    injector = CrashInjector()
    for i in range(100):
        injector.step("x")
    assert not injector.fired


def test_commit_is_a_crash_event():
    channel, metrics, shipper = _shipper(crash_at=2)
    shipper.log(IdMap(1, (0,), 1))
    with pytest.raises(PrimaryCrashed):
        shipper.output_commit()
    # The flush never happened: the record is lost with the primary.
    channel.crash_primary()
    assert channel.backup_log() == []


# ======================================================================
# Atomic log units (marker + side-effect record)
# ======================================================================
def test_atomic_section_defers_auto_flush():
    channel, metrics, shipper = _shipper(batch=1)
    with shipper.atomic():
        shipper.log(IdMap(1, (0,), 1))
        assert channel.delivered == []         # batch=1 would have flushed
        shipper.log(IdMap(2, (0,), 2))
        assert channel.delivered == []
    # Closing the section flushes the whole unit as one message.
    assert len(channel.delivered) == 2
    assert metrics.messages_sent == 1


def test_atomic_unit_is_lost_together_on_crash():
    """A crash inside an atomic section must not push out the unit's
    earlier records during the unwind — marker and side-effect record
    are delivered together or lost together."""
    channel, metrics, shipper = _shipper(batch=1, crash_at=2)
    shipper.log(IdMap(1, (0,), 1))             # flushes (batch=1)
    with pytest.raises(PrimaryCrashed):
        with shipper.atomic():
            shipper.log(IdMap(2, (0,), 2))     # buffered, held
            shipper.log(IdMap(3, (0,), 3))     # injector fires here
    channel.crash_primary()
    assert len(channel.backup_log()) == 1      # only the pre-unit record


def test_atomic_sections_nest():
    channel, metrics, shipper = _shipper(batch=1)
    with shipper.atomic():
        shipper.log(IdMap(1, (0,), 1))
        with shipper.atomic():
            shipper.log(IdMap(2, (0,), 2))
        assert channel.delivered == []         # inner close keeps holding
    assert len(channel.delivered) == 2


def test_atomic_noop_with_large_batch():
    channel, metrics, shipper = _shipper(batch=100)
    with shipper.atomic():
        shipper.log(IdMap(1, (0,), 1))
    assert channel.delivered == []             # batch not full: no flush
    assert channel.pending_records == 1


# ======================================================================
# Batched per-flush encoding
# ======================================================================
def test_log_buffers_objects_and_encodes_at_flush():
    """The hot log() call must not serialize: records sit in the buffer
    as objects and the whole batch is encoded once, at flush."""
    channel, metrics, shipper = _shipper(batch=100)
    shipper.log(IdMap(1, (0,), 1))
    shipper.log(IdMap(2, (0,), 2))
    assert all(not isinstance(r, bytes) for r in channel._buffer)
    channel.flush()
    assert [decode_record(p) for p in channel.delivered] == \
        [IdMap(1, (0,), 1), IdMap(2, (0,), 2)]


@pytest.mark.parametrize("epoch", [None, 0, 5, 300])
def test_batched_encoding_is_byte_identical(epoch):
    """Per-flush batch encoding produces exactly the bytes the old
    per-record path produced: ``encode(EpochRecord(epoch, encode(r)))``
    for each record, in order."""
    from repro.replication.commit import CrashInjector, LogShipper
    from repro.replication.records import (
        EpochRecord, LockAcqRecord, OutputIntentRecord, encode,
    )

    records = [
        IdMap(1, (0,), 1),
        LockAcqRecord((1,), 7, 3, 2),
        OutputIntentRecord((1,), 2, "Server.reply"),
    ]
    channel = Channel(batch_records=100)
    shipper = LogShipper(channel, ReplicationMetrics(), CrashInjector(),
                         epoch=epoch)
    for record in records:
        shipper.log(record)
    channel.flush()

    if epoch is None:
        reference = [encode(r) for r in records]
    else:
        reference = [encode(EpochRecord(epoch, encode(r)))
                     for r in records]
    assert channel.delivered == reference
