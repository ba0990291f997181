"""Strategy registry: plug-in coordination strategies without core edits.

The headline test registers a complete third-party strategy — with its
own wire-level record type — from test code only, and runs it through
``ReplicatedJVM`` failover.  Nothing in ``machine.py`` knows about it.
"""

from dataclasses import dataclass

import pytest

from repro.env.environment import Environment
from repro.errors import ReplicationError
from repro.minijava import compile_program
from repro.replication import (
    AdmissionBackupDriver,
    AdmissionPrimaryDriver,
    CoordinationStrategy,
    FIRST_CUSTOM_KIND,
    LockSyncStrategy,
    register_log_record,
    register_record_kind,
    register_strategy,
    resolve_strategy,
    strategy_names,
)
from repro.replication.config import ReplicationConfig
from repro.replication.lock_sync import BackupLockSync, PrimaryLockSync
from repro.replication.machine import ReplicatedJVM, parse_log
from repro.replication.records import encode
from repro.replication.wire import Reader, Writer

COUNTER_PROGRAM = """
class Counter {
    int n;
    synchronized void add(int d) { n = n + d; }
    synchronized int get() { return n; }
}
class Worker extends Thread {
    Counter c; int d;
    Worker(Counter c, int d) { this.c = c; this.d = d; }
    void run() { for (int i = 0; i < 40; i++) { c.add(d); } }
}
class Main {
    static void main(String[] args) {
        Counter c = new Counter();
        Worker a = new Worker(c, 1); Worker b = new Worker(c, 100);
        a.start(); b.start(); a.join(); b.join();
        System.println("total=" + c.get());
    }
}
"""


# ======================================================================
# A complete plug-in strategy, defined entirely in test code
# ======================================================================
_EPOCH_KIND = FIRST_CUSTOM_KIND + 3


@dataclass(frozen=True)
class EpochRecord:
    """Plug-in record: a primary-side epoch stamp shipped in-log."""

    epoch: int

    def write(self, w: Writer) -> None:
        w.uvarint(_EPOCH_KIND).uvarint(self.epoch)

    @staticmethod
    def read(r: Reader) -> "EpochRecord":
        return EpochRecord(r.uvarint())


register_record_kind(_EPOCH_KIND, EpochRecord.read)
register_log_record(EpochRecord)    # default rule: parsed.extra bucket


class _EpochPrimaryDriver(AdmissionPrimaryDriver):
    def __init__(self, shipper, metrics):
        super().__init__(PrimaryLockSync(shipper, metrics))
        self._shipper = shipper

    def install(self, jvm) -> None:
        super().install(jvm)
        self._shipper.log(EpochRecord(1))


class EpochLockSyncStrategy(CoordinationStrategy):
    """Lock-sync semantics plus an epoch stamp at the head of the log —
    the minimal strategy that needs its own record type."""

    name = "epoch_lock_sync"

    def __init__(self):
        self.backup_saw_epochs = []

    def make_primary(self, shipper, metrics, settings, config):
        return _EpochPrimaryDriver(shipper, metrics)

    def make_backup(self, parsed_log, metrics, settings, config):
        epochs = parsed_log.extra.get("EpochRecord", [])
        self.backup_saw_epochs.append([e.epoch for e in epochs])
        admission = BackupLockSync(
            parsed_log.id_maps, parsed_log.lock_acqs, metrics
        )
        return AdmissionBackupDriver(
            admission,
            extend=lambda p: admission.extend(p.id_maps, p.lock_acqs),
        )


register_strategy(EpochLockSyncStrategy())


def test_plugin_strategy_runs_failover_end_to_end():
    """A strategy registered from test code — custom record type and
    all — completes failover through the unmodified machine."""
    env0 = Environment()
    reference = ReplicatedJVM(compile_program(COUNTER_PROGRAM), env=env0,
                              config=ReplicationConfig(
                                  strategy="epoch_lock_sync"))
    result = reference.run("Main")
    assert result.outcome == "primary_completed"
    assert env0.console.transcript() == "total=4040\n"
    events = reference.shipper.injector.events

    strategy = resolve_strategy("epoch_lock_sync")
    step = max(1, events // 20)
    for crash_at in range(2, events + 1, step):
        clone = reference.clone(crash_at=crash_at)
        outcome = clone.run("Main")
        assert outcome.failed_over, crash_at
        assert outcome.final_result.ok, crash_at
        assert clone.env.console.transcript() == "total=4040\n", crash_at
    # Every backup build after the first flush saw the epoch stamp.
    assert any(epochs == [1] for epochs in strategy.backup_saw_epochs)


def test_custom_record_round_trips_through_parse_log():
    parsed = parse_log([encode(EpochRecord(7))])
    assert parsed.total == 1
    assert parsed.extra["EpochRecord"] == [EpochRecord(7)]


def test_reserved_record_kinds_are_protected():
    with pytest.raises(ReplicationError, match="reserved"):
        register_record_kind(3, EpochRecord.read)
    with pytest.raises(ReplicationError, match="already registered"):
        register_record_kind(_EPOCH_KIND, EpochRecord.read)


# ======================================================================
# Registry mechanics
# ======================================================================
def test_builtin_names_resolve():
    assert {"lock_sync", "thread_sched", "lock_intervals"} <= set(
        strategy_names()
    )
    assert isinstance(resolve_strategy("lock_sync"), LockSyncStrategy)


def test_strategy_objects_pass_straight_through():
    strategy = LockSyncStrategy()
    machine = ReplicatedJVM(compile_program(COUNTER_PROGRAM),
                            config=ReplicationConfig(strategy=strategy))
    assert machine.strategy == "lock_sync"
    assert resolve_strategy(strategy) is strategy


def test_unknown_strategy_lists_registered_names():
    with pytest.raises(ReplicationError, match="unknown strategy"):
        resolve_strategy("quantum")
    with pytest.raises(ReplicationError, match="lock_sync"):
        resolve_strategy("quantum")


def test_duplicate_registration_rejected_unless_replaced():
    with pytest.raises(ReplicationError, match="already registered"):
        register_strategy(LockSyncStrategy())
    register_strategy(LockSyncStrategy(), replace=True)   # explicit wins


def test_nameless_strategy_rejected():
    with pytest.raises(ReplicationError, match="no name"):
        register_strategy(CoordinationStrategy())
