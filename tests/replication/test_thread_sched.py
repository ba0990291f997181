"""Replicated thread scheduling: unit-level controller behaviour."""

import pytest

from repro.env.environment import Environment
from repro.errors import RecoveryError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import ScheduleRecord
from repro.replication.thread_sched import BackupSchedController
from repro.runtime.scheduler import ScheduleController, SliceEnd
from repro.runtime.threads import JavaThread, ThreadState

MULTI = """
    class W extends Thread {
        static Object lock = new Object();
        static int shared;
        void run() {
            for (int i = 0; i < 100; i++) {
                synchronized (lock) { shared = shared + 1; }
            }
        }
    }
    class Main {
        static void main(String[] args) {
            W a = new W(); W b = new W();
            a.start(); b.start(); a.join(); b.join();
            System.println(W.shared);
        }
    }
"""


def test_primary_logs_one_record_per_switch():
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    metrics = machine.primary_metrics
    # Reschedules include the very first dispatch (no record) so
    # records == reschedules - 1 when no system threads intervene.
    assert metrics.schedule_records == metrics.reschedules - 1
    assert metrics.schedule_records > 2


def test_single_threaded_program_logs_no_schedule_records():
    """Paper: 'a record is sent only when a new thread is scheduled';
    single-threaded apps transmit none."""
    env = Environment()
    source = """
        class Main {
            static void main(String[] args) {
                int acc = 0;
                for (int i = 0; i < 5000; i++) { acc = acc + i; }
                System.println(acc);
            }
        }
    """
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    assert machine.primary_metrics.schedule_records == 0


def test_records_capture_progress_of_descheduled_thread():
    env = Environment()
    machine = ReplicatedJVM(compile_program(MULTI), env=env,
                            config=ReplicationConfig(strategy="thread_sched"))
    machine.run("Main")
    from repro.replication.machine import parse_log
    parsed = parse_log(machine.channel.backup_log())
    assert parsed.schedules
    for record in parsed.schedules:
        assert record.br_cnt >= 0
        assert record.mon_cnt >= 0
        assert record.t_id != ()  # next thread named
        # prev and next differ (a switch happened)
        assert record.t_id != record.prev_t_id


def _controller(records):
    return BackupSchedController(
        records, ScheduleController(0, 50, 0), ReplicationMetrics()
    )


class _FakeJvm:
    def __init__(self, threads):
        self.threads_by_vid = {t.vid: t for t in threads}
        self.main_thread = threads[0]


class _FakeScheduler:
    def __init__(self):
        from collections import deque
        self.runnable = deque()


def _runnable(vid):
    t = JavaThread(vid, None)
    t.state = ThreadState.RUNNABLE
    return t


def test_backup_should_preempt_matches_progress_exactly():
    rec = ScheduleRecord(10, 4, 2, -1, (0, 0), (0,))
    ctrl = _controller([rec])
    t = _runnable((0,))
    t.br_cnt, t.mon_cnt = 10, 2
    # progress_point uses the current frame's pc; fake it with frames
    class _F:
        pc = 4
    t.frames = [_F()]
    assert ctrl.should_preempt(t) is True
    t.br_cnt = 9
    assert ctrl.should_preempt(t) is False
    t.br_cnt = 10
    _F.pc = 5
    assert ctrl.should_preempt(t) is False


def test_backup_consume_switches_current_thread():
    rec = ScheduleRecord(0, -1, 0, -1, (0, 0), (0,))
    ctrl = _controller([rec])
    main = _runnable((0,))
    child = _runnable((0, 0))
    ctrl.jvm = _FakeJvm([main, child])
    sched = _FakeScheduler()
    assert ctrl.pick_next(sched) is main
    ctrl._consume(rec, main)
    assert ctrl.pick_next(sched) is child
    assert not ctrl.in_recovery


def test_backup_detects_wrong_previous_thread():
    rec = ScheduleRecord(0, -1, 0, -1, (0, 0), (0,))
    ctrl = _controller([rec])
    impostor = _runnable((0, 1))
    with pytest.raises(RecoveryError, match="diverged"):
        ctrl._consume(rec, impostor)


def test_backup_detects_early_stop():
    rec = ScheduleRecord(100, 5, 0, -1, (0, 0), (0,))
    ctrl = _controller([rec])
    t = _runnable((0,))
    t.br_cnt = 3

    class _F:
        pc = 1
    t.frames = [_F()]
    with pytest.raises(RecoveryError, match="stopped"):
        ctrl.on_slice_end(t, SliceEnd.BLOCKED)


def test_backup_off_target_yield_is_tolerated():
    """The primary's yield that didn't switch produces no record; the
    backup must not consume one either."""
    rec = ScheduleRecord(100, 5, 0, -1, (0, 0), (0,))
    ctrl = _controller([rec])
    t = _runnable((0,))
    t.br_cnt = 3

    class _F:
        pc = 1
    t.frames = [_F()]
    ctrl.on_slice_end(t, SliceEnd.YIELDED)
    assert ctrl.remaining() == 1


def test_backup_names_unknown_thread():
    rec = ScheduleRecord(0, -1, 0, -1, (9, 9), (0,))
    ctrl = _controller([rec])
    main = _runnable((0,))
    ctrl.jvm = _FakeJvm([main])
    ctrl._current_vid = (9, 9)
    with pytest.raises(RecoveryError, match="unknown thread"):
        ctrl.pick_next(_FakeScheduler())


def test_backup_live_mode_delegates_to_fallback():
    ctrl = _controller([])
    main = _runnable((0,))
    sched = _FakeScheduler()
    sched.runnable.append(main)
    assert ctrl.pick_next(sched) is main
    assert ctrl.quantum(main) == 50  # fallback quantum, not replay


def _census_threads(case):
    main = _runnable((0,))
    if case == "one thread":
        return [main]
    if case == "two live threads":
        return [main, _runnable((0, 0))]
    if case == "terminated child":
        child = JavaThread((0, 0), None)
        child.state = ThreadState.TERMINATED
        return [main, child]
    assert case == "system thread"
    system = JavaThread((-1,), None, is_system=True)
    system.state = ThreadState.RUNNABLE
    return [main, system]


@pytest.mark.parametrize("case, several", [
    ("one thread", False),
    ("two live threads", True),
    ("terminated child", False),
    ("system thread", False),
])
def test_drained_hold_census_matches_full_walk(case, several):
    """The drained-hold check that stops a replay before it guesses an
    interleaving answers exactly what counting every live application
    thread answers — too early diverges, too late never stops."""
    from repro.runtime.scheduler import Scheduler

    threads = _census_threads(case)
    sched = Scheduler(lambda: 0.0)
    for t in threads:
        sched.register(t)
    full_walk = sum(1 for t in sched.threads
                    if t.alive and not t.is_system) > 1
    ctrl = _controller([])
    ctrl.hold_when_drained = True
    ctrl.jvm = _FakeJvm(threads)
    ctrl.jvm.scheduler = sched
    assert full_walk is several
    assert ctrl._several_live_app_threads(sched) is several
    assert ctrl.should_preempt(threads[0]) is several
