"""Native invocation policies: interception, adoption, suppression."""

import pytest

from repro.env.environment import Environment
from repro.errors import RecoveryError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, parse_log
from repro.replication.records import NativeResultRecord, OutputIntentRecord


def _run(source, strategy="lock_sync", crash_at=None, env=None):
    env = env or Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                strategy=strategy,
                                crash_at=crash_at))
    result = machine.run("Main")
    return machine, result, env


def test_deterministic_natives_not_logged():
    machine, _, _ = _run("""
        class Main {
            static void main(String[] args) {
                float x = 0.0;
                for (int i = 0; i < 50; i++) { x = x + Math.sqrt(2.0); }
                System.println((int) x);
            }
        }
    """)
    parsed = parse_log(machine.channel.backup_log())
    signatures = {r.signature for rs in parsed.results.values() for r in rs}
    assert "Math.sqrt/1" not in signatures
    assert machine.primary_metrics.natives_intercepted == 0


def test_nondeterministic_results_logged_per_thread():
    machine, _, _ = _run("""
        class Reader extends Thread {
            void run() {
                int t = System.currentTimeMillis();
            }
        }
        class Main {
            static void main(String[] args) {
                int t = System.currentTimeMillis();
                Reader r = new Reader();
                r.start(); r.join();
            }
        }
    """)
    parsed = parse_log(machine.channel.backup_log())
    assert (0,) in parsed.results          # main thread's clock read
    assert (0, 0) in parsed.results        # child's clock read
    assert machine.primary_metrics.natives_intercepted == 2


def test_output_intent_precedes_result_in_log():
    machine, _, _ = _run("""
        class Main {
            static void main(String[] args) {
                System.println("once");
            }
        }
    """)
    from repro.replication.records import decode_record
    records = [decode_record(b) for b in machine.channel.backup_log()]
    kinds = [type(r).__name__ for r in records]
    intent_idx = kinds.index("OutputIntentRecord")
    result_idx = kinds.index("NativeResultRecord")
    assert intent_idx < result_idx
    assert machine.primary_metrics.output_commits == 1


def test_backup_adopts_primary_clock_values():
    source = """
        class Main {
            static void main(String[] args) {
                int a = System.currentTimeMillis();
                int b = System.currentTimeMillis();
                System.println(a + ":" + b);
            }
        }
    """
    env = Environment()
    machine, result, _ = _run(source, env=env)
    primary_output = env.console.transcript()
    machine.replay_backup("Main")
    # Replay suppressed the println; but the backup computed the SAME
    # string, which the state digest equality proves.
    assert env.console.transcript() == primary_output
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert machine.backup_metrics.natives_intercepted == 2
    assert machine.backup_metrics.outputs_suppressed == 1


def test_backup_detects_signature_mismatch():
    from repro.replication.ndnatives import BackupNativePolicy
    from repro.replication.sehandlers import SideEffectManager
    from repro.replication.metrics import ReplicationMetrics
    from repro.runtime.stdlib import default_natives
    from repro.runtime.threads import JavaThread

    policy = BackupNativePolicy(
        results={(0,): [NativeResultRecord((0,), 1, "Env.randomInt/1", 5)]},
        intents={},
        se_manager=SideEffectManager(),
        metrics=ReplicationMetrics(),
    )
    thread = JavaThread((0,), None)
    spec = default_natives().lookup("System.currentTimeMillis/0")
    with pytest.raises(RecoveryError, match="diverged"):
        policy.invoke(None, spec, thread, None, [])


def test_array_out_params_adopted():
    """Files reads that fill arrays (via toChars of a read line) replay
    from the log with identical contents."""
    source = """
        class Main {
            static void main(String[] args) {
                int fd = Files.open("in.txt", "r");
                String line = Files.readLine(fd);
                Files.close(fd);
                int[] chars = line.toChars();
                int sum = 0;
                for (int i = 0; i < chars.length; i++) { sum += chars[i]; }
                System.println(sum);
            }
        }
    """
    env = Environment()
    env.fs.put("in.txt", "abc\n")
    machine, result, _ = _run(source, env=env)
    assert result.final_result.ok
    assert env.console.lines() == [str(ord("a") + ord("b") + ord("c"))]
    machine.replay_backup("Main")
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()


def test_exceptions_from_natives_replayed():
    """A native that threw at the primary (missing file) must throw the
    identical Java exception at the backup."""
    source = """
        class Main {
            static void main(String[] args) {
                try {
                    int fd = Files.open("missing.txt", "r");
                    System.println("opened " + fd);
                } catch (IOException e) {
                    System.println("io error");
                }
                System.println("done");
            }
        }
    """
    env = Environment()
    machine, result, _ = _run(source, env=env)
    assert env.console.lines() == ["io error", "done"]
    machine.replay_backup("Main")
    assert machine.backup_jvm.state_digest() == \
        machine.primary_jvm.state_digest()
    assert env.console.lines() == ["io error", "done"]  # no duplicates


def test_live_natives_after_log_exhaustion():
    """After replay consumes the log, natives execute live against the
    backup's own session (fresh clock/entropy)."""
    source = """
        class Main {
            static void main(String[] args) {
                System.println("t=" + (System.currentTimeMillis() > 0));
                System.println("r=" + (Env.randomInt(10) >= 0));
            }
        }
    """
    machine, result, env = _run(source, crash_at=4)
    assert result.failed_over
    assert result.final_result.ok
    assert env.console.lines() == ["t=true", "r=true"]
