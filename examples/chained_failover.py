"""Survive repeated failures, not just one.

A single failover leaves the survivor running alone; the replica-group
supervisor re-integrates a fresh backup after every promotion via a
digest-verified checkpoint state transfer, so the group stays
1-fault-tolerant no matter how many primaries die.

This demo kills three successive primaries over a flaky network — the
second one *in the middle of a checkpoint transfer* — and then checks
the survivors' work against a plain unreplicated run:

* the stable environment (file contents, console transcript) is
  byte-identical: every output happened exactly once;
* the final JVM state digest matches component-by-component;
* the torn generation's stale-epoch records were fenced (discarded),
  never replayed.

Run:  python examples/chained_failover.py
"""

from repro import (Environment, FAULT_PROFILES, FaultyTransport,
                   ReplicationConfig, compile_program)
from repro.replication import ReplicaGroup, run_unreplicated
from repro.runtime.digest import compute_state_digest

SOURCE = """
class Main {
    static void main(String[] args) {
        int fd = Files.open("ledger.txt", "w");
        int balance = 100;
        for (int i = 0; i < 5; i++) {
            balance = balance + i * 7;
            Files.writeLine(fd, "txn " + i + " balance=" + balance);
            System.println("committed txn " + i);
        }
        Files.close(fd);
        System.println("final balance " + balance);
    }
}
"""


def main() -> None:
    registry = compile_program(SOURCE)

    # A failure-free, unreplicated run is the oracle.
    ref_env = Environment()
    _, ref_jvm = run_unreplicated(registry, "Main", env=ref_env)
    reference = ref_env.snapshot_stable()
    ref_digest = compute_state_digest(ref_jvm, ref_env)

    # Now the same program under the supervisor, with three seeded
    # fail-stops: generation 0 dies a few events after its transfer,
    # generation 1 dies while shipping checkpoint chunks (torn
    # transfer), generation 2 dies again, generation 3 finishes.
    env = Environment()
    group = ReplicaGroup(
        registry,
        env=env,
        config=ReplicationConfig(
            strategy="lock_sync",
            crash_schedule={0: 9, 1: 4, 2: 11},
            transport=lambda generation: FaultyTransport(
                FAULT_PROFILES["flaky"], seed=17 + 97 * generation),
            batch_records=1,
            chunk_bytes=256,
        ),
    )
    result = group.run("Main")

    print(f"survived {result.failures_survived} failures, "
          f"finished in generation {result.final_generation}\n")
    for report in group.reports:
        line = (f"  gen {report.generation}: {report.outcome:22s} "
                f"ckpt={report.checkpoint_bytes}B/"
                f"{report.checkpoint_chunks} chunks")
        if report.crash_event is not None:
            line += f"  crashed at event {report.crash_event}"
        if report.detection_intervals:
            line += f"  detected after {report.detection_intervals} intervals"
        print(line)
    print(f"\nstale records fenced: {result.records_fenced}")
    print(f"checkpoint bytes shipped: {result.checkpoint_bytes_shipped}")

    assert result.failures_survived == 3
    assert group.reports[1].outcome == "crashed_in_transfer"
    assert result.records_fenced > 0

    assert env.snapshot_stable() == reference, "output diverged!"
    digest = compute_state_digest(group.final_jvm, env)
    assert digest.diff(ref_digest) == [], digest.diff(ref_digest)
    print("\nledger.txt and console byte-identical to the unreplicated "
          "run; final state digest matches. Exactly-once, three crashes "
          "deep.")


if __name__ == "__main__":
    main()
