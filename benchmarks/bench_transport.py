"""Output-commit latency as a function of the link's round-trip time.

The paper's output-commit protocol stalls the primary until the backup
acks the flushed log (§4.1) — on their single-switch LAN that wait was
negligible.  With the transport pluggable, we can ask what the
protocol costs on links it was *not* designed for: the benchmark sweeps
the injected one-way latency of a clean :class:`FaultyTransport` and
reports the ack wait per output commit, which should track the injected
RTT (2x one-way) almost exactly — the protocol adds nothing on top.

A lossy row at the end shows what retransmissions do to the same
figure: each dropped DATA message costs a retry timeout, not just an
RTT, so the per-commit wait jumps disproportionately.
"""

from repro.harness.tables import render_table
from repro.replication.config import ReplicationConfig
from repro.replication.transport import FaultProfile, FaultyTransport

#: Injected one-way latencies, in virtual-clock ticks.
LATENCIES = (0.0, 2.0, 8.0, 32.0, 128.0)

#: Program used by the checkpoint-transfer benchmark — enough heap and
#: output traffic that the shipped snapshot spans several chunks.
_CKPT_SOURCE = """
class Main {
    static void main(String[] args) {
        int[] data = new int[96];
        for (int i = 0; i < 96; i++) { data[i] = i * i; }
        int fd = Files.open("ckpt.txt", "w");
        for (int i = 0; i < 6; i++) {
            Files.writeLine(fd, "row " + data[i]);
        }
        Files.close(fd);
        System.println("sum " + data[95]);
    }
}
"""


def _commit_wait(template, profile, seed=17):
    machine = template.clone(transport=FaultyTransport(profile, seed=seed))
    result = machine.run("Main")
    assert result.outcome == "primary_completed"
    metrics = machine.primary_metrics
    assert metrics.output_commits > 0
    return metrics, metrics.ack_wait_time / metrics.output_commits


def test_commit_latency_tracks_injected_rtt(benchmark, bench_profile,
                                            commit_heavy_template,
                                            save_result):
    def sweep():
        rows = {}
        for latency in LATENCIES:
            profile = FaultProfile(latency=latency,
                                   retry_timeout=8 * latency + 40.0)
            rows[latency] = _commit_wait(commit_heavy_template, profile)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lossy_metrics, lossy_wait = _commit_wait(
        commit_heavy_template,
        FaultProfile(latency=8.0, drop_rate=0.3, retry_timeout=60.0),
    )

    table = [
        [f"{latency:g}", f"{2 * latency:g}", metrics.output_commits,
         f"{wait:.1f}", metrics.retransmits]
        for latency, (metrics, wait) in sorted(rows.items())
    ]
    table.append(["8 (30% loss)", "16+", lossy_metrics.output_commits,
                  f"{lossy_wait:.1f}", lossy_metrics.retransmits])
    save_result("transport_commit_latency", render_table(
        "Output-commit ack wait vs injected link RTT (virtual ticks)",
        ["One-way latency", "RTT", "Commits", "Wait/commit", "Retransmits"],
        table,
    ))

    waits = [wait for _, (_, wait) in sorted(rows.items())]
    assert waits == sorted(waits)                  # monotone in RTT
    for latency, (metrics, wait) in rows.items():
        assert metrics.retransmits == 0            # clean link
        # The measured wait is the RTT minus the send's own clock tick
        # (the flush advances virtual time before the wait starts).
        assert wait >= 2 * latency - 2
    # The protocol's own contribution stays flat: going from RTT 4 to
    # RTT 256 raises the wait by (close to) exactly the RTT difference.
    overhead_low = rows[2.0][1] - 4.0
    overhead_high = rows[128.0][1] - 256.0
    assert abs(overhead_high - overhead_low) <= 0.25 * rows[128.0][1]
    # Loss costs more than latency: the lossy link's per-commit wait
    # exceeds the clean link's at the same injected latency.
    assert lossy_wait > rows[8.0][1]
    assert lossy_metrics.retransmits > 0


def _chained_failover(latency, *, crash_at=12, chunk_bytes=256, seed=23):
    """One supervised run with a seeded generation-0 crash over a clean
    link with the given one-way latency.  Returns (group, result)."""
    from repro.env.environment import Environment
    from repro.minijava import compile_program
    from repro.replication.supervisor import ReplicaGroup

    profile = FaultProfile(latency=latency,
                           retry_timeout=8 * latency + 40.0)
    group = ReplicaGroup(
        compile_program(_CKPT_SOURCE),
        env=Environment(),
        config=ReplicationConfig(
            strategy="lock_sync",
            crash_schedule={0: crash_at},
            transport=lambda generation: FaultyTransport(
                profile, seed=seed + 97 * generation),
            chunk_bytes=chunk_bytes,
            batch_records=1,
        ),
    )
    return group, group.run("Main")


def test_checkpoint_transfer_cost_tracks_rtt(benchmark, bench_profile,
                                             save_result):
    """Checkpoint state transfer: bytes shipped are a property of the
    program state (invariant under link latency), while the transfer
    commit's stall tracks the round-trip time like any other ack."""
    def sweep():
        rows = {}
        for latency in LATENCIES:
            group, result = _chained_failover(latency)
            assert result.outcome == "completed"
            assert result.failures_survived == 1
            rows[latency] = (group, result)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = []
    for latency, (group, result) in sorted(rows.items()):
        chunks = sum(r.checkpoint_chunks for r in group.reports)
        transfer_wait = sum(
            r.primary_metrics.checkpoint_transfer_wait
            for r in group.reports if r.primary_metrics is not None
        )
        table.append([
            f"{latency:g}", result.final_generation + 1, chunks,
            result.checkpoint_bytes_shipped, f"{transfer_wait:.1f}",
        ])
    save_result("transport_checkpoint_transfer", render_table(
        "Checkpoint state transfer vs injected link latency",
        ["One-way latency", "Generations", "Chunks", "Bytes",
         "Transfer wait"],
        table,
    ))

    byte_counts = {result.checkpoint_bytes_shipped
                   for _, result in rows.values()}
    assert len(byte_counts) == 1               # bytes invariant under RTT
    waits = [
        sum(r.primary_metrics.checkpoint_transfer_wait
            for r in group.reports if r.primary_metrics is not None)
        for _, (group, _) in sorted(rows.items())
    ]
    assert waits == sorted(waits)              # wait monotone in RTT
    assert waits[-1] > waits[0]                # and actually moves
