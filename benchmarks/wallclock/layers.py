"""Per-layer metrics: span self times plus the program's own counters.

Times are self times of the spans :mod:`spans` recorded inside the
timed region of the traced run; counts are read after the run from
``ReplicationMetrics`` / ``TransportStats`` / JVM counters.  Every name
in :data:`spec.PER_LAYER` is reported on every workload, 0 where the
layer is not on that workload's path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

import spans as sp
from spec import PER_LAYER

#: ReplicationMetrics fields that are high-water marks, not sums.
_MAXIMA = {"retained_records_max", "largest_l_asn"}


@dataclass
class Counters:
    """Counts summed over every replica that took part in the run."""

    replication: Dict[str, float] = field(default_factory=dict)
    #: Bytecodes retired by the machines that finished the run (a
    #: restored primary continues its predecessor's count).
    instructions: int = 0
    native_calls: int = 0
    blocks_compiled: int = 0
    block_cache_hits: int = 0
    failovers: int = 0

    def absorb_metrics(self, metrics) -> None:
        """Fold one replica's ``ReplicationMetrics`` in."""
        if metrics is None:
            return
        for f in fields(metrics):
            value = getattr(metrics, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            old = self.replication.get(f.name, 0)
            self.replication[f.name] = (
                max(old, value) if f.name in _MAXIMA else old + value)

    def absorb_jvm(self, jvm) -> None:
        if jvm is None:
            return
        self.instructions += jvm.instructions
        self.native_calls += jvm.native_calls
        self.blocks_compiled += jvm.interpreter.blocks_compiled
        self.block_cache_hits += jvm.interpreter.block_cache_hits

    def absorb_group(self, group) -> None:
        """One shard: every generation's (or era's) primary and
        recovery metrics, the group-owned quorum counters, and the
        machine that finished."""
        for report in group.reports:
            self.absorb_metrics(getattr(report, "primary_metrics", None)
                                or getattr(report, "proposer_metrics", None))
            self.absorb_metrics(report.recovery_metrics)
        self.absorb_metrics(getattr(group, "metrics", None))
        self.absorb_jvm(group.final_jvm)
        self.failovers += group.failures_survived


@dataclass
class Facts:
    """What the load generator knows about the traced region."""

    #: Span indices delimiting the timed region.
    first: int = 0
    last: int = 0
    #: Requests served inside the timed region, and by the traced
    #: fleet in all (warm-up included: the span of the replicas' own
    #: counters).
    requests: int = 0
    requests_run: int = 0
    voting: bool = False
    traced_s: float = 0.0
    untraced_s: float = 0.0
    gap_s: float = 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def report(result, tracer: sp.Tracer, counters: Counters, facts: Facts,
           spans_path: Optional[str]) -> None:
    """Fill a traced run's result: every per-layer metric, the largest
    self times as notes, and the spans themselves if a path is given."""
    timed = sp.self_times(tracer.spans, facts.first, facts.last)
    result.metrics = per_layer(tracer, counters, facts, timed)
    ranked = sorted(timed.items(), key=lambda kv: -kv[1].self_s)
    result.notes = [
        f"self time {name:<28} {totals.self_s:9.4f} s  x{totals.count}"
        for name, totals in ranked[:8]
    ]
    if spans_path is not None:
        tracer.dump(spans_path)


def per_layer(tracer: sp.Tracer, counters: Counters, facts: Facts,
              timed: Dict[str, sp.SpanTotals]) -> Dict[str, float]:
    """``timed``: self times over the timed region's spans."""
    all_spans = tracer.spans
    whole = sp.self_times(all_spans)

    def self_s(*names: str) -> float:
        return sum(timed[n].self_s for n in names if n in timed)

    def total_s(*names: str) -> float:
        return sum(timed[n].total_s for n in names if n in timed)

    def count(*names: str) -> int:
        return sum(timed[n].count for n in names if n in timed)

    rep = counters.replication
    region = timed.get("driver.timed")
    region_s = region.total_s if region else 0.0
    attributed = _ratio(region_s - (region.self_s if region else 0.0),
                        region_s)
    transport_s = self_s("transport.send", "transport.send_nowait",
                         "transport.wait_ack", "transport.poll")
    links = list(tracer.transports.values())
    slices = count("runtime.run_slice")
    slice_s = self_s("runtime.run_slice")
    replica_s = self_s("runtime.replica_slice")
    records = (rep.get("lock_records", 0) + rep.get("id_maps", 0)
               + rep.get("schedule_records", 0))
    hashed = tracer.counts["digest.items_hashed"]
    reused = tracer.counts["digest.items_reused"]
    compile_spans = whole.get("minijava.compile")

    values = {
        "fleet.submit_s": self_s("fleet.submit"),
        "fleet.pump_s": self_s("fleet.pump"),
        "fleet.requests": facts.requests,
        "fleet.requests_requeued": rep.get("requests_requeued", 0),
        "machine.run_s": self_s("machine.run"),
        "machine.replay_s": self_s("machine.replay"),
        "machine.unreplicated_s": self_s("machine.unreplicated"),
        "runtime.run_slice_s": slice_s,
        "runtime.replica_slice_s": replica_s,
        "runtime.instructions": counters.instructions,
        "runtime.instr_per_s": _ratio(counters.instructions, slice_s),
        "runtime.slices": slices,
        "runtime.instr_per_slice": _ratio(counters.instructions, slices),
        "runtime.native_calls": counters.native_calls,
        "runtime.blocks_compiled": counters.blocks_compiled,
        "runtime.block_cache_hits": counters.block_cache_hits,
        "ndnatives.invoke_s": self_s("ndnatives.invoke"),
        "ndnatives.calls": count("ndnatives.invoke"),
        "ndnatives.calls_per_request": _ratio(count("ndnatives.invoke"),
                                              facts.requests),
        "ndnatives.would_starve_s": self_s("ndnatives.would_starve"),
        "ndnatives.would_starve_calls": count("ndnatives.would_starve"),
        "commit.log_s": self_s("commit.log"),
        "commit.log_calls": count("commit.log"),
        "commit.encode_s": self_s("commit.encode"),
        "commit.output_commit_s": self_s("commit.output_commit"),
        "commit.output_commits": rep.get("output_commits", 0),
        "commit.flush_s": self_s("commit.flush", "commit.arm_commit",
                                 "commit.checkpoint_commit"),
        "commit.records_per_flush": _ratio(rep.get("records_sent", 0),
                                           rep.get("messages_sent", 0)),
        "commit.bytes_per_request": _ratio(rep.get("bytes_sent", 0),
                                           facts.requests_run),
        "wire.encode_s": self_s("wire.encode"),
        "wire.decode_s": self_s("wire.decode"),
        "wire.bytes": rep.get("bytes_sent", 0),
        "transport.send_s": self_s("transport.send",
                                   "transport.send_nowait"),
        "transport.wait_ack_s": self_s("transport.wait_ack",
                                       "transport.poll"),
        "transport.messages": count("transport.send",
                                    "transport.send_nowait"),
        "transport.bytes": rep.get("bytes_sent", 0),
        "transport.acks": sum(t.stats.acks_delivered for t in links),
        "transport.retransmits": sum(t.stats.retransmits for t in links),
        "transport.reconnects": sum(t.stats.reconnects for t in links),
        "transport.self_share": _ratio(transport_s, region_s),
        "strategy.lock_records": rep.get("lock_records", 0),
        "strategy.id_maps": rep.get("id_maps", 0),
        "strategy.sched_records": rep.get("schedule_records", 0),
        "strategy.records_per_kinstr": _ratio(
            records, counters.instructions / 1000.0),
        "strategy.records_replayed": rep.get("records_replayed", 0),
        "digest.compute_s": self_s("digest.compute"),
        "digest.computes": count("digest.compute"),
        "digest.items_hashed": hashed,
        "digest.items_reused": reused,
        "digest.reuse_ratio": _ratio(reused, hashed + reused),
        "checkpoint.capture_s": self_s("checkpoint.capture_full",
                                       "checkpoint.capture_delta"),
        "checkpoint.compose_s": self_s("checkpoint.compose"),
        "checkpoint.verify_restore_s": self_s("checkpoint.verify_restore"),
        "checkpoint.restore_s": self_s("checkpoint.restore"),
        "checkpoint.deltas": rep.get("deltas_shipped", 0),
        "checkpoint.bytes_per_delta": _ratio(
            rep.get("delta_bytes", 0), rep.get("deltas_shipped", 0)),
        "checkpoint.records_truncated": rep.get("records_truncated", 0),
        "checkpoint.retained_records_max": rep.get(
            "retained_records_max", 0),
        "steady.emit_s": self_s("steady.emit"),
        "recovery.failovers": counters.failovers,
        "recovery.gap_s": facts.gap_s,
        "recovery.tail_records": rep.get("recovery_tail_records", 0),
        # Re-arming the next backup after a failover: full captures and
        # their transfer commits (the first arm happens during set-up,
        # outside the timed region).
        "recovery.rearm_s": total_s("checkpoint.capture_full",
                                    "commit.arm_commit"),
        "voting.tally_add_s": self_s("voting.tally_add"),
        "voting.gate_s": self_s("voting.gate"),
        "voting.follower_exec_s": replica_s if facts.voting else 0.0,
        "voting.votes_cast": rep.get("votes_cast", 0),
        "voting.quorum_certs": rep.get("quorum_certs", 0),
        "voting.outputs_gated": rep.get("outputs_gated", 0),
        "voting.vote_bytes": rep.get("vote_bytes", 0),
        "minijava.compile_s": compile_spans.total_s if compile_spans else 0.0,
        "trace.overhead_ratio": _ratio(facts.traced_s, facts.untraced_s),
        "trace.spans": len(all_spans),
        "trace.attributed_share": attributed,
    }
    missing = {m.name for m in PER_LAYER} ^ set(values)
    if missing:
        raise AssertionError(f"per-layer names out of step: {sorted(missing)}")
    return values
