"""Simulated-time cost model for the paper's experiment.

This model has one job: regenerating the paper's Table 2 and Figures
2-4 (and the ablations over them) from the counters of the six
workloads.  Anything about *this* implementation's speed — serving
latency, recovery time, what an execution engine saves — is measured
on the wall clock by ``benchmarks/wallclock/``, never priced here.

The paper measures wall-clock seconds on two Sun E5000s over 100 Mbps
Ethernet; we measure *event counts* on a simulated substrate and
convert them to simulated time with the weights below.  The weights are
calibrated once, against the qualitative facts the paper reports — they
are NOT fitted per experiment, so the benchmark figures are genuine
model outputs, not curve fits:

* communication dominates replication overhead (paper §5): per-byte
  and per-message costs are the largest multipliers;
* an output commit stalls the primary for a LAN round trip;
* a lock acquisition record costs a few dozen "instructions" to build
  and buffer (the paper's records are 36 bytes and cheap to create);
* replicated thread scheduling adds ~12 instructions of bookkeeping to
  the bytecode dispatch loop (paper §5) — modelled as a per-bytecode
  tracking charge plus a per-control-flow-change charge;
* heavy bytecodes (array element access, float arithmetic) cost more
  host cycles per dispatch than simple stack ops, and native calls pay
  a JNI-style transition — this is what makes compress and mpegaudio
  *relatively* cheap to replicate, as in Figures 3 and 4.

Time units are abstract "simple bytecode equivalents".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.replication.metrics import ReplicationMetrics


@dataclass(frozen=True)
class CostModel:
    """Weights for converting counters into simulated time."""

    # --- base execution -------------------------------------------------
    instr_unit: float = 1.0
    heavy_extra: float = 1.8        # extra cost of an array/float bytecode
    native_call: float = 12.0       # JNI-style transition per native

    # --- communication ---------------------------------------------------
    msg_fixed: float = 2500.0       # per message put on the wire
    per_byte: float = 11.0          # per payload byte
    ack_rtt: float = 30000.0        # output-commit stall (LAN round trip)

    # --- bookkeeping: replicated lock acquisition ------------------------
    lock_record: float = 22.0       # build + buffer one acquisition record
    id_map: float = 22.0

    # --- bookkeeping: replicated thread scheduling -----------------------
    sched_record: float = 150.0     # capture progress point + buffer
    per_instr_tracking: float = 0.40   # pc_off update per bytecode
    per_cf_tracking: float = 0.55      # br_cnt update per control-flow change

    # --- divergence detection --------------------------------------------
    digest_record: float = 180.0    # hash the reachable state at a slice
                                    # boundary (digest bytes additionally
                                    # pay per_byte through bytes_sent)

    # --- native interception ---------------------------------------------
    native_check: float = 8.0       # hash-table lookup per nd/output native
    result_record: float = 25.0     # build one native-result record
    se_record: float = 20.0         # run a side-effect handler's log()

    # --- backup replay ----------------------------------------------------
    replay_record: float = 28.0     # match/consume one logged record

    # ------------------------------------------------------------------
    def base_time(self, metrics: ReplicationMetrics) -> float:
        """Execution time of the program itself on this substrate."""
        return (
            metrics.instructions * self.instr_unit
            + metrics.heavy_ops * self.heavy_extra
            + metrics.native_calls * self.native_call
        )

    def primary_breakdown(self, metrics: ReplicationMetrics,
                          strategy: str) -> Dict[str, float]:
        """Overhead components at the primary (Figures 3 and 4)."""
        misc = (
            metrics.natives_intercepted * self.native_check
            + metrics.native_result_records * self.result_record
            + metrics.se_records * self.se_record
            + metrics.digest_records * self.digest_record
        )
        breakdown = {
            "base": self.base_time(metrics),
            "communication": (
                metrics.messages_sent * self.msg_fixed
                + metrics.bytes_sent * self.per_byte
            ),
            "pessimistic": metrics.ack_waits * self.ack_rtt,
        }
        if strategy == "lock_sync":
            breakdown["lock_acquire"] = (
                metrics.lock_records * self.lock_record
                + metrics.id_maps * self.id_map
            )
            breakdown["misc"] = misc
        elif strategy == "thread_sched":
            breakdown["rescheduling"] = (
                metrics.schedule_records * self.sched_record
            )
            # The paper's interpreter pays its tracking charge on every
            # bytecode; which engine *we* ran the program with is not
            # part of the experiment being modelled.
            breakdown["misc"] = misc + (
                metrics.instructions * self.per_instr_tracking
                + metrics.cf_changes * self.per_cf_tracking
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        return breakdown

    def backup_time(self, metrics: ReplicationMetrics) -> float:
        """Replay time at the backup: re-execution plus record matching
        (no messages to send, no output-commit stalls)."""
        return (
            self.base_time(metrics)
            + metrics.records_replayed * self.replay_record
        )

    def primary_time(self, metrics: ReplicationMetrics,
                     strategy: str) -> float:
        return sum(self.primary_breakdown(metrics, strategy).values())


DEFAULT_COST_MODEL = CostModel()
