"""Native invocation policies (paper §4.1 + §3.4).

The primary intercepts every native whose signature is in the
non-deterministic hash table or which is annotated as an output command:

* output commands go through *output commit* first — log the intent,
  flush, wait for the backup's ack — then execute, then log a
  :class:`~repro.replication.records.NativeResultRecord` (the
  completion marker) and the side-effect handler's payload;
* non-deterministic inputs execute and have their results logged so the
  backup can adopt them.

The backup, during recovery:

* adopts logged results for non-deterministic natives without invoking
  them (including modified array arguments);
* suppresses output commands whose completion marker was delivered;
* for the single *uncertain* output (intent delivered, no marker —
  the primary crashed in between), first restores volatile state, then
  either ``test``s testable outputs (suppressing if they completed) or
  re-executes idempotent ones — exactly-once either way;
* once a thread runs past its logged history, executes natives live
  (restoring volatile state first if not already done).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.classfile.model import JMethod
from repro.env.port import (
    INGEST_SIGNATURE,
    REPLY_SIGNATURE,
    ingest_starved,
)
from repro.errors import RecoveryError
from repro.replication.commit import LogShipper
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import (
    NativeResultRecord,
    OutputIntentRecord,
)
from repro.replication.sehandlers import SideEffectManager
from repro.runtime.natives import (
    NativeContext,
    NativeOutcome,
    NativeSpec,
    call_native,
)

Vid = Tuple[int, ...]


def _interesting(spec) -> bool:
    """Does this native participate in the replication protocol?"""
    return (not spec.deterministic) or spec.is_output


class PrimaryNativePolicy:
    """Normal-operation native interception at the primary."""

    def __init__(self, shipper: LogShipper, metrics: ReplicationMetrics,
                 se_manager: SideEffectManager) -> None:
        self._shipper = shipper
        self._metrics = metrics
        self._se = se_manager
        self._seqs: Dict[Vid, int] = {}
        #: Optional voting hook, called with ``(jvm, spec, thread,
        #: receiver, args, seq)`` before an output's intent is logged.
        #: The voting group casts the proposer's payload ballot here —
        #: and the seeded corruption injector mutates ``args`` in place
        #: here, so a lying proposer proposes (and votes for) a payload
        #: its peers will outvote before it can execute.
        self.on_output_propose = None

    def would_starve(self, jvm, method, thread) -> bool:
        # A serving primary parks at the safe point when its request
        # port is empty (the pump); everything else executes live.
        return ingest_starved(jvm, method, thread)

    def _next_seq(self, vid: Vid) -> int:
        seq = self._seqs.get(vid, 0) + 1
        self._seqs[vid] = seq
        return seq

    def native_seqs(self) -> Dict[Vid, int]:
        """Per-thread native sequence counters, snapshotted for a
        checkpoint: a backup seeded from that state must continue the
        primary's numbering, not restart at zero."""
        return dict(self._seqs)

    def invoke(self, jvm, spec, thread, receiver, args) -> NativeOutcome:
        ctx = NativeContext(jvm, thread, spec)
        if not _interesting(spec):
            return call_native(spec, ctx, receiver, args)

        seq = self._next_seq(thread.vid)
        if spec.is_output:
            if self.on_output_propose is not None:
                self.on_output_propose(jvm, spec, thread, receiver, args, seq)
            # Pessimistic logging: nothing reaches the environment until
            # the backup has everything needed to reproduce our state.
            self._shipper.log(OutputIntentRecord(
                thread.vid, seq, spec.signature
            ))
            self._shipper.output_commit()
            # Crash window between the ack and the output itself — the
            # canonical uncertain-output case.
            self._shipper.injector.step(f"pre-output:{spec.signature}")

        outcome = call_native(spec, ctx, receiver, args)
        if not spec.deterministic:
            self._metrics.natives_intercepted += 1
        if spec.signature == INGEST_SIGNATURE:
            self._metrics.requests_ingested += 1
        elif spec.signature == REPLY_SIGNATURE:
            self._metrics.responses_committed += 1

        # The completion marker and its side-effect record are one
        # atomic log unit: a crash must never deliver the marker (which
        # makes the backup adopt the result and skip re-execution)
        # while losing the side-effect state needed to continue.
        with self._shipper.atomic():
            self._shipper.log(NativeResultRecord(
                thread.vid, seq, spec.signature, outcome.value,
                outcome.exception, dict(outcome.array_results),
            ))
            self._metrics.native_result_records += 1

            if spec.se_handler is not None:
                record = self._se.log(jvm.session, spec, receiver, args,
                                      outcome)
                if record is not None:
                    self._shipper.log(record)
                    self._metrics.se_records += 1
        return outcome


class BackupNativePolicy:
    """Recovery-time native handling at the backup."""

    def __init__(self, results: Dict[Vid, List[NativeResultRecord]],
                 intents: Dict[Vid, List[OutputIntentRecord]],
                 se_manager: SideEffectManager,
                 metrics: ReplicationMetrics) -> None:
        self._results: Dict[Vid, Deque[NativeResultRecord]] = {
            vid: deque(records) for vid, records in results.items()
        }
        self._intents: Dict[Vid, Deque[OutputIntentRecord]] = {
            vid: deque(records) for vid, records in intents.items()
        }
        self._se = se_manager
        self._metrics = metrics
        self._seqs: Dict[Vid, int] = {}
        #: Hot-backup mode: never execute live; starve instead until
        #: the primary's record arrives (cleared at failover).
        self.hold_when_drained = False
        #: Failover mode: the primary is gone, so an output intent with
        #: no completion marker is the *uncertain tail* — admit it and
        #: let the test/confirm/re-execute path resolve it instead of
        #: starving while waiting for a marker that can never arrive.
        self.tail_resolution = False
        #: Optional voting hook, called with ``(jvm, spec, method,
        #: thread, intent)`` each time a hot follower holds at an
        #: output whose intent arrived but whose completion marker has
        #: not: the exact point where this replica has independently
        #: recomputed the output's payload and can ballot on it before
        #: the proposer is allowed to release it.
        self.on_output_hold = None
        #: Each native method's spec, or None when the method does not
        #: take part in replication: resolved once per method, since
        #: a held replica polls the same starved native many times.
        self._specs: Dict[JMethod, Optional[NativeSpec]] = {}

    def extend(self, results: Dict[Vid, List[NativeResultRecord]],
               intents: Dict[Vid, List[OutputIntentRecord]]) -> None:
        """Append newly delivered records (hot backup incremental feed)."""
        for vid, records in results.items():
            self._results.setdefault(vid, deque()).extend(records)
        for vid, records in intents.items():
            self._intents.setdefault(vid, deque()).extend(records)

    def would_starve(self, jvm, method, thread) -> bool:
        """True when a hot backup must wait for the log to catch up
        before executing this native."""
        if not self.hold_when_drained:
            # Live execution past the log (promoted backup): only the
            # serving ingest gate applies.
            return ingest_starved(jvm, method, thread)
        try:
            spec = self._specs[method]
        except KeyError:
            spec = jvm.natives.lookup(method.signature)
            if not _interesting(spec):
                spec = None
            self._specs[method] = spec
        if spec is None:
            return False
        vid = thread.vid
        if spec.is_output:
            queue = self._intents.get(vid)
            if not queue:
                return True
            # the completion marker must be there too, or the output's
            # outcome is not yet known
            results = self._results.get(vid)
            if not results and self.tail_resolution:
                return False
            if not results and self.on_output_hold is not None:
                self.on_output_hold(jvm, spec, method, thread, queue[0])
            return not results
        results = self._results.get(vid)
        return not results

    def has_uncertain_tail(self, vid: Vid) -> bool:
        """True when ``vid``'s next replayed record is an output intent
        with no matching completion marker — the uncertain tail."""
        return bool(self._intents.get(vid)) and not self._results.get(vid)

    # ------------------------------------------------------------------
    def remaining(self) -> int:
        return sum(len(q) for q in self._results.values()) + sum(
            len(q) for q in self._intents.values()
        )

    def _next_seq(self, vid: Vid) -> int:
        seq = self._seqs.get(vid, 0) + 1
        self._seqs[vid] = seq
        return seq

    def seed_seqs(self, seqs: Dict[Vid, int]) -> None:
        """Adopt the checkpointed per-thread native numbering: a replay
        that starts from a mid-run snapshot resumes the primary's
        counters, so the retained tail's records (whose ``seq`` fields
        are absolute) line up with re-executed invocations."""
        self._seqs.update(seqs)

    def native_seqs(self) -> Dict[Vid, int]:
        """Per-thread native sequence counters (see the primary's)."""
        return dict(self._seqs)

    def _ensure_restored(self, jvm) -> None:
        self._se.restore(jvm.session)

    def _refresh_se(self, jvm, spec, receiver, args,
                    outcome: NativeOutcome) -> None:
        """After executing (or confirming) an se-handled native locally,
        fold post-execution reality back into our own handler state.
        Without this, a checkpoint taken after promotion would carry the
        dead primary's last-received state, and a later generation's
        ``test()`` could wrongly confirm an output that never ran."""
        if spec.se_handler is None:
            return
        record = self._se.log(jvm.session, spec, receiver, args, outcome)
        if record is not None:
            self._se.receive(record)

    @staticmethod
    def _adopt(record: NativeResultRecord, args, heap=None) -> NativeOutcome:
        for index, contents in record.array_results.items():
            args[index].data[:] = contents
            if heap is not None:
                args[index].mut_era = heap.era
        return NativeOutcome(
            value=record.value,
            exception=record.exception,
            array_results=dict(record.array_results),
        )

    # ------------------------------------------------------------------
    def invoke(self, jvm, spec, thread, receiver, args) -> NativeOutcome:
        ctx = NativeContext(jvm, thread, spec)
        if not _interesting(spec):
            return call_native(spec, ctx, receiver, args)

        vid = thread.vid
        seq = self._next_seq(vid)

        if spec.is_output:
            intents = self._intents.get(vid)
            if intents and intents[0].seq == seq:
                intent = intents.popleft()
                if intent.signature != spec.signature:
                    raise RecoveryError(
                        f"native replay diverged for {thread.vid_str}: log "
                        f"has {intent.signature}, executing {spec.signature}"
                    )
                results = self._results.get(vid)
                if results and results[0].seq == seq:
                    # Completion marker delivered: output definitely
                    # happened at the primary — suppress it here.
                    record = results.popleft()
                    self._metrics.outputs_suppressed += 1
                    self._metrics.records_replayed += 1
                    return self._adopt(record, args, jvm.heap)
                # Uncertain: the primary crashed between ack and marker.
                self._ensure_restored(jvm)
                if spec.testable and spec.se_handler is not None:
                    self._metrics.outputs_tested += 1
                    if self._se.test(jvm.session.env, spec, list(args)):
                        self._se.confirm(jvm.session, spec, list(args))
                        self._metrics.outputs_suppressed += 1
                        outcome = NativeOutcome(value=None)
                        self._refresh_se(jvm, spec, receiver, args, outcome)
                        return outcome
                # Idempotent (or test says incomplete): execute now.
                self._metrics.outputs_reexecuted += 1
                outcome = call_native(spec, ctx, receiver, args)
                self._refresh_se(jvm, spec, receiver, args, outcome)
                return outcome
            # Past the end of the log: live execution.
            self._ensure_restored(jvm)
            outcome = call_native(spec, ctx, receiver, args)
            self._refresh_se(jvm, spec, receiver, args, outcome)
            return outcome

        # Non-deterministic input.
        results = self._results.get(vid)
        if results and results[0].seq == seq:
            record = results.popleft()
            if record.signature != spec.signature:
                raise RecoveryError(
                    f"native replay diverged for {thread.vid_str}: log has "
                    f"{record.signature}, executing {spec.signature}"
                )
            self._metrics.natives_intercepted += 1
            self._metrics.records_replayed += 1
            return self._adopt(record, args, jvm.heap)
        self._ensure_restored(jvm)
        outcome = call_native(spec, ctx, receiver, args)
        self._refresh_se(jvm, spec, receiver, args, outcome)
        return outcome
