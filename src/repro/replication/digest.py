"""Deterministic state digests: lockstep divergence detection.

The paper's correctness argument rests on the backup reaching a state
*identical* to the primary's; until now the repo only checked
end-of-run outputs.  This module adds the missing verification layer
(HyCoR-style lockstep state comparison): the primary periodically
digests its replicated state and ships a :class:`DigestRecord` through
the ordinary log; the backup recomputes the digest at the equivalent
point of its replay and raises
:class:`~repro.errors.DivergenceError` at the *first* divergent epoch,
naming the mismatched component, instead of silently finishing with
wrong output.

The digest itself — its components and what each covers — is the one
state walk in :mod:`repro.runtime.digest`; this module is the protocol
around it.

Epochs
------
Component digests are only comparable at points where the replication
strategy guarantees replicas pass through identical global states:

* **Replicated thread scheduling** replays the full interleaving, so
  every scheduling decision is such a point.  The primary emits a
  digest after every ``interval``-th
  :class:`~repro.replication.records.ScheduleRecord` (epoch = number of
  schedule records logged); the backup compares when its replay
  controller has consumed the same number of records — true lockstep.
* **Replicated lock synchronization** replicates only the lock order;
  mid-run global states differ between replicas.  Digests are compared
  at the quiescent end-of-run point (the *final* digest, epoch 0 on
  the wire's ``final`` flag), which is exactly the state a failover
  would expose.

The ``env`` component is only compared on final digests: during replay
the shared environment already holds the primary's *later* writes, so a
mid-run comparison would be vacuous or false-positive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DivergenceError
from repro.replication.records import (
    KIND_DIGEST,
    ScheduleRecord,
    register_record_kind,
)
from repro.replication.wire import Reader, Writer
from repro.runtime.digest import LOCKSTEP_COMPONENTS, StateDigest, walk_state


class IncrementalStateDigest:
    """Stateful digester: reuses per-object hashes across passes.

    The stateless walk hashes every reachable object on every pass; at
    lockstep digest intervals most of the heap is provably untouched
    between passes.  The heap's mutation clock (see
    :meth:`~repro.runtime.heap.Heap.bump_era`) stamps every tracked
    mutation site — field/array stores (interpreter, block compiler,
    ``arraycopy``), monitor state changes (``MonitorTable._touch``), GC
    referent clearing, backup native-result adoption — so this digester
    keeps the walk's cache from its last pass and bumps the clock after
    each one: an object whose ``mut_era`` is below the era of that bump
    is unchanged since, and :func:`~repro.runtime.digest.walk_state`
    reuses its hash.

    The walk still visits every reachable object — visit ids must be
    assigned deterministically, and reachability itself can change —
    but a clean object skips token construction and sha256, which is
    where the time goes.  Frames, scheduler state, statics roots, class
    locks, and the environment are always recomputed: they are small
    and change every epoch.  A replaced heap (checkpoint restore) resets
    the cache entirely.
    """

    def __init__(self, jvm, env=None) -> None:
        self._jvm = jvm
        self._env = env
        self._heap = None
        self._cache: Dict[int, tuple] = {}
        self._clean_below = 0
        self.items_reused = 0
        self.items_hashed = 0

    def compute(self, *, include_env: bool = True) -> StateDigest:
        heap = self._jvm.heap
        if heap is not self._heap:
            # Restored/replaced heap: every cached identity is void.
            self._heap = heap
            self._cache = {}
            self._clean_below = 0
        digest, self._cache, hashed = walk_state(
            self._jvm, self._env if include_env else None,
            self._cache, self._clean_below)
        self.items_hashed += hashed
        self.items_reused += len(self._cache) - hashed
        self._clean_below = heap.era + 1
        heap.bump_era()
        return digest


# ======================================================================
# The wire record
# ======================================================================
@dataclass(frozen=True)
class DigestRecord:
    """One digest checkpoint shipped primary → backup.

    ``epoch`` counts the replicated scheduling events preceding the
    checkpoint (schedule records under replicated thread scheduling);
    ``final`` marks the end-of-run digest every strategy emits.
    """

    epoch: int
    final: bool
    components: Tuple[Tuple[str, int], ...]

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_DIGEST).uvarint(self.epoch)
        w.uvarint(1 if self.final else 0)
        w.uvarint(len(self.components))
        for name, value in self.components:
            w.text(name)
            w.raw(value.to_bytes(16, "big"))

    @staticmethod
    def read(r: Reader) -> "DigestRecord":
        epoch = r.uvarint()
        final = bool(r.uvarint())
        count = r.uvarint()
        components = tuple(
            (r.text(), int.from_bytes(r.raw(16), "big"))
            for _ in range(count)
        )
        return DigestRecord(epoch, final, components)

    @property
    def digest(self) -> StateDigest:
        return StateDigest(self.components)


register_record_kind(KIND_DIGEST, DigestRecord.read, core=True)


# ======================================================================
# Primary side
# ======================================================================
class DigestEmitter:
    """Observes the primary's log stream and injects digest records.

    Installed as the shipper's ``on_record`` observer: under a lockstep
    strategy it counts schedule records and, every ``interval``-th one,
    computes the state digest and logs a :class:`DigestRecord`.  The
    machine additionally calls :meth:`emit_final` from the primary's
    exit hook, so every completed run carries an end-of-run digest
    (including the stable environment component).
    """

    def __init__(self, shipper, metrics, env, *,
                 interval: Optional[int], lockstep: bool) -> None:
        # Weak: the shipper calls this emitter back (``on_record``).
        self._shipper = weakref.proxy(shipper)
        self._metrics = metrics
        self._env = env
        self.interval = interval
        self.lockstep = lockstep
        self.epoch = 0
        #: Set by the machine once the primary JVM exists.
        self.jvm = None
        self._emitting = False
        self._digester: Optional[IncrementalStateDigest] = None

    def _compute(self) -> StateDigest:
        """Per-epoch digests come from the incremental digester — the
        lockstep hot path re-visits only the dirty set between epochs
        (full-walk equivalence is covered by the digest test suite)."""
        if self._digester is None or self._digester._jvm is not self.jvm:
            self._digester = IncrementalStateDigest(self.jvm, self._env)
        return self._digester.compute()

    def _log_digest(self, record: DigestRecord) -> None:
        from repro.replication.records import encode

        self._emitting = True
        try:
            self._metrics.digest_records += 1
            self._metrics.digest_bytes += len(encode(record))
            self._shipper.log(record)
        finally:
            self._emitting = False

    def observe(self, record) -> None:
        """Shipper observer: one record was just logged."""
        if self._emitting or not isinstance(record, ScheduleRecord):
            return
        self.epoch += 1
        if not self.lockstep or not self.interval or self.jvm is None:
            return
        if self.epoch % self.interval:
            return
        digest = self._compute()
        self._log_digest(DigestRecord(self.epoch, False, digest.components))

    def emit_final(self) -> None:
        """End-of-run digest (the machine's exit hook)."""
        if self.jvm is None:
            return
        digest = self._compute()
        self._log_digest(DigestRecord(self.epoch, True, digest.components))


# ======================================================================
# Backup side
# ======================================================================
class DigestVerifier:
    """Recomputes and compares digests during backup replay.

    Periodic (lockstep) records are checked at the first slice boundary
    where the strategy's replay has consumed ``epoch`` schedule records
    — the exact execution point where the primary emitted them.  The
    final record is checked when the backup's run loop exits.  A
    mismatch raises :class:`~repro.errors.DivergenceError` naming the
    first divergent epoch and components.
    """

    def __init__(self, records: List[DigestRecord], env, *,
                 epoch_source: Optional[Callable[[], int]] = None) -> None:
        self._pending: List[DigestRecord] = sorted(
            (r for r in records if not r.final), key=lambda r: r.epoch
        )
        finals = [r for r in records if r.final]
        self._final: Optional[DigestRecord] = finals[-1] if finals else None
        self._env = env
        self._epoch_source = epoch_source
        self.epochs_verified = 0
        self.final_verified = False
        self._digester: Optional[IncrementalStateDigest] = None

    def extend(self, records: List[DigestRecord]) -> None:
        """Feed newly delivered digest records (hot backup)."""
        for record in records:
            if record.final:
                self._final = record
            else:
                self._pending.append(record)
        self._pending.sort(key=lambda r: r.epoch)

    @property
    def pending(self) -> int:
        return len(self._pending) + (1 if self._final is not None else 0)

    def _compare(self, record: DigestRecord, jvm,
                 names: Tuple[str, ...]) -> None:
        include_env = "env" in names
        if self._digester is None or self._digester._jvm is not jvm:
            self._digester = IncrementalStateDigest(jvm, self._env)
        local = self._digester.compute(include_env=include_env)
        mismatched = record.digest.diff(local, names)
        if mismatched:
            expected = record.digest.hex()
            got = local.hex()
            detail = "; ".join(
                f"{name}: primary={expected[name]} backup={got[name]}"
                for name in mismatched
            )
            raise DivergenceError(record.epoch, mismatched, detail)
        self.epochs_verified += 1

    def check_slice(self, jvm) -> None:
        """Compare every pending lockstep record whose epoch the replay
        has reached (called from the backup's slice-end hook)."""
        if self._epoch_source is None or not self._pending:
            return
        consumed = self._epoch_source()
        while self._pending and self._pending[0].epoch <= consumed:
            record = self._pending.pop(0)
            self._compare(record, jvm, LOCKSTEP_COMPONENTS)

    def check_final(self, jvm) -> None:
        """Compare the end-of-run digest (called from the exit hook)."""
        self.check_slice(jvm)
        if self._final is None:
            return
        record, self._final = self._final, None
        names = LOCKSTEP_COMPONENTS + (("env",) if self._env is not None
                                       else ())
        self._compare(record, jvm, names)
        self.final_verified = True
