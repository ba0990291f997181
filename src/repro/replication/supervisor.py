"""Replica-group supervision: surviving repeated failures.

:class:`~repro.replication.machine.ReplicatedJVM` proves the paper's
core protocol for *one* failover: primary dies, cold backup replays the
log, continues as the sole machine.  A real deployment cannot stop
there — after the backup promotes, the system is running without a
spare, and the next fault would be fatal.  :class:`ReplicaGroup` closes
the loop with **checkpoint-based re-integration**:

1. every *generation* (epoch) begins with the primary snapshotting its
   complete state (:mod:`repro.replication.checkpoint`) and shipping it
   through the ordinary log channel to a freshly spun-up backup;
2. the backup reassembles the snapshot, restores it into a new JVM, and
   *verifies the state digest* before adopting it — a torn or corrupted
   transfer is rejected, not silently adopted;
3. once the checkpoint is acknowledged, the log is truncated at the
   checkpoint boundary on both sides: replay starts from the snapshot,
   so the prefix is dead weight and the log no longer grows without
   bound across the run;
4. every shipped record travels inside an
   :class:`~repro.replication.records.EpochRecord` envelope stamped
   with the generation; the receive side fences out records from any
   other generation, so a deposed primary that keeps transmitting
   (split brain) is provably discarded;
5. when the failure detector fires, the backup replays checkpoint +
   post-checkpoint log, resolves the uncertain output exactly-once,
   is promoted, and the cycle restarts at (1) with the next epoch.

The transfer itself is crashable: checkpoint chunks pass through the
same :class:`~repro.replication.commit.CrashInjector` event counter as
log records, so a sweep can kill the primary mid-transfer.  Because
chunk assembly is idempotent and the supervisor retains the previous
generation's basis (checkpoint + fenced execution records) until the
new transfer completes, a mid-transfer death re-runs recovery from the
old basis — replay is deterministic, so the re-promoted replica reaches
the identical state and simply re-ships its snapshot under a fresh
epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.errors import ReplicationError
# restore_checkpoint is re-exported: the wall-clock benchmark's tests look
# it up on this module when they check where its span wrappers land.
from repro.replication.checkpoint import (  # noqa: F401
    Checkpoint,
    restore_checkpoint,
)
from repro.replication.config import ReplicaSettings
from repro.replication.core import (
    Epoch,
    GenerationReport,
    Identity,
    ReplicaSet,
)
from repro.replication.failure import FailureDetector
from repro.runtime.jvm import RunResult


def default_generation_settings(generation: int) -> ReplicaSettings:
    """Per-generation non-determinism sources.  Each replica gets its
    own scheduler seed, clock skew, and entropy stream — replication
    must succeed despite them (restriction R0)."""
    return ReplicaSettings(
        scheduler_seed=101 + 91 * generation,
        clock_offset_ms=13 * generation,
        entropy_seed=7001 + 97 * generation,
    )


# ======================================================================
# Membership state machine (quorum-voting groups)
# ======================================================================
class MemberState:
    """Lifecycle states of one voting-group member.

    ``HEALTHY → SUSPECTED`` on missed heartbeats and back on resumed
    beats or a quorum-matching vote (a slow member is not a faulty
    member); ``→ CONVICTED`` only on hard evidence — outvoted by a
    quorum certificate, equivocation, or an explicit fence — and then
    only a checkpoint re-arm returns it to ``HEALTHY``.
    """

    HEALTHY = "healthy"
    SUSPECTED = "suspected"
    CONVICTED = "convicted"


@dataclass
class MemberSlot:
    """Bookkeeping for one member slot of a voting group.

    The slot's identity (index, pinned execution engine) outlives any
    one incarnation of the member: quarantine destroys the runtime but
    keeps the slot, and a re-arm builds a fresh runtime into it.
    """

    index: int
    engine: str
    detector: FailureDetector
    state: str = MemberState.HEALTHY
    role: str = "follower"               # "proposer" | "follower"
    conviction: str = ""
    #: How many times this slot's runtime has been (re)built — used to
    #: give every incarnation a distinct environment session name.
    incarnation: int = 0
    quarantines: int = 0
    rearms: int = 0

    @property
    def healthy(self) -> bool:
        return self.state != MemberState.CONVICTED

    def suspect(self) -> bool:
        """Mark suspected; returns True on a fresh HEALTHY→SUSPECTED
        transition (convicted members stay convicted)."""
        if self.state != MemberState.HEALTHY:
            return False
        self.state = MemberState.SUSPECTED
        return True

    def absolve(self) -> bool:
        """A suspected member proved itself (resumed beats or a vote
        matching the quorum certificate); returns True if a suspicion
        was actually cleared."""
        if self.state != MemberState.SUSPECTED:
            return False
        self.state = MemberState.HEALTHY
        self.detector.absolve()
        return True

    def convict(self, reason: str) -> None:
        """Hard evidence of a fault: permanent until :meth:`rearm`."""
        if self.state == MemberState.CONVICTED:
            return
        self.state = MemberState.CONVICTED
        self.conviction = reason
        self.quarantines += 1
        self.detector.convict(reason)

    def rearm(self) -> None:
        """Rebuilt from a digest-verified checkpoint: clean slate."""
        self.state = MemberState.HEALTHY
        self.conviction = ""
        self.rearms += 1
        self.detector.rearm()


@dataclass
class GroupResult:
    """Outcome of one replica-group run."""

    outcome: str                      # always "completed" on return
    result: RunResult
    generations: List[GenerationReport]
    failures_survived: int

    @property
    def final_generation(self) -> int:
        return self.generations[-1].generation

    @property
    def records_fenced(self) -> int:
        total = 0
        for report in self.generations:
            for metrics in (report.primary_metrics, report.recovery_metrics):
                if metrics is not None:
                    total += metrics.records_fenced
        return total

    @property
    def checkpoint_bytes_shipped(self) -> int:
        return sum(r.checkpoint_bytes for r in self.generations
                   if r.outcome != "completed_in_recovery")


class ReplicaGroup(ReplicaSet):
    """Primary + backup over a transport, surviving *k* failovers.

    ``crash_schedule`` maps generation -> injector crash event (a dict,
    or a sequence indexed by generation); generations without an entry
    run until program completion.  Each generation gets a fresh
    transport from ``transport`` (a spec string, a
    :class:`~repro.replication.transport.Transport` template whose
    ``fresh()`` re-arms it, or a ``factory(generation)`` callable — the
    callable form is how sweeps give every generation deterministic,
    distinct fault seeds)."""

    def _configure(self) -> None:
        config = self.config
        ignored = [name for name, is_set in (
            ("crash_at", config.crash_at is not None),
            ("hot_backup", config.hot_backup),
            ("digest_interval", config.digest_interval is not None),
        ) if is_set]
        if ignored:
            raise ReplicationError(
                f"{', '.join(ignored)}: pair-only option(s) a ReplicaGroup "
                f"would silently ignore — crash a generation with "
                f"crash_schedule; hot replicas and digest ballots belong "
                f"to ReplicatedJVM and VotingGroup"
            )
        self._settings_for = config.settings_for or default_generation_settings

    def _identity(self, epoch: int) -> Identity:
        settings = self._settings_for(epoch)
        return f"replica-g{epoch}", settings, replace(
            self.base_config, scheduler_seed=settings.scheduler_seed
        )

    def _adopt_checkpoint(self, ep: Epoch, checkpoint: Checkpoint) -> None:
        # The group's backup is cold: nobody restores the snapshot
        # until a failover, so verify it now by restoring into a
        # scratch machine, then drop the chunk prefix from the shared
        # log — replay starts from the snapshot.
        self._verify_restore(checkpoint)
        ep.shipper.truncate_at_checkpoint(ep.report.checkpoint_chunks)
        super()._adopt_checkpoint(ep, checkpoint)

    def _result(self, result: RunResult) -> GroupResult:
        return GroupResult("completed", result, self.reports,
                           self._failures)

    # The wall-clock tracer wraps ``vars(cls)["pump"]`` class by class.
    pump = ReplicaSet.pump
