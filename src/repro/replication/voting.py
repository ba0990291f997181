"""Quorum-voted digests: Byzantine-tolerant voting replication.

The paper's protocol assumes *fail-stop* replicas: a primary that dies
is detectably dead, and everything it shipped before dying is true.  A
lying primary — one that ships a corrupted state digest, or proposes an
output payload that does not match its own replicated execution —
breaks that assumption silently: the 1:1 pair would commit the wrong
output and never notice.  :class:`VotingGroup` closes that gap with
``n = 2f + 1`` members that *ballot* on every comparable artifact:

* the **proposer** (initially member 0) executes with the ordinary
  primary instrumentation and ships its log through one channel; every
  epoch :class:`~repro.replication.digest.DigestRecord` it emits and
  every output payload it is about to release becomes a proposal it
  votes for;
* the **followers** are hot replicas replaying the delivered log in
  lockstep (replicated thread scheduling).  Where the 1:1 hot backup
  *compares* digests and raises on mismatch, a follower here
  *recomputes and votes*; where it would silently hold at an
  un-markered output intent, it peeks the already-materialized
  arguments off the replaying thread's stack and votes on the payload
  it independently computed;
* a :class:`QuorumTally` collects the ballots.  ``f + 1`` matching
  votes form a :class:`QuorumCertificate`; **no output is released
  without one** (the shipper's ``commit_gate`` runs inside output
  commit, after the flush/ack round trip and before the native
  executes).  A member whose vote disagrees with a certificate is
  *convicted* — quarantined immediately, and re-armed later from a
  digest-verified checkpoint shipped through the same channel the arm
  transfer uses;
* a convicted **proposer** is deposed exactly like a crashed primary:
  its session is destroyed, the channel fences, the lowest healthy
  member is promoted by replaying the era basis + retained log
  (resolving the uncertain output with its *own, honestly recomputed*
  arguments), and a fresh era re-arms every slot — including the
  quarantined liar — via checkpoint transfer.

Multi-variant execution guard (MVEE)
------------------------------------
With ``variants="step+slice"`` the members are pinned to alternating
execution engines.  The engines are contractually bit-identical, so in
an honest run the guard is silent; any divergence between engines
shows up as an outvoted ballot whose engine differs from the
certificate's voters and is reported as a :class:`VariantDivergence`
(and, with ``variant_fail_stop=True``, raised as
:class:`~repro.errors.VariantDivergenceError`).

Fault injection
---------------
:class:`LieSpec` / :class:`CorruptionInjector` implement the seeded,
deterministic corruption hooks tests and ``repro conform --byzantine``
drive: ``("digest", epoch[, component])`` flips one component of the
member's digest proposal/ballot at that epoch; ``("output", ordinal[,
arg_index])`` flips one byte of the output payload at that ordinal —
on the proposer the *actual proposed arguments* are corrupted in
place, so the lie would reach the environment if the quorum failed to
stop it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.env.channel import Channel
from repro.errors import (
    PrimaryOutvoted,
    QuorumLostError,
    ReplicationError,
    VariantDivergenceError,
)
from repro.replication.checkpoint import Checkpoint, take_checkpoint
from repro.replication.core import (
    Epoch,
    GenerationReport,
    Identity,
    PrimaryHooks,
    Replayer,
    ReplicaSet,
    promote,
    register_log_record,
)
from repro.replication.digest import (
    DigestEmitter,
    DigestRecord,
    DigestVerifier,
)
from repro.replication.failure import FailureDetector
from repro.replication.metrics import ReplicationMetrics
from repro.replication.records import (
    KIND_VOTE,
    encode,
    register_record_kind,
)
from repro.replication.sehandlers import SideEffectManager
from repro.replication.supervisor import (
    MemberSlot,
    MemberState,
    default_generation_settings,
)
from repro.replication.wire import Reader, Writer
from repro.runtime.digest import LOCKSTEP_COMPONENTS, _h, compute_state_digest
from repro.runtime.jvm import JVM, RunResult
from repro.runtime.scheduler import SliceEnd
from repro.runtime.threads import ThreadState
from repro.runtime.values import JArray, JObject

Vid = Tuple[int, ...]


# ======================================================================
# The wire record (plug-in record kind 12)
# ======================================================================
@dataclass(frozen=True)
class VoteRecord:
    """One member's ballot on one subject instance, serializable
    through the ordinary log.

    The tally itself is fed synchronously (all members share one
    process), so the wire copy is the *audit trail*: every vote any
    member cast travels to the followers inside the same epoch-stamped
    stream as the records it judges, survives a deposition in the
    retained log, and is fenced/truncated by exactly the same rules.
    ``index`` is the per-subject coordinate: ``(epoch,)`` for periodic
    digests, ``(*vid, seq)`` for outputs, ``()`` for the final digest.
    """

    member: int
    era: int
    subject: str                 # "digest" | "output" | "final"
    index: Vid
    value: int                   # 128-bit fingerprint
    engine: str = ""

    @property
    def key(self) -> Tuple[str, int, Vid]:
        return (self.subject, self.era, self.index)

    def write(self, w: Writer) -> None:
        w.uvarint(KIND_VOTE).uvarint(self.member).uvarint(self.era)
        w.text(self.subject).vid(self.index)
        w.raw(self.value.to_bytes(16, "big")).text(self.engine)

    @staticmethod
    def read(r: Reader) -> "VoteRecord":
        return VoteRecord(
            r.uvarint(), r.uvarint(), r.text(), r.vid(),
            int.from_bytes(r.raw(16), "big"), r.text(),
        )


register_record_kind(KIND_VOTE, VoteRecord.read, core=True)
register_log_record(VoteRecord)

#: The tally's name for a ballot: the vote *is* its wire record.
Vote = VoteRecord


# ======================================================================
# Certificates, verdicts, tally
# ======================================================================
@dataclass(frozen=True)
class QuorumCertificate:
    """``f + 1`` matching votes on one subject instance."""

    subject: str
    era: int
    index: Vid
    value: int
    voters: Tuple[int, ...]

    @property
    def key(self) -> Tuple[str, int, Vid]:
        return (self.subject, self.era, self.index)


@dataclass(frozen=True)
class Verdict:
    """One ruling the tally hands back from :meth:`QuorumTally.add`.

    ``certified`` announces a fresh certificate; ``outvoted`` names a
    member whose vote disagrees with its slot's certificate (including
    votes cast *before* the certificate formed); ``equivocation`` names
    a member that voted two different values for one subject — proof of
    fault with no quorum needed.
    """

    kind: str                    # "certified" | "outvoted" | "equivocation"
    member: Optional[int]
    key: Tuple[str, int, Vid]
    certificate: Optional[QuorumCertificate] = None
    expected: Optional[int] = None
    got: Optional[int] = None
    engine: str = ""


class QuorumTally:
    """Ballot box for an ``n = 2f + 1`` group.

    Duplicate votes are idempotent; a convicted member's votes are
    ignored until :meth:`rearm`; votes for eras below the truncation
    floor (set when an era's log is superseded) are discarded.  With at
    most two distinct values in a slot an exact tie is impossible:
    ``2f + 1`` voters cannot split ``q : q`` with ``q = f + 1``.
    """

    def __init__(self, n_members: int) -> None:
        if n_members < 1 or n_members % 2 == 0:
            raise ReplicationError(
                f"a voting group needs an odd member count (n = 2f + 1), "
                f"got {n_members}"
            )
        self.n = n_members
        self.f = (n_members - 1) // 2
        self.quorum = self.f + 1
        self._slots: Dict[Tuple[str, int, Vid], Dict[int, Vote]] = {}
        self._certs: Dict[Tuple[str, int, Vid], QuorumCertificate] = {}
        #: (key, member) pairs already ruled on — a member is judged at
        #: most once per subject instance.
        self._ruled: set = set()
        self.convicted: set = set()
        self.floor_era = 0
        self.votes_accepted = 0
        self.votes_ignored = 0

    # ------------------------------------------------------------------
    def certificate(self, key) -> Optional[QuorumCertificate]:
        return self._certs.get(tuple(key))

    def votes_for(self, key) -> Dict[int, Vote]:
        return dict(self._slots.get(tuple(key), {}))

    def convict(self, member: int) -> None:
        self.convicted.add(member)

    def rearm(self, member: int) -> None:
        self.convicted.discard(member)

    def truncate_below(self, era: int) -> None:
        """Drop every slot and certificate from eras below ``era`` (the
        voting analogue of log truncation at a checkpoint boundary) and
        ignore any straggler votes for them from now on."""
        self.floor_era = era
        for table in (self._slots, self._certs):
            for key in [k for k in table if k[1] < era]:
                del table[key]
        self._ruled = {
            (key, member) for (key, member) in self._ruled
            if key[1] >= era
        }

    def uncertified(self, era: int) -> List[Tuple[str, int, Vid]]:
        """Subject instances of ``era`` that never reached a quorum."""
        return sorted(
            key for key in self._slots
            if key[1] == era and key not in self._certs
        )

    def certified(self, era: int) -> List[QuorumCertificate]:
        """Certificates formed in ``era`` (probe surface for sweeps)."""
        return [cert for key, cert in sorted(self._certs.items())
                if key[1] == era]

    # ------------------------------------------------------------------
    def add(self, vote: Vote) -> List[Verdict]:
        """Tally one ballot; returns any verdicts it triggers."""
        key = vote.key
        if vote.era < self.floor_era or vote.member in self.convicted:
            self.votes_ignored += 1
            return []
        slot = self._slots.setdefault(key, {})
        prior = slot.get(vote.member)
        if prior is not None:
            if prior.value == vote.value:
                self.votes_ignored += 1      # duplicate: idempotent
                return []
            self.votes_accepted += 1
            if (key, vote.member) in self._ruled:
                return []
            self._ruled.add((key, vote.member))
            return [Verdict(
                "equivocation", vote.member, key,
                certificate=self._certs.get(key),
                expected=prior.value, got=vote.value, engine=vote.engine,
            )]
        self.votes_accepted += 1
        slot[vote.member] = vote

        verdicts: List[Verdict] = []
        cert = self._certs.get(key)
        if cert is None:
            counts: Dict[int, List[int]] = {}
            for v in slot.values():
                counts.setdefault(v.value, []).append(v.member)
            for value, members in counts.items():
                if len(members) >= self.quorum:
                    cert = QuorumCertificate(
                        vote.subject, vote.era, vote.index, value,
                        tuple(sorted(members)),
                    )
                    self._certs[key] = cert
                    verdicts.append(Verdict("certified", None, key,
                                            certificate=cert))
                    break
        if cert is not None:
            # Rule on every disagreeing vote in the slot — including
            # ones cast before the certificate formed.
            for member in sorted(slot):
                v = slot[member]
                if v.value != cert.value and (key, member) not in self._ruled:
                    self._ruled.add((key, member))
                    verdicts.append(Verdict(
                        "outvoted", member, key, certificate=cert,
                        expected=cert.value, got=v.value, engine=v.engine,
                    ))
        return verdicts


# ======================================================================
# Seeded corruption injection
# ======================================================================
@dataclass
class LieSpec:
    """Where and how one member lies (deterministic, fires once).

    ``("digest", epoch)`` / ``("digest", epoch, component)`` — corrupt
    the named digest component at that emission epoch (the final digest
    matches on its closing epoch count as well);
    ``("output", ordinal)`` / ``("output", ordinal, arg_index)`` — flip
    the payload argument of the member's ``ordinal``-th output
    (0-based; ``arg_index`` defaults to the last argument, -1).
    """

    kind: str
    target: int
    detail: Any
    member: int = 0

    @staticmethod
    def parse(lie_at, lie_member: int) -> Optional["LieSpec"]:
        if lie_at is None:
            return None
        if not isinstance(lie_at, (tuple, list)) or len(lie_at) < 2:
            raise ReplicationError(
                f"lie_at must be (kind, target[, detail]); got {lie_at!r}"
            )
        kind = lie_at[0]
        if kind == "digest":
            detail = lie_at[2] if len(lie_at) > 2 else "heap"
            if detail not in LOCKSTEP_COMPONENTS:
                raise ReplicationError(
                    f"digest lie component must be one of "
                    f"{LOCKSTEP_COMPONENTS}, got {detail!r}"
                )
            return LieSpec("digest", int(lie_at[1]), detail, lie_member)
        if kind == "output":
            detail = int(lie_at[2]) if len(lie_at) > 2 else -1
            return LieSpec("output", int(lie_at[1]), detail, lie_member)
        raise ReplicationError(
            f"lie_at kind must be 'digest' or 'output', got {kind!r}"
        )


def _flip_scalar(value: Any) -> Any:
    """The one-bit corruption: deterministic, type-preserving."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, float):
        return -value if value else 1.0
    if isinstance(value, str):
        return (chr(ord(value[0]) ^ 1) + value[1:]) if value else "\x01"
    return value


class CorruptionInjector:
    """Fires each configured :class:`LieSpec` exactly once, replayably.

    With one spec this is the single-liar injector of PR 8; a list of
    specs arms *simultaneous* liars (up to f of them) — each fires
    independently at its own deterministic point, and each fires at
    most once.  The ``lies_on_*`` probes return the matched spec (or
    ``None``) so the corruption helpers know which lie to apply.
    """

    def __init__(self, specs) -> None:
        if specs is None or isinstance(specs, LieSpec):
            specs = [specs]
        self.specs: List[LieSpec] = [s for s in specs if s is not None]
        #: (kind, member, where) tuples of fired corruptions.
        self.fired: List[Tuple] = []
        self._fired_specs: set = set()
        self._output_ordinals: Dict[int, int] = {}

    def lies_on_digest(self, member: int, epoch: int) -> Optional[LieSpec]:
        for i, s in enumerate(self.specs):
            if (i not in self._fired_specs and s.kind == "digest"
                    and s.member == member and s.target == epoch):
                self._fired_specs.add(i)
                self.fired.append(("digest", member, epoch))
                return s
        return None

    def corrupt_components(
        self, spec: LieSpec, components: Tuple[Tuple[str, int], ...]
    ) -> Tuple[Tuple[str, int], ...]:
        target = spec.detail
        return tuple(
            (name, value ^ 1 if name == target else value)
            for name, value in components
        )

    def lies_on_output(self, member: int) -> Optional[LieSpec]:
        """Counts this member's output and decides whether to corrupt
        it.  The ordinal advances per output so the lie lands at one
        deterministic, replayable point."""
        if not any(s.kind == "output" and s.member == member
                   for s in self.specs):
            return None
        ordinal = self._output_ordinals.get(member, 0)
        self._output_ordinals[member] = ordinal + 1
        for i, s in enumerate(self.specs):
            if (i not in self._fired_specs and s.kind == "output"
                    and s.member == member and s.target == ordinal):
                self._fired_specs.add(i)
                self.fired.append(("output", member, ordinal))
                return s
        return None

    def corrupt_args(self, spec: LieSpec, args: List[Any]) -> None:
        """Flip the targeted argument *in place* — a lying proposer's
        corruption must be the payload it would actually execute."""
        if not args:
            return
        index = spec.detail
        try:
            value = args[index]
        except IndexError:
            index = -1
            value = args[index]
        if isinstance(value, JArray):
            if value.data:
                value.data[0] = _flip_scalar(value.data[0])
            return
        if isinstance(value, JObject):
            for name in sorted(value.fields):
                if not isinstance(value.fields[name], (JObject, JArray)):
                    value.fields[name] = _flip_scalar(value.fields[name])
                    return
            return
        args[index] = _flip_scalar(value)


# ======================================================================
# Payload fingerprints
# ======================================================================
def _payload_token(value: Any) -> str:
    """Replica-independent token of one output argument.  Heap values
    are named by content (class/element data, scalar fields), never by
    oids; nested references collapse to a marker — deterministic on
    both sides, which is all a fingerprint needs."""
    if value is None:
        return "null"
    if isinstance(value, JArray):
        body = ",".join(_payload_token(v) for v in value.data)
        return f"A{value.elem_type}[{body}]"
    if isinstance(value, JObject):
        body = ",".join(
            f"{name}="
            + ("&" if isinstance(value.fields[name], (JObject, JArray))
               else _payload_token(value.fields[name]))
            for name in sorted(value.fields)
        )
        return f"O{value.class_name}{{{body}}}"
    if isinstance(value, bool):
        return f"b{value}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{value!r}"
    return f"i{value}"


def output_fingerprint(signature: str, args: List[Any]) -> int:
    """128-bit fingerprint of one output command's full payload."""
    return _h("out:" + signature + "|"
              + "|".join(_payload_token(a) for a in args))


# ======================================================================
# Events
# ======================================================================
@dataclass
class QuarantineEvent:
    """One conviction: who, why, and whether they were re-armed."""

    era: int
    member: int
    role: str                    # "proposer" | "follower"
    reason: str
    subject: str = ""
    index: Vid = ()
    expected: Optional[int] = None
    got: Optional[int] = None
    rearmed: bool = False
    rearmed_era: Optional[int] = None


@dataclass(frozen=True)
class VariantDivergence:
    """The MVEE guard's alarm: an outvoted ballot whose engine differs
    from the certificate's voters — an engine-specific miscompute."""

    era: int
    subject: str
    index: Vid
    member: int
    engine: str
    majority_engines: Tuple[str, ...]
    expected: Optional[int]
    got: Optional[int]

    def __str__(self) -> str:
        return (
            f"era {self.era} {self.subject}@{self.index}: member "
            f"{self.member} ({self.engine}) disagrees with quorum "
            f"engines {self.majority_engines}"
        )


@dataclass
class EraReport(GenerationReport):
    """What happened while one era's proposer held the role: an era is
    an epoch whose primary is the elected proposer.  ``outcome`` is
    "completed" | "deposed" | "demoted" | "completed_in_recovery"."""

    proposer: int = 0
    rearms: int = 0

    @property
    def era(self) -> int:
        return self.generation


@dataclass
class VotingResult:
    """Outcome of one voting-group run."""

    outcome: str                 # "completed" | "completed_in_recovery"
    result: RunResult
    reports: List[EraReport]
    incidents: List[QuarantineEvent]
    divergences: List[VariantDivergence]
    metrics: ReplicationMetrics
    members: List[MemberSlot]
    final_era: int
    final_jvm: Optional[JVM] = None

    @property
    def depositions(self) -> int:
        return sum(1 for i in self.incidents if i.role == "proposer")


# ======================================================================
# Hooks
# ======================================================================
class _ProposerHooks(PrimaryHooks):
    """Heartbeats, end-of-run digest, and the group's slice-boundary
    work: vote-wire drain, verdict processing (which may depose the
    proposer right here), and pending follower re-arms."""

    def __init__(self, group: "VotingGroup", channel: Channel,
                 emitter: DigestEmitter) -> None:
        super().__init__(channel, emitter)
        self._group = group

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._channel.heartbeat()
        self._group._on_proposer_slice(jvm, thread, reason)


class _ProposingEmitter(DigestEmitter):
    """The proposer's digest emitter: every record it would ship first
    passes through the group, which casts the proposer's ballot and —
    under a seeded digest lie — corrupts the shipped proposal itself."""

    def __init__(self, group: "VotingGroup", *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._group = group

    def _log_digest(self, record: DigestRecord) -> None:
        record = self._group._propose_digest(record)
        super()._log_digest(record)


class _VotingVerifier(DigestVerifier):
    """A follower's verifier: instead of raising on mismatch, recompute
    the local digest and ballot on it.  Disagreement is settled by the
    quorum, not by the first replica to notice."""

    def __init__(self, group: "VotingGroup", slot: MemberSlot,
                 records, env, *, epoch_source=None) -> None:
        super().__init__(records, env, epoch_source=epoch_source)
        self._group = group
        self._slot = slot

    def _compare(self, record: DigestRecord, jvm, names) -> None:
        self._group._ballot_digest(self._slot, record, jvm)
        self.epochs_verified += 1


class _Follower(Replayer):
    """One incarnation of a follower: a hot replayer restored from a
    transferred checkpoint (:func:`restore_checkpoint` digest-verifies
    it — a torn or corrupted transfer is rejected, not adopted) that
    ballots where the pair's hot backup would compare.  Destroyed at
    quarantine; a re-arm builds a fresh one into the same slot."""

    def __init__(self, group: "VotingGroup", slot: MemberSlot,
                 checkpoint: Checkpoint, fed_from: int) -> None:
        slot.incarnation += 1
        slot.role = "follower"
        self.slot = slot
        #: The seq of the output each thread last balloted on.  A
        #: thread holds at one output at a time and its seqs only grow,
        #: so this is all the dedup a repeated hold needs.
        self.voted_seqs: Dict[Vid, int] = {}
        super().__init__(
            group, group._member_identity(slot), role="follower",
            hold=True, basis=checkpoint, fence_epoch=group._epoch,
            make_verifier=partial(_VotingVerifier, group, slot),
            fed=fed_from,
        )
        self.gate_tail()
        self.policy.on_output_hold = partial(group._on_output_hold, self)
        slot.detector.reset(source=lambda: self.jvm.instructions)


class _DemotionBoundary(Exception):
    """Internal control flow: the proposer reached a replayable
    safe-point with a demotion pending; unwind to the driver loop,
    which tears the era down and re-arms the group on the oracle
    engine."""


# ======================================================================
# The group
# ======================================================================
class VotingGroup(ReplicaSet):
    """``2f + 1`` members, quorum-gated output commit, automatic
    quarantine and checkpoint re-arm.  See the module docstring.

    The lifecycle is :class:`~repro.replication.core.ReplicaSet`'s; an
    era is an epoch whose primary is the elected proposer, whose
    ``n - 1`` followers are live replayers, and whose outputs wait for
    an ``f + 1`` certificate (:meth:`_commit_gate`) on top of the ack."""

    primary_role = "proposer"
    recovery_role = "recovery"
    absorbs = (PrimaryOutvoted,)

    def _configure(self) -> None:
        config = self.config
        if not self._strategy.lockstep_digest:
            raise ReplicationError(
                "voting requires a lockstep strategy (per-epoch digest "
                "comparison); use strategy='thread_sched'"
            )
        if config.crash_at is not None or config.crash_schedule is not None:
            raise ReplicationError(
                "voting mode convicts on evidence, not on injected "
                "fail-stop; use lie_at instead of crash_at/crash_schedule"
            )
        if config.checkpoint_interval is not None:
            raise ReplicationError(
                "steady-state log truncation would drop records out from "
                "under the hot followers; voting manages its own "
                "checkpoint transfers"
            )
        if config.variants not in (None, "step+slice"):
            raise ReplicationError(
                f"unknown variants mode {config.variants!r}; expected "
                f"None or 'step+slice'"
            )
        if config.hot_backup:
            raise ReplicationError(
                "hot_backup is the 1:1 pair's replay-as-you-go mode; a "
                "voting group's followers are always hot — drop "
                "hot_backup when voting=True"
            )
        n = config.n_members
        if n < 1 or n % 2 == 0:
            raise ReplicationError(
                f"n_members must be odd (n = 2f + 1), got {n}"
            )
        if not 0 <= config.lie_member < n:
            raise ReplicationError(
                f"lie_member {config.lie_member} out of range for "
                f"{n} members"
            )
        lie_specs = [LieSpec.parse(config.lie_at, config.lie_member)]
        for extra_at, extra_member in config.lie_specs:
            if not 0 <= extra_member < n:
                raise ReplicationError(
                    f"lie_specs member {extra_member} out of range for "
                    f"{n} members"
                )
            lie_specs.append(LieSpec.parse(extra_at, extra_member))
        lie_specs = [s for s in lie_specs if s is not None]
        if len({s.member for s in lie_specs}) > (n - 1) // 2:
            raise ReplicationError(
                f"{len({s.member for s in lie_specs})} distinct liars "
                f"exceed the fault budget f = {(n - 1) // 2} of an "
                f"n = {n} group; the quorum could certify a lie"
            )

        self.n = n
        if self.digest_interval is None:
            self.digest_interval = 2
        self.variants = config.variants
        self.variant_fail_stop = config.variant_fail_stop
        self._emitter_type = partial(_ProposingEmitter, self)
        self._hooks_type = partial(_ProposerHooks, self)

        engines = self._engine_cycle()
        self.slots: List[MemberSlot] = [
            MemberSlot(
                index=i, engine=engines[i % len(engines)],
                detector=FailureDetector(config.detector_timeout),
            )
            for i in range(n)
        ]
        self.tally = QuorumTally(n)
        self.injector = CorruptionInjector(lie_specs)
        #: Group-lifetime voting counters (the per-era proposer wire
        #: metrics are folded in at the end of the run).
        self.metrics = ReplicationMetrics(role="voting-group")
        self.metrics.engine = self.base_config.engine
        self.incidents: List[QuarantineEvent] = []
        self.divergences: List[VariantDivergence] = []
        #: Fleet hook: called with each VariantDivergence as it is
        #: confirmed (a DegradationController subscribes here).
        self.on_divergence: Optional[Callable[[VariantDivergence], None]] \
            = None
        #: (era, engine) pairs, one per completed demotion.
        self.demotions: List[Tuple[int, str]] = []

        # --- per-era state --------------------------------------------
        self._proposer_idx = 0
        self._followers: Dict[int, _Follower] = {}
        self._pending_output_key = None
        self._vote_wire: List[VoteRecord] = []
        self._verdict_queue: List[Verdict] = []
        self._rearm_pending: List[int] = []
        self._incident_by_member: Dict[int, QuarantineEvent] = {}
        self._feeding = False
        self._processing = False
        self._demote_to: Optional[str] = None

    # ------------------------------------------------------------------
    # What this configuration of the core supplies
    # ------------------------------------------------------------------
    def _engine_cycle(self) -> Tuple[str, ...]:
        base = self.base_config.engine
        if self.variants is None:
            return (base,)
        return (base, "step" if base == "slice" else "slice")

    def _member_identity(self, slot: MemberSlot) -> Identity:
        """Per-(era, member) non-determinism sources: every incarnation
        runs with distinct seeds, and replication/voting must succeed
        despite them (restriction R0, now n-way)."""
        era = self._epoch
        settings = default_generation_settings(era * self.n + slot.index)
        return (
            f"m{slot.index}-e{era}-r{slot.incarnation}", settings,
            replace(self.base_config,
                    scheduler_seed=settings.scheduler_seed,
                    engine=slot.engine),
        )

    def _identity(self, epoch: int) -> Identity:
        return self._member_identity(self.slots[self._proposer_idx])

    def _new_report(self, **fields) -> EraReport:
        return EraReport(generation=self._epoch,
                         proposer=self._proposer_idx, **fields)

    def _result(self, result: RunResult) -> VotingResult:
        self._aggregate_metrics()
        return VotingResult(
            outcome=("completed" if self._survivor is None
                     else "completed_in_recovery"),
            result=result,
            reports=self.reports,
            incidents=self.incidents,
            divergences=self.divergences,
            metrics=self.metrics,
            members=self.slots,
            final_era=self._epoch,
            final_jvm=self.final_jvm,
        )

    def _aggregate_metrics(self) -> None:
        """Fold every era's replica counters into the group-lifetime
        metrics, beside the quorum counters the group itself owns (no
        era ever writes those)."""
        for report in self.reports:
            for metrics in (report.primary_metrics,
                            report.recovery_metrics):
                if metrics is not None:
                    self.metrics.absorb(metrics)

    # ------------------------------------------------------------------
    # Balloting
    # ------------------------------------------------------------------
    def _cast(self, slot: MemberSlot, subject: str, index: Vid,
              value: int) -> None:
        """Cast ``slot``'s ballot: tally it now, ship it at the next
        slice boundary."""
        vote = Vote(slot.index, self._epoch, subject, index, value,
                    slot.engine)
        self.metrics.votes_cast += 1
        self._vote_wire.append(vote)
        self._verdict_queue.extend(self.tally.add(vote))
        cert = self.tally.certificate(vote.key)
        if cert is not None and value == cert.value and slot.absolve():
            # A vote matching the certificate is out-of-band proof of
            # health: clear any heartbeat-based suspicion.
            self.metrics.suspicions_cleared += 1

    def _cast_digest(self, slot: MemberSlot, record: DigestRecord,
                     value: int) -> None:
        if record.final:
            self._cast(slot, "final", (), value)
        else:
            self._cast(slot, "digest", (record.epoch,), value)

    def _propose_digest(self, record: DigestRecord) -> DigestRecord:
        slot = self.slots[self._proposer_idx]
        lie = self.injector.lies_on_digest(slot.index, record.epoch)
        if lie is not None:
            record = DigestRecord(
                record.epoch, record.final,
                self.injector.corrupt_components(lie, record.components),
            )
        self._cast_digest(
            slot, record, record.digest.fingerprint(LOCKSTEP_COMPONENTS)
        )
        return record

    def _ballot_digest(self, slot: MemberSlot, record: DigestRecord,
                       jvm: JVM) -> None:
        local = compute_state_digest(jvm, include_env=False)
        value = local.fingerprint(LOCKSTEP_COMPONENTS)
        if self.injector.lies_on_digest(slot.index, record.epoch) is not None:
            value ^= 1
        self._cast_digest(slot, record, value)

    def _on_output_propose(self, jvm, spec, thread, receiver, args,
                           seq: int) -> None:
        slot = self.slots[self._proposer_idx]
        lie = self.injector.lies_on_output(slot.index)
        if lie is not None:
            # Corrupt the *actual* proposal in place: if the quorum
            # failed to veto, this payload would reach the environment.
            self.injector.corrupt_args(lie, args)
        index = tuple(thread.vid) + (seq,)
        self._pending_output_key = ("output", self._epoch, index)
        self._cast(slot, "output", index,
                   output_fingerprint(spec.signature, list(args)))

    def _on_output_hold(self, follower: _Follower, jvm, spec, method,
                        thread, intent) -> None:
        if follower.voted_seqs.get(thread.vid) == intent.seq:
            return
        follower.voted_seqs[thread.vid] = intent.seq
        index = tuple(thread.vid) + (intent.seq,)
        # The replaying thread stands right before the invoke: receiver
        # and arguments are still on the operand stack, exactly the
        # payload this replica independently computed.
        n_args = method.nargs + (0 if method.is_static else 1)
        stack = thread.frames[-1].stack
        args = list(stack[-n_args:]) if n_args else []
        value = output_fingerprint(spec.signature, args)
        if self.injector.lies_on_output(follower.slot.index) is not None:
            value ^= 1                  # a bit-flipped follower's ballot
        self._cast(follower.slot, "output", index, value)

    # ------------------------------------------------------------------
    # Verdict processing
    # ------------------------------------------------------------------
    def _process_verdicts(self) -> None:
        if self._processing:
            return
        self._processing = True
        deposed: Optional[PrimaryOutvoted] = None
        try:
            while self._verdict_queue:
                verdict = self._verdict_queue.pop(0)
                if verdict.kind == "certified":
                    self.metrics.quorum_certs += 1
                    continue
                try:
                    self._handle_misvote(verdict)
                except PrimaryOutvoted as exc:
                    # Defer the deposition until the queue drains: with
                    # simultaneous liars (f >= 2) a follower conviction
                    # queued behind the proposer's verdict must not be
                    # dropped by _dispose clearing the queue.
                    if deposed is None:
                        deposed = exc
        finally:
            self._processing = False
        if deposed is not None:
            raise deposed

    def _convict(self, slot: MemberSlot, role: str, reason: str, *,
                 subject: str = "", index: Vid = (),
                 expected=None, got=None) -> None:
        slot.convict(reason)
        self.tally.convict(slot.index)
        self.metrics.members_quarantined += 1
        event = QuarantineEvent(
            era=self._epoch, member=slot.index, role=role, reason=reason,
            subject=subject, index=index, expected=expected, got=got,
        )
        self.incidents.append(event)
        self._incident_by_member[slot.index] = event

    def _handle_misvote(self, verdict: Verdict) -> None:
        member = verdict.member
        slot = self.slots[member]
        subject, era, index = verdict.key
        if self.variants is not None and verdict.certificate is not None:
            majority = tuple(sorted({
                v.engine
                for v in self.tally.votes_for(verdict.key).values()
                if v.value == verdict.certificate.value and v.engine
            }))
            # Engine-correlated only: if the loser's engine also voted
            # with the majority, the fault is the member, not the
            # engine — no MVEE alarm.
            if verdict.engine and majority and \
                    verdict.engine not in majority:
                divergence = VariantDivergence(
                    era, subject, index, member, verdict.engine, majority,
                    verdict.expected, verdict.got,
                )
                self.divergences.append(divergence)
                self.metrics.variant_divergences += 1
                if self.on_divergence is not None:
                    self.on_divergence(divergence)
                if self.variant_fail_stop:
                    raise VariantDivergenceError(divergence)
        if slot.index == self._proposer_idx:
            raise PrimaryOutvoted(verdict)
        if slot.state == MemberState.CONVICTED:
            return
        self._convict(
            slot, "follower",
            f"{verdict.kind}:{subject}@{'.'.join(map(str, index))}",
            subject=subject, index=index,
            expected=verdict.expected, got=verdict.got,
        )
        follower = self._followers.pop(member, None)
        if follower is not None:
            follower.jvm.session.destroy()
        self._rearm_pending.append(member)

    # ------------------------------------------------------------------
    # The release predicate (installed as shipper.commit_gate)
    # ------------------------------------------------------------------
    def _blocked_members(self) -> frozenset:
        """Members a chaos transport currently partitions away from the
        group (empty on ordinary transports)."""
        fn = getattr(self._active.transport, "blocked_members", None)
        return frozenset() if fn is None else fn()

    def _quorum_wait_step(self) -> bool:
        """One step of waiting for a quorum that has not formed yet:
        poll the transport (retransmits, heartbeats, partition heals all
        live there), and when the only thing standing between us and a
        certificate is a scheduled partition, jump the chaos clock to
        its next boundary.  Returns False when there is nothing left to
        wait for — the quorum is genuinely lost."""
        transport = self._active.transport
        if transport.poll():
            return True
        advance = getattr(transport, "chaos_advance", None)
        if advance is not None and self._blocked_members():
            return bool(advance())
        return False

    def _commit_gate(self) -> None:
        """Runs inside every output commit, after the flush/ack round
        trip (which pumped the followers to the held native and let
        them ballot) and before the output may execute.

        This is the no-split-brain gate: a proposer on the minority
        side of a partition starves here — its blocked followers cast
        no ballots, no certificate forms, and the output never reaches
        the environment.  The wait loop below keeps polling (partitions
        heal, backlogs flood in, absolved members vote) and only gives
        up when the transport has nothing left to deliver."""
        self.metrics.outputs_gated += 1
        self._feed_followers()           # the ack delivered the intent
        self._process_verdicts()
        key = self._pending_output_key
        if key is None:
            return
        self._pending_output_key = None
        while self.tally.certificate(key) is None:
            if not self._quorum_wait_step():
                raise QuorumLostError(
                    f"output {key[2]} has no quorum certificate "
                    f"({self.tally.quorum} matching votes of {self.n} "
                    f"needed)"
                )
            self._feed_followers()
            self._process_verdicts()

    # ------------------------------------------------------------------
    # Vote wire + slice-boundary work
    # ------------------------------------------------------------------
    def _drain_vote_wire(self) -> None:
        shipper = self._active.shipper
        if shipper.channel.closed:
            return
        while self._vote_wire:
            record = self._vote_wire.pop(0)
            self.metrics.vote_bytes += len(encode(record))
            shipper.log(record)

    def _settle_ballots(self) -> None:
        self._drain_vote_wire()
        self._feed_followers()
        self._process_verdicts()         # may raise PrimaryOutvoted

    def _on_proposer_slice(self, jvm, thread, reason) -> None:
        # Per-slice path: _settle_ballots, spelled out to save the call.
        self._drain_vote_wire()
        self._feed_followers()
        self._process_verdicts()         # may raise PrimaryOutvoted
        replayable = reason in (SliceEnd.QUANTUM, SliceEnd.YIELDED) \
            and not thread.is_system \
            and thread.state is ThreadState.RUNNABLE
        if self._rearm_pending and replayable:
            # A replayable boundary (same rule as steady checkpoints):
            # the descheduled thread is `current`, so the snapshot
            # restores with set_resume_vid, exactly like the arm path.
            self._rearm_followers(jvm)
        if self._demote_to is not None and replayable:
            raise _DemotionBoundary()

    # ------------------------------------------------------------------
    # Followers (live replayers fed from the shared delivered log)
    # ------------------------------------------------------------------
    def _suspect_if_silent(self, slot: MemberSlot) -> None:
        if slot.detector.interval() and slot.suspect():
            self.metrics.members_suspected += 1

    def _feed_followers(self) -> None:
        if self._feeding or self._active is None:
            return
        self._feeding = True
        try:
            delivered = self._active.channel.delivered
            blocked = self._blocked_members()
            for follower in list(self._followers.values()):
                if follower.slot.index in blocked:
                    # Partitioned away: its feed offset freezes (the
                    # backlog floods in at heal) and silence across
                    # enough intervals makes it *suspected* — a
                    # recoverable state, never a conviction.
                    if len(delivered) > follower.fed:
                        self._suspect_if_silent(follower.slot)
                elif follower.pump(delivered) and follower.result is None:
                    # Delivered work is the expectation of progress; a
                    # member that stalls across enough feedings is
                    # *suspected* (recoverable), never convicted.
                    self._suspect_if_silent(follower.slot)
        finally:
            self._feeding = False

    def _drop_followers(self) -> None:
        for follower in self._followers.values():
            follower.jvm.session.destroy()
        self._followers = {}

    def _seat(self, slot: MemberSlot, checkpoint: Checkpoint,
              fed_from: int) -> None:
        """Build a fresh follower into ``slot`` from a transferred
        checkpoint; for a quarantined member this is the re-arm."""
        self._followers[slot.index] = _Follower(self, slot, checkpoint,
                                                fed_from)
        if slot.state != MemberState.CONVICTED:
            return
        slot.rearm()
        self.tally.rearm(slot.index)
        self.metrics.members_rearmed += 1
        self._active.report.rearms += 1
        event = self._incident_by_member.pop(slot.index, None)
        if event is not None:
            event.rearmed = True
            event.rearmed_era = self._epoch
        if slot.index in self._rearm_pending:
            self._rearm_pending.remove(slot.index)

    def _arm(self, jvm: JVM, se_manager: SideEffectManager,
             recovery_metrics: Optional[ReplicationMetrics] = None
             ) -> Epoch:
        """Arm ``jvm`` as this era's proposer, then build every follower
        from the transferred checkpoint — including any quarantined
        member, which this transfer re-arms.  The chunk records stay in
        the log (followers index it absolutely and skip past them)."""
        proposer = self.slots[self._proposer_idx]
        proposer.role = "proposer"
        self._followers = {}
        ep = super()._arm(jvm, se_manager, recovery_metrics)
        fed_from = len(ep.channel.delivered)
        for slot in self.slots:
            if slot is not proposer:
                self._seat(slot, self._ckpt, fed_from)
        return ep

    def _rearm_followers(self, jvm: JVM) -> None:
        """Mid-era re-arm: at a replayable slice boundary, snapshot the
        live proposer and rebuild every quarantined member from the
        digest-verified transfer.  The log is *not* truncated — healthy
        followers have consumed it and their feed offsets are absolute;
        chunk records pass harmlessly through their parse."""
        pending, self._rearm_pending = list(self._rearm_pending), []
        if not pending:
            return
        ep = self._active
        checkpoint = take_checkpoint(
            jvm, ep.se_manager, generation=self._epoch,
            native_seqs=ep.policy.native_seqs(),
            sched_epoch=ep.emitter.epoch,
        )
        assembled = self._ship_checkpoint(
            ep, checkpoint.to_chunks(self.chunk_bytes)
        )
        fed_from = len(ep.channel.delivered)
        for index in pending:
            self._seat(self.slots[index], assembled, fed_from)

    # ------------------------------------------------------------------
    # Deposition, promotion, the final round
    # ------------------------------------------------------------------
    def _clear_ballots(self) -> None:
        self._verdict_queue.clear()
        self._vote_wire.clear()
        self._pending_output_key = None

    def _dispose(self, failure: PrimaryOutvoted) -> None:
        """Quarantine the convicted proposer exactly like a crashed
        primary: the core destroys it, fences the channel and captures
        the delivered log as the promotion replay's input."""
        verdict = failure.verdict
        subject, _, index = verdict.key
        self._convict(
            self.slots[self._proposer_idx], "proposer",
            f"{verdict.kind}:{subject}", subject=subject, index=index,
            expected=verdict.expected, got=verdict.got,
        )
        self._clear_ballots()
        super()._dispose(failure)
        self._drop_followers()

    def _recover(self) -> None:
        """Promote the lowest healthy member.  Its replay resolves the
        deposed proposer's uncertain output — intent in the log, the
        (possibly corrupted) payload dead with its sender — with this
        replica's own recomputed arguments: the lie cannot survive its
        liar."""
        for slot in self.slots:
            if slot.state != MemberState.CONVICTED:
                break
        else:
            raise QuorumLostError(
                "every member of the voting group is convicted; no "
                "healthy replica left to promote"
            )
        self._proposer_idx = slot.index
        slot.incarnation += 1
        self.tally.truncate_below(self._epoch)
        super()._recover()

    def _settle(self, ep: Epoch) -> None:
        """The proposer completed: settle the wire, drive every healthy
        follower to its final ballot, and require a certificate for
        every subject instance of the era."""
        self._drain_vote_wire()
        ep.channel.settle()              # flush → feed → final replays
        self._feed_followers()
        blocked = self._blocked_members()
        for follower in self._followers.values():
            slot = follower.slot
            if slot.index in blocked:
                # Still partitioned at era end: the member cannot reach
                # its final ballot, so it finishes *suspected* —
                # recoverable silence, never a conviction — and the
                # quorum must close without its votes (f+1 of the
                # remaining members).
                if slot.suspect():
                    self.metrics.members_suspected += 1
                continue
            if follower.result is None:
                follower.release()
                follower.result = follower.jvm.run_to_completion()
        for follower in self._followers.values():
            if follower.slot.index not in blocked:
                # A follower that completed its replay before the final
                # digest record arrived exited with nothing to compare;
                # cast its final ballot now that the record is here.
                follower.verifier.check_final(follower.jvm)
        self._process_verdicts()         # may raise PrimaryOutvoted
        missing = self.tally.uncertified(self._epoch)
        if missing:
            raise QuorumLostError(
                f"era {self._epoch} ended with {len(missing)} uncertified "
                f"subject(s): {missing[:3]}"
            )

    # ------------------------------------------------------------------
    # Graceful degradation (engine demotion)
    # ------------------------------------------------------------------
    def request_demotion(self, engine: str = "step") -> None:
        """Ask the group to rebuild itself onto ``engine`` at the next
        replayable safe-point boundary.  The live era keeps serving
        until the boundary; the demotion itself re-arms every member —
        including any quarantined one — through the checkpoint-transfer
        path under a fresh era."""
        if engine not in ("step", "slice"):
            raise ReplicationError(
                f"cannot demote to unknown engine {engine!r}; expected "
                f"'step' or 'slice'"
            )
        self._demote_to = engine

    def _demote(self) -> None:
        """Perform a pending demotion: checkpoint the live proposer at
        the safe-point, tear the era down, drop the MVEE variant
        pinning, and re-arm the whole group on the target engine.

        ``_demote_to`` is cleared only on success — a deposition that
        surfaces while settling ballots takes priority, and the pending
        demotion is retried once the new era is armed."""
        engine = self._demote_to
        if self.variants is None and self.base_config.engine == engine \
                and all(slot.engine == engine for slot in self.slots):
            self._demote_to = None       # already there: no-op
            return
        # Settle the current era's outstanding ballots first; a
        # conviction surfacing here propagates (PrimaryOutvoted) and
        # pre-empts the demotion.
        self._settle_ballots()

        ep = self._active
        checkpoint = take_checkpoint(ep.jvm, ep.se_manager,
                                     generation=self._epoch)
        ep.report.outcome = "demoted"
        self._finish_metrics(ep.jvm, ep.metrics, ep.transport)
        ep.jvm.session.destroy()
        self._drop_followers()
        ep.transport.close()
        self._clear_ballots()

        self.variants = None
        self.base_config = replace(self.base_config, engine=engine)
        for slot in self.slots:
            slot.engine = engine
        self.metrics.engine = engine
        self.metrics.engine_demotions += 1
        self._epoch += 1
        self._demote_to = None
        self.demotions.append((self._epoch, engine))
        self.tally.truncate_below(self._epoch)

        # Rebuild the proposer from its own safe-point checkpoint on
        # the target engine (engines are contractually bit-identical,
        # so the restore crosses them losslessly), then arm the new
        # era — which re-checkpoints and rebuilds every follower, and
        # re-arms any convicted slot along the way.
        self.slots[self._proposer_idx].incarnation += 1
        jvm, se_manager = self._spawn(self._identity(self._epoch),
                                      checkpoint)
        promote(jvm, se_manager)
        self._arm(jvm, se_manager)

    def _run(self, park: bool) -> Optional[RunResult]:
        """Drive the proposer, landing pending demotions at the era's
        safe-points along the way."""
        while True:
            try:
                if self._demote_to is not None:
                    self._demote()
                result = super()._run(park)
                if result is None:
                    # Parked on the empty request port: settle ballots
                    # cast on the way in before handing control back.
                    self._settle_ballots()
                    if self._demote_to is not None:
                        self._demote()
                return result
            except _DemotionBoundary:
                self._demote()

    # The wall-clock tracer wraps ``vars(cls)["pump"]`` class by class.
    pump = ReplicaSet.pump

