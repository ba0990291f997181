"""The replication core: one replica lifecycle, configured three ways.

The paper describes one protocol — a primary logs, a backup replays,
output waits for an acknowledgment — and this module holds it once.
:class:`ReplicaSet` carries the whole lifecycle:

* **boot** the first machine from the identical initial state;
* **arm** it as an epoch's primary (:meth:`ReplicaSet._arm`): fresh
  transport and channel, log shipper with its crash injector and
  release predicate, native policy, strategy driver, heartbeat hooks,
  optional digest emitter, and — for sets that re-integrate — a
  quiescent checkpoint shipped through the ordinary log channel and
  reassembled from the wire (:meth:`ReplicaSet._ship_checkpoint`);
* **drive** it (:meth:`ReplicaSet._drive`, the one epoch loop): on a
  crash or an outvote dispose of the epoch, open the next, **recover**
  a :class:`Replayer` from the retained basis, and either let it
  finish as sole survivor or promote and re-arm it;
* **serve**: the ``start_serving`` / ``submit`` / ``serve`` / ``pump``
  / ``stop_serving`` facade plus request-port reconciliation.

A :class:`Replayer` is the other half: a log-driven replica that
restores from a checkpoint (or boots fresh), parses and fences the
delivered log, feeds it to the native policy and the strategy's backup
driver, holds at the end of the log, resolves the uncertain output
tail exactly-once, and is then released or promoted.  The cold backup,
the hot backup, a recovering generation and a voting follower are all
this one class, constructed with different arguments.

The three public classes are thin configurations of the set:

* :class:`~repro.replication.machine.ReplicatedJVM` — the paper's
  pair: it does not re-integrate (no arm checkpoint, no epoch stamps,
  the survivor of its one failover runs alone), uses fixed
  primary/backup settings, and ``hot_backup`` gives it one live
  replayer;
* :class:`~repro.replication.supervisor.ReplicaGroup` — generations
  with checkpoint re-integration; its backup is cold, so an arm
  transfer is verified by scratch restore and the chunk prefix is
  truncated;
* :class:`~repro.replication.voting.VotingGroup` — the same lifecycle
  with ``n - 1`` live replayers and an ``f + 1``-certificate predicate
  in place of the bare acknowledgment.

The release predicate plugs in at exactly one place:
``LogShipper.commit_gate``, which :meth:`ReplicaSet._arm` sets from
``self._commit_gate`` (``None`` — the ack alone releases — unless a
subclass defines it).

The core works at lifecycle granularity (boot, arm, recover, finish):
nothing here sits on the per-slice or per-record paths
(``run_to_completion``, ``on_slice_end``, ``LogShipper.log``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.classfile.loader import ClassRegistry
from repro.env.channel import Channel
from repro.env.environment import Environment
from repro.env.port import INGEST_SIGNATURE, request_id
from repro.errors import (
    AlreadyRanError,
    PrimaryCrashed,
    RecoveryError,
    ReplicationError,
)
from repro.replication.checkpoint import (
    DEFAULT_CHUNK_BYTES,
    Checkpoint,
    CheckpointAssembler,
    CheckpointChunkRecord,
    DeltaCheckpoint,
    first_dispatch_vid,
    restore_checkpoint,
    take_checkpoint,
)
from repro.replication.commit import CrashInjector, EpochFence, LogShipper
from repro.replication.config import ReplicaSettings, ReplicationConfig
from repro.replication.digest import DigestEmitter, DigestRecord
from repro.replication.failure import FailureDetector
from repro.replication.metrics import ReplicationMetrics
from repro.replication.ndnatives import BackupNativePolicy, PrimaryNativePolicy
from repro.replication.records import (
    IdMap,
    LockAcqRecord,
    LockIntervalRecord,
    NativeResultRecord,
    OutputIntentRecord,
    ScheduleRecord,
    SideEffectRecord,
    decode_record,
)
from repro.replication.sehandlers import SideEffectManager
from repro.replication.steady import SteadyCheckpointer, SteadyHooks
from repro.replication.strategy import resolve_strategy
from repro.replication.transport import Transport, make_transport
from repro.runtime.jvm import JVM, JVMConfig, RunHooks, RunResult
from repro.runtime.natives import NativeRegistry
from repro.runtime.stdlib import default_natives

#: What identifies one replica incarnation: its environment session
#: name, its private sources of non-determinism, and its JVM tunables.
Identity = Tuple[str, ReplicaSettings, JVMConfig]


# ======================================================================
# The delivered log, parsed
# ======================================================================
@dataclass
class ParsedLog:
    """The delivered log, partitioned by record type.  Plug-in record
    types land in :attr:`extra` (keyed by class name) unless a parse
    rule was registered via :func:`register_log_record`."""

    id_maps: List[IdMap] = field(default_factory=list)
    lock_acqs: List[LockAcqRecord] = field(default_factory=list)
    schedules: List[ScheduleRecord] = field(default_factory=list)
    results: Dict[Tuple[int, ...], List[NativeResultRecord]] = field(
        default_factory=dict
    )
    intents: Dict[Tuple[int, ...], List[OutputIntentRecord]] = field(
        default_factory=dict
    )
    intervals: List[LockIntervalRecord] = field(default_factory=list)
    side_effects: List[SideEffectRecord] = field(default_factory=list)
    digests: List[DigestRecord] = field(default_factory=list)
    extra: Dict[str, list] = field(default_factory=dict)
    total: int = 0


_PARSE_RULES: Dict[Type, Callable[[ParsedLog, object], None]] = {
    IdMap: lambda p, r: p.id_maps.append(r),
    LockAcqRecord: lambda p, r: p.lock_acqs.append(r),
    ScheduleRecord: lambda p, r: p.schedules.append(r),
    NativeResultRecord:
        lambda p, r: p.results.setdefault(r.t_id, []).append(r),
    OutputIntentRecord:
        lambda p, r: p.intents.setdefault(r.t_id, []).append(r),
    LockIntervalRecord: lambda p, r: p.intervals.append(r),
    SideEffectRecord: lambda p, r: p.side_effects.append(r),
    DigestRecord: lambda p, r: p.digests.append(r),
}


def register_log_record(record_type: Type,
                        rule: Optional[Callable[[ParsedLog, object], None]]
                        = None) -> None:
    """Give a plug-in record type a home in :class:`ParsedLog`.

    ``rule(parsed, record)`` buckets one decoded record; with no rule
    the record goes to ``parsed.extra[record_type.__name__]`` (which is
    also where unregistered types land, so calling this is optional —
    it exists to let plug-ins claim a custom bucket or redirect a type).
    """
    if rule is None:
        name = record_type.__name__
        rule = lambda p, r: p.extra.setdefault(name, []).append(r)  # noqa: E731
    _PARSE_RULES[record_type] = rule


def parse_log(raw_records: List[bytes]) -> ParsedLog:
    """Decode and partition the delivered log.  Dispatch is by record
    type through a rule table, so strategy plug-ins can register new
    record types without touching this function."""
    parsed = ParsedLog()
    for data in raw_records:
        record = decode_record(data)
        parsed.total += 1
        rule = _PARSE_RULES.get(type(record))
        if rule is not None:
            rule(parsed, record)
        else:
            parsed.extra.setdefault(type(record).__name__, []).append(record)
    return parsed


# ======================================================================
# Run hooks
# ======================================================================
class PrimaryHooks(RunHooks):
    """Ship transport-level heartbeats from the primary's run loop (the
    failure detector counts them as the backup sees them) and, when a
    digest emitter is installed, the end-of-run state digest."""

    def __init__(self, channel: Channel,
                 emitter: Optional[DigestEmitter] = None) -> None:
        self._channel = channel
        self._emitter = emitter

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._channel.heartbeat()

    def on_exit(self, jvm, result) -> None:
        if self._emitter is not None:
            self._emitter.emit_final()


class ReplayHooks(RunHooks):
    """Replayer-side digest comparison (or, in a voting group,
    balloting) at slice boundaries and exit."""

    def __init__(self, verifier) -> None:
        self._verifier = verifier

    def on_slice_end(self, jvm, thread, reason) -> None:
        self._verifier.check_slice(jvm)

    def on_exit(self, jvm, result) -> None:
        self._verifier.check_final(jvm)


# ======================================================================
# Epoch bookkeeping
# ======================================================================
@dataclass
class GenerationReport:
    """What happened while one epoch's primary held the role."""

    generation: int
    outcome: str = "pending"
    #: Injector event count at the crash (None when no crash fired).
    crash_event: Optional[int] = None
    #: Total injector events observed this generation.
    events: int = 0
    detection_intervals: Optional[int] = None
    checkpoint_bytes: int = 0
    checkpoint_chunks: int = 0
    primary_metrics: Optional[ReplicationMetrics] = None
    #: Metrics of the recovery replay that *produced* this generation's
    #: primary (None for generation 0's fresh boot).
    recovery_metrics: Optional[ReplicationMetrics] = None
    #: Steady-state delta checkpoints adopted while this generation
    #: held the primary role (0 when checkpoint_interval is off).
    steady_checkpoints: int = 0


@dataclass
class Epoch:
    """Everything one armed epoch owns: the instrumented primary and
    its channel-side plumbing.  Kept in one bundle so the failure path
    (which can fire during transfer *or* during execution) always has
    the right handles."""

    number: int
    jvm: JVM
    se_manager: SideEffectManager
    transport: Transport
    channel: Channel
    metrics: ReplicationMetrics
    shipper: LogShipper
    report: GenerationReport
    policy: Optional[PrimaryNativePolicy] = None
    emitter: Optional[DigestEmitter] = None
    #: True once the arm transfer (if any) is adopted: from then on the
    #: delivered log, not the previous basis, is what recovery replays.
    armed: bool = False
    #: Steady-state emitter, installed once the arm transfer completes.
    steady: Optional[SteadyCheckpointer] = None


def promote(jvm: JVM, se_manager: SideEffectManager) -> None:
    """Strip replay-era residue before a machine takes the primary
    role (or is checkpointed as one)."""
    # Lock ids are a per-epoch naming scheme; the next epoch's strategy
    # assigns fresh ones.
    for obj in jvm.heap.objects:
        monitor = getattr(obj, "monitor", None)
        if monitor is not None:
            monitor.l_id = None
    jvm.sync.notify_wakes_all = False
    jvm.scheduler.release_current()
    jvm.scheduler.last_reason = None
    # Volatile environment state (open fds, console position) must be
    # live before the promoted machine touches the environment; no-op
    # if the uncertain-tail path already restored it.
    se_manager.restore(jvm.session)


# ======================================================================
# The log-driven replica
# ======================================================================
class Replayer:
    """One replica driven by the delivered log.

    Construction restores ``basis`` (digest-verified by
    :func:`restore_checkpoint`) or boots from the identical initial
    state, fences and parses ``raw``, and installs the native policy
    and the strategy's backup driver over it.  With ``hold`` the
    replica never executes past the log: it pauses when the log drains
    (:meth:`pump` feeds it more, :meth:`replay_to_end` resolves the
    uncertain tail) until :meth:`release` lets it run live.
    """

    def __init__(self, host: "ReplicaSet", identity: Identity, *,
                 role: str, hold: bool,
                 basis: Optional[Checkpoint] = None,
                 raw: Optional[List[bytes]] = None,
                 fence_epoch: Optional[int] = None,
                 boot: Optional[Tuple[str, Optional[List[str]]]] = None,
                 make_verifier: Optional[Callable] = None,
                 fed: int = 0) -> None:
        _, settings, config = identity
        self.metrics = metrics = ReplicationMetrics(role=role)
        self.jvm, self.se_manager = host._spawn(identity, basis)
        jvm, se_manager = self.jvm, self.se_manager
        if basis is not None:
            metrics.checkpoints_restored += 1
        elif boot is not None:
            jvm.bootstrap(*boot)
        #: Receive-side split-brain guard (None on an unstamped log).
        self.fence = (EpochFence(fence_epoch, metrics)
                      if fence_epoch is not None else None)
        #: How many delivered records this replica has been fed.
        self.fed = fed
        #: The program's result once the replay ran to completion.
        self.result: Optional[RunResult] = None
        #: True while a hold-mode run sits paused at the end of the
        #: delivered log; only new log (or :meth:`release`) can move it.
        self.paused = False

        raw = raw or []
        if self.fence is not None:
            raw = self.fence.filter_raw(raw)
        #: The log this replica was built over, parsed.
        self.tail = parsed = parse_log(raw)
        metrics.recovery_tail_records = parsed.total
        for record in parsed.side_effects:
            se_manager.receive(record)
        self.policy = policy = BackupNativePolicy(
            parsed.results, parsed.intents, se_manager, metrics
        )
        policy.hold_when_drained = hold
        if basis is not None:
            # A mid-epoch basis carries the primary's per-thread native
            # numbering; the tail's records hold absolute seqs, so
            # replay must resume the counters.
            policy.seed_seqs(basis.state().native_seqs)
        jvm.native_policy = policy
        self.driver = driver = host._strategy.make_backup(
            parsed, metrics, settings, config
        )
        driver.install(jvm)
        driver.set_hold(hold)
        self.controller = controller = getattr(driver, "controller", None)
        if basis is not None:
            # The snapshot was captured with the descheduled thread
            # still `current`; replay resumes by dispatching it first
            # (the tail's first ScheduleRecord deschedules it at the
            # captured progress point), then normalizes the scheduler
            # the same way the primary's requeue did (no-op for
            # quiescent arm-time checkpoints).
            if hasattr(controller, "set_resume_vid"):
                controller.set_resume_vid(first_dispatch_vid(jvm))
            jvm.scheduler.release_current()
        jvm.sync.reevaluate_parked()

        self.verifier = None
        if make_verifier is not None:
            source = driver.digest_epoch_source()
            if basis is not None and source is not None:
                # Retained DigestRecords carry absolute epochs; the
                # replay's consumed count restarts at the truncation
                # point, so offset it by the basis capture epoch.
                base_epoch, tail_source = basis.sched_epoch, source
                source = lambda: base_epoch + tail_source()  # noqa: E731
            self.verifier = make_verifier(parsed.digests, host.env,
                                          epoch_source=source)
            jvm.run_hooks = ReplayHooks(self.verifier)

    # ------------------------------------------------------------------
    def pump(self, delivered: List[bytes]) -> bool:
        """Feed whatever of ``delivered`` is new and replay until the
        log runs dry again.  Returns True when new records arrived.

        A paused hold-mode replica waits on nothing but the log, so a
        pump that delivers nothing new returns without running it.  A
        fresh replica is not paused: its first pump always runs."""
        new_raw = delivered[self.fed:]
        self.fed = len(delivered)
        if not new_raw and self.paused:
            return False
        if new_raw:
            if self.fence is not None:
                new_raw = self.fence.filter_raw(new_raw)
            parsed = parse_log(new_raw)
            for record in parsed.side_effects:
                self.se_manager.receive(record)
            self.policy.extend(parsed.results, parsed.intents)
            self.driver.extend_from(parsed)
            if self.verifier is not None and parsed.digests:
                self.verifier.extend(parsed.digests)
            self.jvm.sync.reevaluate_parked()
        if self.result is None:
            self.result = self.jvm.run_to_completion(
                pause_on_starvation=True
            )
            self.paused = self.result is None
        return bool(new_raw)

    def gate_tail(self) -> None:
        """Let a held schedule replay dispatch the one thread standing
        at an un-markered output intent, so it can reach that native
        (to resolve it, or to ballot on its payload)."""
        if hasattr(self.controller, "tail_gate"):
            self.controller.tail_gate = self.policy.has_uncertain_tail

    def _unstarve(self) -> None:
        if hasattr(self.controller, "starving"):
            self.controller.starving = False
        self.jvm.sync.reevaluate_parked()

    def replay_to_end(self) -> None:
        """Replay the whole log in hold mode, then resolve the paper's
        uncertain output — intent delivered, completion marker lost —
        exactly-once: admit just that native (the strategy keeps
        holding everything else) and let test/confirm/re-execute settle
        it with this replica's own recomputed arguments."""
        jvm, policy = self.jvm, self.policy
        self.gate_tail()
        self.result = jvm.run_to_completion(pause_on_starvation=True)
        if self.result is None and any(
            policy.has_uncertain_tail(t.vid) for t in jvm.scheduler.threads
        ):
            policy.tail_resolution = True
            self._unstarve()
            self.result = jvm.run_to_completion(pause_on_starvation=True)
        if self.result is None and policy.remaining():
            raise RecoveryError(
                f"recovery of {jvm.name} stalled with {policy.remaining()} "
                f"unreplayed native record(s)"
            )

    def release(self) -> None:
        """Leave hold mode: from here the replica executes live."""
        self.paused = False
        self.policy.hold_when_drained = False
        self.driver.set_hold(False)
        self._unstarve()


# ======================================================================
# The lifecycle
# ======================================================================
class ReplicaSet:
    """A primary, its replayers, and the epoch loop that keeps exactly
    one machine in the primary role until the program completes.  See
    the module docstring; subclasses are configurations, not forks."""

    #: Does a recovered replica re-integrate — get promoted, ship a
    #: checkpoint to a fresh backup under the next epoch's stamp, and
    #: carry on as primary?  A set that does not (the paper's pair)
    #: ships no arm checkpoint, stamps and fences nothing, and lets the
    #: survivor of its one failover finish alone.
    reintegrates = True
    #: Give every replica ``fresh()`` side-effect handlers (the pair
    #: shares the configured instances between its two replicas).
    fresh_handlers = True
    #: Metrics role labels.
    primary_role = "primary"
    recovery_role = "backup"
    #: Failures of the active primary the epoch loop absorbs.
    absorbs: Tuple[type, ...] = (PrimaryCrashed,)
    #: The release predicate, installed as ``LogShipper.commit_gate``;
    #: None means the backup's acknowledgment alone releases an output.
    _commit_gate: Optional[Callable[[], None]] = None
    #: ``PrimaryNativePolicy.on_output_propose`` for each epoch.
    _on_output_propose: Optional[Callable] = None
    #: Builds each epoch's digest emitter and primary run hooks.
    _emitter_type: Callable = DigestEmitter
    _hooks_type: Callable = PrimaryHooks
    #: Builds the digest verifier of recovery replayers (None = none).
    _verifier_type: Optional[Callable] = None

    def __init__(
        self,
        registry: ClassRegistry,
        natives: Optional[NativeRegistry] = None,
        env: Optional[Environment] = None,
        *,
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        config = config or ReplicationConfig()
        self.config = config
        self._strategy = resolve_strategy(config.strategy)
        self.registry = registry
        self.natives = natives or default_natives()
        self.env = env or Environment()
        self.base_config = config.jvm_config or JVMConfig()
        self.chunk_bytes = (DEFAULT_CHUNK_BYTES if config.chunk_bytes is None
                            else config.chunk_bytes)
        #: generation -> injector crash event (dict or sequence).
        self.crash_schedule = config.crash_schedule
        #: Emit a DigestRecord every N replicated scheduling events
        #: (plus a final one at primary exit); None disables digests.
        self.digest_interval = config.digest_interval
        #: Steady-state incremental checkpointing: emit a delta every N
        #: slices and truncate the delivered log at each adoption
        #: (None = off; the log grows for the whole epoch).
        self.checkpoint_interval = config.checkpoint_interval
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval < 1:
            raise ReplicationError(
                f"checkpoint_interval must be a positive slice count, "
                f"got {self.checkpoint_interval!r}"
            )
        self.detector = FailureDetector(config.detector_timeout)
        self._extra_se_handlers = list(config.se_handlers)
        self._transport_spec = config.transport
        self._transport_template_used = False

        #: Per-epoch reports, appended as each epoch opens.
        self.reports: List[GenerationReport] = []
        #: The machine that produced the final output (for digest checks).
        self.final_jvm: Optional[JVM] = None

        # --- recovery basis: everything the surviving side knows -------
        #: Last checkpoint fully transferred and digest-verified.
        self._ckpt: Optional[Checkpoint] = None
        #: Epoch that shipped (and therefore stamps) the basis records.
        self._ckpt_epoch = -1
        #: Raw delivered records since the basis, captured when that
        #: epoch's primary failed.
        self._exec_raw: List[bytes] = []
        #: Raw leavings of deposed primaries whose transfer never
        #: completed — retained only so the fence can provably discard
        #: them at the next recovery.
        self._stale_raw: List[bytes] = []
        self._verify_sessions = 0

        # --- epoch state -----------------------------------------------
        self._epoch = 0
        self._failures = 0
        self._ran = False
        #: The last armed epoch.
        self._active: Optional[Epoch] = None
        #: A booted or recovered machine waiting to be armed:
        #: ``(jvm, se_manager, recovery_metrics)``.
        self._unarmed: Optional[tuple] = None
        #: A recovered replica that will not be re-armed: it finished
        #: during replay, or this set does not re-integrate.
        self._survivor: Optional[Replayer] = None

        # --- serving lifecycle state -----------------------------------
        #: Request port name when serving (None = batch run()).
        self._serve_port: Optional[str] = None
        #: ``len(port.consumed)`` at the last basis adoption: live takes
        #: already baked into the checkpoint itself.
        self._port_basis = 0
        self._main: Optional[str] = None
        self._args: Optional[List[str]] = None
        self._serve_result: Any = None
        self._configure()

    # ==================================================================
    # What a subclass configures
    # ==================================================================
    def _configure(self) -> None:
        """Reject the options this kind of set cannot honour and build
        its own state; runs once, at the end of construction."""

    def _identity(self, epoch: int) -> Identity:
        """Identity of the replica that holds (or, recovering, is about
        to take) the primary role in ``epoch``."""
        raise NotImplementedError

    def _new_report(self, **fields) -> GenerationReport:
        return GenerationReport(generation=self._epoch, **fields)

    def _result(self, result: RunResult) -> Any:
        """The class's public result object for a completed run."""
        raise NotImplementedError

    def _settle(self, ep: Epoch) -> None:
        """The primary completed: make sure everything it shipped is
        delivered before the epoch is closed."""
        ep.channel.settle()

    def _adopt_checkpoint(self, ep: Epoch, checkpoint: Checkpoint) -> None:
        """An arm transfer was acknowledged and reassembled: it is the
        new recovery basis, and everything older is dead weight."""
        self._ckpt = checkpoint
        self._ckpt_epoch = ep.number
        self._exec_raw = []
        self._stale_raw = []
        self._rebase_port()

    # ==================================================================
    # Properties
    # ==================================================================
    @property
    def strategy(self) -> str:
        """Name of the resolved coordination strategy."""
        return self._strategy.name

    @property
    def failures_survived(self) -> int:
        return self._failures

    @property
    def generation(self) -> int:
        """The current epoch number."""
        return self._epoch

    @property
    def active_jvm(self) -> Optional[JVM]:
        """The machine currently holding the primary role, if any."""
        if self._survivor is not None:
            return self._survivor.jvm
        return self._active.jvm if self._active is not None else None

    # ==================================================================
    # Plumbing
    # ==================================================================
    def _crash_at(self, epoch: int) -> Optional[int]:
        schedule = self.crash_schedule
        if schedule is None:
            return None
        if isinstance(schedule, dict):
            return schedule.get(epoch)
        if isinstance(schedule, (list, tuple)):
            return schedule[epoch] if epoch < len(schedule) else None
        raise ReplicationError(
            "crash_schedule must be a dict or sequence of crash events"
        )

    def _make_transport(self, epoch: int) -> Transport:
        spec = self._transport_spec
        if isinstance(spec, Transport):
            if self._transport_template_used:
                return spec.fresh()
            self._transport_template_used = True
            return spec
        if callable(spec):
            built = spec(epoch)
            return (built if isinstance(built, Transport)
                    else make_transport(built))
        return make_transport(spec)

    def _make_se_manager(self) -> SideEffectManager:
        manager = SideEffectManager()
        for handler in self._extra_se_handlers:
            manager.add_handler(handler.fresh() if self.fresh_handlers
                                else handler)
        return manager

    def _spawn(self, identity: Identity,
               basis: Optional[Checkpoint] = None
               ) -> Tuple[JVM, SideEffectManager]:
        """Attach a session and build one replica's machine: restored
        from ``basis`` (:func:`restore_checkpoint` digest-verifies it —
        a torn or corrupted snapshot is rejected, not adopted) or fresh
        from the identical initial state."""
        name, settings, config = identity
        session = self.env.attach(
            name,
            clock_offset_ms=settings.clock_offset_ms,
            entropy_seed=settings.entropy_seed,
        )
        se_manager = self._make_se_manager()
        if basis is None:
            jvm = JVM(self.registry, self.natives, session, config,
                      name=name)
        else:
            jvm = restore_checkpoint(
                basis, self.registry, self.natives, session, config,
                name=name, se_manager=se_manager,
            )
        return jvm, se_manager

    def _verify_restore(self, checkpoint: Checkpoint) -> None:
        """Restore a checkpoint into a scratch machine —
        :func:`restore_checkpoint` re-derives the state digest and
        refuses the snapshot on any mismatch, so a torn transfer or a
        delta-composition bug is caught at adoption, not at the next
        failover."""
        self._verify_sessions += 1
        session = self.env.attach(f"ckpt-verify-{self._verify_sessions}")
        try:
            restore_checkpoint(
                checkpoint, self.registry, self.natives, session,
                self._identity(self._epoch)[2], name="ckpt-verify",
                se_manager=self._make_se_manager(),
            )
        finally:
            session.destroy()

    @staticmethod
    def _finish_metrics(jvm: JVM, metrics: ReplicationMetrics,
                        transport: Optional[Transport] = None) -> None:
        """Collect one replica's end-of-epoch counters (and, for a
        primary, its transport's)."""
        metrics.instructions = jvm.instructions
        metrics.cf_changes = sum(t.br_cnt for t in jvm.scheduler.threads)
        metrics.engine = jvm.config.engine
        metrics.blocks_compiled = jvm.interpreter.blocks_compiled
        metrics.block_cache_hits = jvm.interpreter.block_cache_hits
        metrics.heavy_ops = jvm.heavy_ops
        metrics.native_calls = jvm.native_calls
        metrics.locks_acquired = jvm.sync.total_acquisitions
        metrics.objects_locked = jvm.sync.monitors_created
        metrics.largest_l_asn = jvm.sync.largest_l_asn
        metrics.reschedules = jvm.scheduler.reschedules
        if transport is not None:
            stats = transport.stats
            metrics.retransmits = stats.retransmits
            metrics.messages_dropped = stats.messages_dropped
            metrics.messages_duplicated = stats.messages_duplicated
            metrics.backpressure_stalls = stats.backpressure_stalls
            metrics.heartbeats_sent = stats.heartbeats_sent
            metrics.heartbeats_delivered = stats.heartbeats_delivered

    # ==================================================================
    # Arming (instrument a machine as the epoch's primary)
    # ==================================================================
    def _ship_checkpoint(self, ep: Epoch,
                         chunks: List[CheckpointChunkRecord]) -> Checkpoint:
        """Both halves of a state transfer: log the chunks (each one a
        crash-injector event, so a sweep can kill the sender
        mid-transfer), commit, then reassemble the snapshot from the
        delivered wire records — chunk framing, fencing and assembler
        idempotence are exercised on every transfer."""
        start = len(ep.channel.delivered)
        for chunk in chunks:
            ep.shipper.log(chunk)
            ep.metrics.checkpoint_records += 1
            ep.metrics.checkpoint_bytes += len(chunk.data)
        ep.shipper.checkpoint_commit()
        fence = EpochFence(ep.number, ep.metrics)
        assembler = CheckpointAssembler()
        assembled: Optional[Checkpoint] = None
        for data in fence.filter_raw(ep.channel.backup_log()[start:]):
            record = decode_record(data)
            if isinstance(record, CheckpointChunkRecord):
                assembled = assembler.feed(record) or assembled
        if assembled is None:
            raise ReplicationError(
                f"checkpoint transfer for epoch {ep.number} was "
                f"acknowledged but never assembled"
            )
        return assembled

    def _arm(self, jvm: JVM, se_manager: SideEffectManager,
             recovery_metrics: Optional[ReplicationMetrics] = None
             ) -> Epoch:
        """Instrument ``jvm`` as the current epoch's primary and, when
        this set re-integrates, transfer its checkpoint to the backup
        side.  May raise :class:`PrimaryCrashed` mid-transfer;
        ``self._active`` is already populated by then so the failure
        path has the handles."""
        number = self._epoch
        _, settings, jvm_config = self._identity(number)
        transport = self._make_transport(number)
        channel = Channel(batch_records=self.config.batch_records,
                          transport=transport)
        self.detector.reset(
            source=lambda: transport.stats.heartbeats_delivered
        )
        metrics = ReplicationMetrics(role=self.primary_role)
        shipper = LogShipper(
            channel, metrics, CrashInjector(self._crash_at(number)),
            epoch=number if self.reintegrates else None,
        )
        shipper.commit_gate = self._commit_gate
        report = self._new_report(primary_metrics=metrics,
                                  recovery_metrics=recovery_metrics)
        self.reports.append(report)
        ep = Epoch(number, jvm, se_manager, transport, channel, metrics,
                   shipper, report)
        self._active = ep

        # Quiescent snapshot first, then primary instrumentation — the
        # checkpoint must not contain primary-side hooks.  It carries
        # no native seqs: each epoch's fresh policy restarts native
        # numbering at 1, and its replayers must count the same way.
        chunks: Optional[List[CheckpointChunkRecord]] = None
        if self.reintegrates:
            checkpoint = take_checkpoint(jvm, se_manager, generation=number)
            if self.checkpoint_interval is not None:
                # Open the dirty window at the capture point: everything
                # mutated from here on belongs to the first steady delta.
                jvm.heap.advance_era()
            chunks = checkpoint.to_chunks(self.chunk_bytes)
            report.checkpoint_bytes = checkpoint.byte_size
            report.checkpoint_chunks = len(chunks)

        ep.policy = PrimaryNativePolicy(shipper, metrics, se_manager)
        ep.policy.on_output_propose = self._on_output_propose
        jvm.native_policy = ep.policy
        self._strategy.make_primary(
            shipper, metrics, settings, jvm_config
        ).install(jvm)
        if self.digest_interval is not None:
            ep.emitter = self._emitter_type(
                shipper, metrics, self.env, interval=self.digest_interval,
                lockstep=self._strategy.lockstep_digest,
            )
            ep.emitter.jvm = jvm
            shipper.on_record = ep.emitter.observe
        jvm.run_hooks = self._hooks_type(channel, ep.emitter)
        jvm.sync.reevaluate_parked()

        if chunks is not None:
            self._adopt_checkpoint(ep, self._ship_checkpoint(ep, chunks))
        ep.armed = True
        if self.checkpoint_interval is not None:
            # Steady-state emission only once the arm transfer is fully
            # adopted: a truncation can therefore never race the
            # re-integration transfer — the log the arm chunks travel
            # through is only ever cut at the adoption boundary itself.
            ep.steady = SteadyCheckpointer(
                shipper, channel, metrics, se_manager,
                interval=self.checkpoint_interval,
                generation=number,
                chunk_bytes=self.chunk_bytes,
                basis=self._ckpt,
                verify_restore=(self._verify_restore
                                if self.config.verify_checkpoints
                                else None),
                on_adopt=self._adopt_steady,
            )
            jvm.run_hooks = SteadyHooks(jvm.run_hooks, ep.steady)
        return ep

    def _adopt_steady(self, composed: Checkpoint,
                      delta: Optional[DeltaCheckpoint]) -> None:
        """A steady emission was acknowledged, reassembled from the
        wire, composed onto the basis and (optionally) verified by
        scratch restore: it is the new recovery basis."""
        self._ckpt = composed
        self._active.report.steady_checkpoints += 1
        self._rebase_port()

    # ==================================================================
    # Failure and recovery
    # ==================================================================
    def _dispose(self, failure: Exception) -> None:
        """The active primary fail-stopped or was outvoted: close its
        books, tear it down, and capture what the backup side holds as
        the next recovery's input."""
        ep = self._active
        report = ep.report
        self._failures += 1
        self._finish_metrics(ep.jvm, ep.metrics, ep.transport)
        report.events = report.crash_event = ep.shipper.injector.events
        # Fail-stop: volatile state and buffered records die with the
        # primary.
        ep.jvm.session.destroy()
        ep.channel.crash_primary()
        if isinstance(failure, PrimaryCrashed):
            report.outcome = ("crashed" if ep.armed
                              else "crashed_in_transfer")
            # A crash is noticed by silence; a conviction needs no wait.
            report.detection_intervals = self.detector.await_detection()
        else:
            report.outcome = "deposed"
        raw = ep.channel.backup_log()
        if ep.armed:
            # The backup side holds checkpoint + post-transfer records:
            # that is the new recovery basis.
            self._exec_raw = raw
            self._stale_raw = []
        else:
            # Torn transfer: the old basis stands; these stamped
            # leavings exist only to be fenced.
            self._stale_raw.extend(raw)
        if self.reintegrates:
            ep.transport.close()

    def _recover(self) -> None:
        """Build the next primary from the basis: restore the last
        adopted checkpoint (or boot from the identical initial state
        when none ever completed), fence the retained log down to the
        basis epoch, reconcile the request port, and replay.  A set
        that re-integrates promotes the result and queues it for
        arming; otherwise — or when the program finished during replay
        — the replica carries on as sole survivor."""
        # A replica that will be re-armed, or that must not take a live
        # request out of order with the requeued lost ones, stops at
        # the end of the log; a batch survivor simply runs on.
        hold = self.reintegrates or self._serve_port is not None
        replayer = Replayer(
            self, self._identity(self._epoch), role=self.recovery_role,
            hold=hold, basis=self._ckpt,
            raw=self._exec_raw + self._stale_raw,
            fence_epoch=(max(self._ckpt_epoch, 0) if self.reintegrates
                         else None),
            boot=(self._main, self._args),
            make_verifier=self._verifier_type,
        )
        self._reconcile_port(replayer.tail, replayer.metrics)
        if hold:
            replayer.replay_to_end()
        if self.reintegrates:
            promote(replayer.jvm, replayer.se_manager)
        elif hold and replayer.result is None:
            replayer.release()
        if self.reintegrates and replayer.result is None:
            self._unarmed = (replayer.jvm, replayer.se_manager,
                             replayer.metrics)
        else:
            self._survivor = replayer

    def _reconcile_port(self, tail: ParsedLog,
                        metrics: ReplicationMetrics) -> None:
        """Exactly-once request consumption across a failover.

        ``port.consumed`` counts live takes since the run began; the
        basis accounts for ``_port_basis`` of them (baked into the
        checkpoint) plus one ``Server.recv`` result record per take
        whose flush survived the failure.  Every reply performs output
        commit first, so an *answered* request's recv record is always
        delivered — the overhang can only be unanswered requests
        consumed in the crash window.  Those are lost in flight:
        un-consume them and requeue at the front, preserving order.
        Re-running after a torn transfer is a no-op (same basis, no
        takes in between)."""
        if self._serve_port is None:
            return
        survived = sum(
            1
            for records in tail.results.values()
            for record in records
            if record.signature == INGEST_SIGNATURE
        )
        port = self.env.port(self._serve_port)
        accounted = self._port_basis + survived
        lost = port.consumed[accounted:]
        if lost:
            del port.consumed[accounted:]
            port.requeue(lost)
            metrics.requests_requeued += len(lost)

    def _rebase_port(self) -> None:
        if self._serve_port is not None:
            # Every request consumed so far is baked into the basis
            # checkpoint; only post-checkpoint recv records count at
            # the next reconciliation.
            self._port_basis = len(self.env.port(self._serve_port).consumed)

    # ==================================================================
    # The epoch loop
    # ==================================================================
    def _begin(self, main_class: str, args: Optional[List[str]],
               port: Optional[str] = None) -> None:
        """Boot epoch 0's machine from the identical initial state; the
        epoch loop arms it."""
        if self._ran:
            raise AlreadyRanError(
                f"this {type(self).__name__} already ran (it is "
                f"single-shot); build a fresh one — "
                f"ReplicatedJVM.clone() copies a pair's configuration"
            )
        self._ran = True
        self._serve_port = port
        self._main = main_class
        self._args = list(args) if args else None
        jvm, se_manager = self._spawn(self._identity(0))
        jvm.bootstrap(main_class, self._args)
        self._unarmed = (jvm, se_manager, None)

    def _run(self, park: bool) -> Optional[RunResult]:
        """Drive the armed primary until the program completes or —
        with ``park`` — it parks on the empty request port (None)."""
        ep = self._active
        result = ep.jvm.run_to_completion(pause_on_starvation=park)
        if result is None and ep.steady is not None:
            # Parked on the empty request port: a quiescent point —
            # emit a checkpoint if the interval elapsed.  A crash
            # injected mid-emission lands in the failover path, like
            # any other.
            ep.steady.note_park(ep.jvm)
        return result

    def _drive(self, park: bool) -> Optional[RunResult]:
        """The epoch loop.  Keep one machine in the primary role and
        drive it until the program completes (returns its result) or,
        with ``park``, it waits for requests (returns None).  When the
        primary crashes or is outvoted — while executing *or* during
        its arm transfer — dispose of the epoch, open the next, and
        recover; the recovered replica either finishes as sole survivor
        or is armed on the next pass."""
        while True:
            try:
                if self._unarmed is not None:
                    self._arm(*self._unarmed)
                    self._unarmed = None
                survivor = self._survivor
                if survivor is None:
                    result = self._run(park)
                else:
                    if survivor.result is None:
                        survivor.result = survivor.jvm.run_to_completion(
                            pause_on_starvation=park
                        )
                    result = survivor.result
                if result is not None:
                    self._complete(result)
                return result
            except self.absorbs as failure:
                self._unarmed = None
                self._dispose(failure)
                self._epoch += 1
                if self._epoch > self.config.max_failures:
                    raise ReplicationError(
                        f"{type(self).__name__} exhausted its failover "
                        f"budget ({self.config.max_failures}) — giving up"
                    )
                self._recover()

    def _complete(self, result: RunResult) -> None:
        """Completion bookkeeping for whichever machine finished."""
        survivor = self._survivor
        if survivor is not None:
            # The program finished in the hands of a recovered replica
            # that was never re-armed: it is the sole survivor and its
            # output is final.
            self._finish_metrics(survivor.jvm, survivor.metrics)
            self.final_jvm = survivor.jvm
            self.reports.append(self._new_report(
                outcome="completed_in_recovery",
                recovery_metrics=survivor.metrics,
            ))
            return
        ep = self._active
        self._settle(ep)
        self._finish_metrics(ep.jvm, ep.metrics, ep.transport)
        ep.report.outcome = "completed"
        ep.report.events = ep.shipper.injector.events
        if self.reintegrates:
            ep.transport.close()
        self.final_jvm = ep.jvm

    def run(self, main_class: str, args: Optional[List[str]] = None):
        """Run to completion, surviving every failure along the way."""
        self._begin(main_class, args)
        return self._result(self._drive(park=False))

    # ==================================================================
    # Serving lifecycle (resumable request/response operation)
    # ==================================================================
    def start_serving(self, main_class: str,
                      args: Optional[List[str]] = None, *,
                      port: str) -> None:
        """Boot epoch 0, arm it, and drive it to its first request wait.

        Instead of one ``run()`` to completion, the set alternates
        between :meth:`submit` / ``pump`` (drive until the program
        parks on an empty request port — ``Server.recv`` at a safe
        point) and failover: a primary failure during any pump is
        absorbed transparently — recovery replays the basis, the
        request port is reconciled for exactly-once consumption
        (requests consumed by the dead primary whose recv record never
        arrived are requeued), and serving resumes."""
        self._begin(main_class, args, port)
        self.pump()

    @property
    def serving(self) -> bool:
        """True while the program is parked waiting for requests."""
        return self._serve_port is not None and self._serve_result is None

    @property
    def serve_result(self):
        return self._serve_result

    def submit(self, request: str) -> None:
        """Queue a request without driving the machine."""
        if self._serve_port is None:
            raise ReplicationError(
                "not serving: call start_serving() first"
            )
        self.env.port(self._serve_port).push(request)

    def serve(self, request: str) -> Optional[str]:
        """Deliver one request and pump to the next quiescent point;
        returns the committed response text (None if the program exited
        without answering — e.g. a shutdown command)."""
        self.submit(request)
        self.pump()
        return self.env.responses.get(request_id(request))

    def pump(self) -> bool:
        """Drive the active machine until it parks on an empty port or
        the program completes, absorbing any primary failure along the
        way.  Returns True while still serving."""
        if self._serve_result is None:
            result = self._drive(park=True)
            if result is not None:
                self._serve_result = self._result(result)
        return self._serve_result is None

    def stop_serving(self, stop_request: str):
        """Deliver ``stop_request`` and run the program to completion."""
        self.submit(stop_request)
        self.pump()
        if self._serve_result is None:
            raise ReplicationError(
                f"still serving after stop request {stop_request!r}"
            )
        return self._serve_result
