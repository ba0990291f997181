"""One conformance cell: (spec, fault, reference, checks).

Since the pair, the replica group and the voting group became
configurations of one :class:`~repro.replication.core.ReplicaSet`,
every conformance question has the same shape: :func:`build` a replica
set from a :class:`CellSpec`, inject one **fault**, run the workload,
and hold the run to the paper's obligation — after any failure the
survivor's state equals the failure-free state and the environment saw
every output exactly once.  The sweeps differ only in the fault:

* :class:`Crash` — one fail-stop at an injector event index, absorbed
  by a :class:`~repro.replication.machine.ReplicatedJVM` (the pair);
* :class:`CrashChain` — one fail-stop per generation, absorbed by a
  re-integrating :class:`~repro.replication.supervisor.ReplicaGroup`;
* :class:`Lie` — seeded corruptions of a digest or an output on members
  of a :class:`~repro.replication.voting.VotingGroup`.

A fault type's default instance is the *honest* fault (no crash, no
lie), which :func:`reference_run` uses to probe the failure-free run.
:func:`check` is the whole oracle for one cell: :func:`execute` the
fault, then :func:`judge` the run against the :class:`Reference` by the
obligations :data:`CHECKS` lists for that fault type; a violated one is
rendered by the one :func:`failure` (schema in
:mod:`repro.conform.report`) and ``None`` means every invariant held.
Specs, faults and references are picklable: together they are the job
payload of the sweep's worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.conform.workloads import get_workload
from repro.env.environment import Environment
from repro.errors import DivergenceError, ReproError
from repro.replication.config import ReplicationConfig
from repro.replication.core import ReplicaSet
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.replication.supervisor import ReplicaGroup
from repro.replication.transport import FAULT_PROFILES, FaultyTransport
from repro.replication.voting import VotingGroup
from repro.runtime.digest import StateDigest, compute_state_digest

#: Extra records the bounded-replay check tolerates beyond the crashed
#: primary's retained high-water mark: the gauge samples once per
#: slice, so records logged inside the crashing slice trail it.
REPLAY_SLACK = 32


# ======================================================================
# Cell specs (picklable) and replica-set construction
# ======================================================================
def parse_transport(text: str, seed: int):
    """A ``--transport`` word as a ``ReplicationConfig.transport`` value.

    ``"memory"`` (the in-memory default) and ``"socket"`` (localhost
    TCP) are transport names already; ``"faulty:<profile>"`` becomes a
    factory of seeded
    :class:`~repro.replication.transport.FaultyTransport` instances with
    a profile from :data:`~repro.replication.transport.FAULT_PROFILES`.
    The factory takes the generation: a group gives every generation
    its own seeded instance, so fault schedules stay reproducible per
    epoch; the pair calls it once, as generation 0."""
    if text in ("memory", "socket"):
        return text
    kind, _, profile = text.partition(":")
    profile = profile or "flaky"
    if kind != "faulty" or profile not in FAULT_PROFILES:
        raise ReproError(
            f"unknown conform transport {text!r}; expected 'memory', "
            f"'socket' or 'faulty:<profile>' with a profile from "
            f"{sorted(FAULT_PROFILES)}"
        )
    return lambda generation=0: FaultyTransport(
        FAULT_PROFILES[profile], seed=seed + 97 * generation
    )


@dataclass(frozen=True)
class CellSpec:
    """One matrix cell: which workload runs on what replica set.

    ``engine`` selects the execution engine of the faulted runs (the
    reference always runs on the single-step engine).  ``depth`` is the
    one schedule parameter carried here: how many generations the
    chained sweep crashes."""

    workload: str
    strategy: str = "lock_sync"
    transport: str = "memory"
    engine: str = "slice"
    seed: int = 20030622
    digest_interval: Optional[int] = None
    checkpoint_interval: Optional[int] = None
    batch_records: int = ReplicationConfig.batch_records
    chunk_bytes: Optional[int] = None
    n_members: int = 3
    variants: Optional[str] = None
    depth: int = 2


@dataclass(frozen=True)
class Crash:
    """The pair's primary fail-stops at injector event ``at``."""

    at: Optional[int] = None

    @property
    def failovers(self) -> int:
        return 0 if self.at is None else 1

    def coordinates(self) -> Dict[str, Any]:
        return {"crash_at": self.at}


@dataclass(frozen=True)
class CrashChain:
    """Generation *g*'s primary fail-stops at event ``schedule[g]``."""

    schedule: Tuple[int, ...] = ()

    @property
    def failovers(self) -> int:
        return len(self.schedule)

    def coordinates(self) -> Dict[str, Any]:
        return {"crash_schedule": list(self.schedule),
                "crash_at": self.schedule[-1] if self.schedule else None}


@dataclass(frozen=True)
class Lie:
    """Member ``member`` corrupts artifact ``at`` — ``("digest", epoch)``
    or ``("output", ordinal)``.  ``extra`` are additional simultaneous
    ``(at, member)`` pairs: with ``n_members = 5`` (f = 2) the group must
    convict every liar at once without losing exactly-once outputs."""

    at: Optional[Tuple] = None
    member: int = 0
    extra: Tuple[Tuple[Tuple, int], ...] = ()

    @property
    def lies(self) -> List[Tuple[Tuple, int]]:
        return [] if self.at is None else [(self.at, self.member),
                                           *self.extra]

    @property
    def liars(self) -> List[int]:
        return sorted({member for _, member in self.lies})

    @property
    def role(self) -> str:
        liars = self.liars
        role = "proposer" if 0 in liars else "follower"
        if len(liars) > 1:
            role += "s" if role == "follower" else "+follower"
        return role

    def coordinates(self) -> Dict[str, Any]:
        return {"lie": list(self.at or ()), "lie_member": self.member,
                "extra_lies": [[list(at), m] for at, m in self.extra],
                "role": self.role}


def failure(fault, kind: str, detail: str, **extra) -> Dict[str, Any]:
    """One report entry: where the fault was (its identifying
    coordinate first), what broke, and how."""
    return {**fault.coordinates(), "kind": kind, "detail": detail, **extra}


def build(spec: CellSpec, fault) -> ReplicaSet:
    """A fresh replica set (with a fresh environment) for one cell and
    one fault; the fault's type picks the kind of set."""
    workload = get_workload(spec.workload)
    config = ReplicationConfig(
        strategy=spec.strategy,
        transport=parse_transport(spec.transport, spec.seed),
        jvm_config=workload.jvm_config(spec.engine),
        digest_interval=spec.digest_interval,
        checkpoint_interval=spec.checkpoint_interval,
        batch_records=spec.batch_records,
        chunk_bytes=spec.chunk_bytes,
    )
    if isinstance(fault, Crash):
        kind, config = ReplicatedJVM, config.merged(crash_at=fault.at)
    elif isinstance(fault, CrashChain):
        kind, config = ReplicaGroup, config.merged(
            crash_schedule=list(fault.schedule),
            max_failures=len(fault.schedule) + 2,
        )
    else:
        kind, config = VotingGroup, config.merged(
            voting=True, n_members=spec.n_members, variants=spec.variants,
            lie_at=fault.at, lie_member=fault.member, lie_specs=fault.extra,
        )
    return kind(workload.registry(), env=Environment(), config=config)


def execute(spec: CellSpec, fault) -> Tuple[ReplicaSet, Any]:
    """Run the cell's workload to completion under ``fault``; returns
    the finished replica set and what its ``run`` returned."""
    replicas = build(spec, fault)
    try:
        outcome = replicas.run(get_workload(spec.workload).main_class)
    finally:
        # Every kind ends the same way; what the checks read (the
        # delivered log, reports, final machine) survives the close.
        replicas.close()
    return replicas, outcome


# ======================================================================
# Reference
# ======================================================================
@dataclass
class Reference:
    """Everything a check compares against (picklable): the serial
    oracle, plus what the honest probe of the cell's replica set saw."""

    final_digest: Tuple[Tuple[str, int], ...]
    stable: Dict[str, str]
    uncaught: List[Tuple[str, str, str]]
    #: Pair probe: crash event indices of the failure-free run, and the
    #: log it delivered.
    total_events: int = 0
    delivered: List[bytes] = field(default_factory=list)
    #: Voting probe: periodic digest epochs the honest group certified,
    #: the final digest record's epoch (lie target for the end-of-run
    #: ballot; 0 for single-threaded workloads), and the output
    #: ordinals (0-based) the honest group gated.
    digest_epochs: List[int] = field(default_factory=list)
    final_epoch: int = 0
    output_ordinals: List[int] = field(default_factory=list)


def reference_run(spec: CellSpec, fault_type: type) -> Reference:
    """The oracle for one cell swept with ``fault_type`` faults.

    The serial reference is an unreplicated run with the first
    primary's exact settings, so "byte-identical to an honest serial
    execution" is a meaningful comparison.  The honest probe — the same
    replica set with no fault — then (a) proves the failure-free
    replicated run reproduces it and (b) enumerates what the faults
    will target: the pair's crash events and delivered log, the voting
    group's certified digest epochs and gated outputs.

    Both always execute on the single-step engine regardless of the
    cell's ``engine``: the faulted runs must reproduce digest, log and
    outputs bit-for-bit, so a fast-path cell is simultaneously a
    fault-consistency check and a cross-engine equivalence check.
    """
    spec = replace(spec, engine="step")
    workload = get_workload(spec.workload)
    env = Environment()
    _, jvm = run_unreplicated(
        workload.registry(), workload.main_class,
        env=env, jvm_config=workload.jvm_config(spec.engine),
    )
    reference = Reference(
        final_digest=compute_state_digest(jvm, env).components,
        stable=env.snapshot_stable(),
        uncaught=list(jvm.uncaught),
    )

    honest = fault_type()
    probe, _ = execute(spec, honest)
    if fault_type is Crash:
        reference.total_events = probe.shipper.injector.events
        reference.delivered = list(probe.transport.delivered)
    elif fault_type is Lie:
        certs = probe.tally.certified(0)
        reference.digest_epochs = sorted(
            cert.index[0] for cert in certs if cert.subject == "digest"
        )
        metrics = probe.reports[0].primary_metrics
        reference.final_epoch = metrics.schedule_records
        reference.output_ordinals = list(range(metrics.output_commits))
    entry = judge(probe, honest, reference)
    if entry is not None:
        raise ReproError(
            f"honest probe for workload {spec.workload!r} violated the "
            f"reference: {entry['kind']}: {entry['detail']}"
        )
    return reference


# ======================================================================
# Checks: each takes (finished replica set, fault, reference) and
# returns a failure entry, or None when its obligation held
# ======================================================================
def no_failover(replicas: ReplicaSet, fault, reference: Reference):
    """Every scheduled crash fired (a crash index beyond the run's
    events would make the cell a vacuous pass)."""
    survived = replicas.failures_survived
    if survived != fault.failovers:
        return failure(
            fault, "no_failover",
            f"scheduled {fault.failovers} crash(es) but {survived} "
            f"failover(s) happened",
        )


def log_prefix(replicas: ReplicaSet, fault, reference: Reference):
    """The delivered log at the crash is a contiguous prefix of the
    failure-free run's delivered log."""
    delivered = list(replicas.transport.delivered)
    if delivered != reference.delivered[:len(delivered)]:
        return failure(
            fault, "log_prefix",
            f"delivered log ({len(delivered)} records) is not a prefix "
            f"of the reference log ({len(reference.delivered)} records)",
        )


def same_outcome(replicas: ReplicaSet, fault, reference: Reference):
    """Exactly-once outputs and state equality — the paper's obligation,
    compounded across however many failures the run absorbed: uncaught
    exceptions, then the stable environment (console, files), then the
    finishing machine's recomputed state digest."""
    env, jvm = replicas.env, replicas.final_jvm
    if jvm.uncaught != reference.uncaught:
        return failure(
            fault, "output_mismatch",
            f"uncaught exceptions differ: {jvm.uncaught} "
            f"!= {reference.uncaught}",
        )
    stable = env.snapshot_stable()
    if stable != reference.stable:
        changed = sorted(
            key for key in set(stable) | set(reference.stable)
            if stable.get(key) != reference.stable.get(key)
        )
        return failure(
            fault, "output_mismatch",
            f"stable environment differs from the serial reference in "
            f"{changed}",
        )
    final = compute_state_digest(jvm, env)
    mismatched = StateDigest(reference.final_digest).diff(final)
    if mismatched:
        return failure(
            fault, "divergence",
            f"final state digest differs from the serial reference in "
            f"component(s) {', '.join(mismatched)}",
            components=mismatched,
        )


def unbounded_replay(replicas: ReplicaSet, fault, reference: Reference):
    """With steady checkpointing on, every recovery replays no more
    than the crashed primary's retained log (plus the slack)."""
    if replicas.checkpoint_interval is None:
        return None
    reports = replicas.reports
    for prev, cur in zip(reports, reports[1:]):
        if (prev.primary_metrics is None or cur.recovery_metrics is None
                or prev.steady_checkpoints == 0):
            continue
        if prev.primary_metrics.records_truncated == 0:
            return failure(
                fault, "unbounded_replay",
                f"generation {prev.generation} adopted "
                f"{prev.steady_checkpoints} steady checkpoint(s) but "
                f"never truncated its log",
            )
        retained = prev.primary_metrics.retained_records_max
        tail = cur.recovery_metrics.recovery_tail_records
        if tail > retained + REPLAY_SLACK:
            return failure(
                fault, "unbounded_replay",
                f"generation {cur.generation} replayed {tail} tail "
                f"record(s), beyond the crashed primary's retained "
                f"high-water mark {retained} (+{REPLAY_SLACK} slack)",
            )


def lie_not_injected(replicas: ReplicaSet, fault, reference: Reference):
    """The corruption actually fired (lies are generated from observed
    artifacts, so a non-firing lie is a harness bug, not a pass)."""
    fired = replicas.injector.fired
    if len(fired) != len(fault.lies):
        return failure(
            fault, "lie_not_injected",
            f"{len(fault.lies)} corruption(s) armed on member(s) "
            f"{fault.liars} but only {fired} fired",
        )


def conviction(replicas: ReplicaSet, fault, reference: Reference):
    """Exactly the seeded liars are quarantined — nobody in an honest
    run — and the variant guard blames no innocent member."""
    convicted = sorted(i.member for i in replicas.incidents)
    if convicted != fault.liars:
        return failure(
            fault, "wrong_conviction" if fault.liars else "false_positive",
            f"expected exactly member(s) {fault.liars} quarantined, got "
            f"{convicted}",
        )
    innocents = [d.member for d in replicas.divergences
                 if d.member not in fault.liars]
    if innocents:
        return failure(fault, "false_alarm",
                       f"variant guard blamed innocent member(s) "
                       f"{innocents}")


def no_deposition(replicas: ReplicaSet, fault, reference: Reference):
    """A lying proposer's run reaches a later era (the group re-armed
    around the liar) unless the lie landed on the final artifact."""
    if 0 in fault.liars and replicas.generation < 1 \
            and replicas.reports[-1].outcome != "completed_in_recovery":
        return failure(fault, "no_deposition",
                       "a lying proposer completed era 0 unchallenged")


#: The obligations of each fault type, in the order they are judged
#: (the first violated one is the cell's failure).
CHECKS: Dict[type, Tuple[Callable, ...]] = {
    Crash: (no_failover, log_prefix, same_outcome),
    CrashChain: (no_failover, same_outcome, unbounded_replay),
    Lie: (lie_not_injected, same_outcome, conviction, no_deposition),
}


def judge(replicas: ReplicaSet, fault, reference: Reference
          ) -> Optional[Dict[str, Any]]:
    """Hold a finished run to the obligations of ``fault``'s type.
    ``fault`` need not be the one the run executed under: judging a run
    against another fault is how tests show the checks can fail."""
    for obligation in CHECKS[type(fault)]:
        entry = obligation(replicas, fault, reference)
        if entry is not None:
            return entry
    return None


def check(spec: CellSpec, fault, reference: Reference
          ) -> Optional[Dict[str, Any]]:
    """Run the cell under ``fault``; ``None`` means every invariant
    held, otherwise a failure entry for the report."""
    try:
        replicas, _ = execute(spec, fault)
    except DivergenceError as err:
        return failure(fault, "divergence", str(err), epoch=err.epoch,
                       components=list(err.components))
    except ReproError as err:
        return failure(fault, "error", f"{type(err).__name__}: {err}")
    return judge(replicas, fault, reference)
