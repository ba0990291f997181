"""The Byzantine corruption sweep (``repro conform --byzantine``).

Where the crash-point sweep injects a fail-stop at every event index,
this sweep injects a *lie* at every comparable artifact: for each
workload an honest probe run discovers every digest epoch the group
certified and every output it gated, then one cell per (artifact,
lying member role) re-runs the workload with the seeded
:class:`~repro.replication.voting.CorruptionInjector` flipping that
artifact — on the proposer (a lying primary whose corrupted payload
would reach the environment if released) and on a follower (a
bit-flipped replica whose ballot disagrees).

Every cell asserts the group's obligations:

* the run completes (``completed`` or, after a deposition,
  ``completed_in_recovery``);
* stable outputs (console, files) are byte-identical to an
  **unreplicated serial reference** — exactly-once, nothing corrupted;
* the final recomputed state digest matches the reference;
* exactly one quarantine incident, naming exactly the seeded liar;
* a deposed proposer's run reaches a later era (the group re-armed
  around the liar) unless the lie landed on the final artifact;
* the corruption actually fired (cells are generated from observed
  artifacts, so a non-firing lie is a harness bug, not a pass).

With ``variants="step+slice"`` every cell additionally runs under the
multi-variant engine guard, asserting it stays silent for honest runs
and for lies that are not engine-correlated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.conform.workloads import get_workload
from repro.env.environment import Environment
from repro.errors import ReproError
from repro.replication.config import ReplicationConfig
from repro.replication.digest import StateDigest, compute_state_digest
from repro.replication.machine import run_unreplicated
from repro.replication.supervisor import default_generation_settings
from repro.replication.voting import VotingGroup, VotingResult

#: Digest checkpoint frequency used by the sweep (matches the
#: crash-point sweep so the two exercise the same epochs).
DEFAULT_DIGEST_INTERVAL = 2


# ======================================================================
# Cell construction
# ======================================================================
def make_byzantine_spec(workload: str, *, n_members: int = 3,
                        seed: int = 20030622,
                        digest_interval: int = DEFAULT_DIGEST_INTERVAL,
                        engine: str = "slice",
                        variants: Optional[str] = None) -> Dict[str, Any]:
    """One sweepable workload configuration as a plain dict."""
    if variants not in (None, "step+slice"):
        raise ReproError(
            f"unknown variants mode {variants!r}; expected None or "
            f"'step+slice'"
        )
    return {
        "workload": workload,
        "n_members": n_members,
        "seed": seed,
        "digest_interval": digest_interval,
        "engine": engine,
        "variants": variants,
    }


def build_group(spec: Dict[str, Any],
                env: Environment,
                lie_at: Optional[Tuple] = None,
                lie_member: int = 0,
                lie_specs: Tuple = ()) -> VotingGroup:
    workload = get_workload(spec["workload"])
    return VotingGroup(
        workload.registry(),
        env=env,
        config=ReplicationConfig(
            voting=True,
            strategy="thread_sched",
            n_members=spec["n_members"],
            jvm_config=workload.jvm_config(spec.get("engine", "slice")),
            digest_interval=spec["digest_interval"],
            variants=spec.get("variants"),
            lie_at=lie_at,
            lie_member=lie_member,
            lie_specs=tuple(lie_specs),
        ),
    )


# ======================================================================
# Reference + honest probe
# ======================================================================
@dataclass
class ByzantineReference:
    """The honest-serial oracle plus the artifact map the probe found."""

    final_digest: Tuple[Tuple[str, int], ...]
    stable: Dict[str, str]
    uncaught: List[Tuple[str, str, str]]
    #: Periodic digest epochs the honest group certified.
    digest_epochs: List[int]
    #: The final digest record's epoch (lie target for the end-of-run
    #: ballot; 0 for single-threaded workloads).
    final_epoch: int
    #: Output ordinals (0-based) the honest group gated.
    output_ordinals: List[int]


def byzantine_reference(spec: Dict[str, Any]) -> ByzantineReference:
    """The serial oracle plus an honest voting probe.

    The serial reference runs unreplicated with the era-0 proposer's
    exact settings and JVM config, so "byte-identical to an honest
    serial execution" is a meaningful comparison.  The probe run then
    (a) proves the honest group reproduces it and (b) enumerates the
    artifacts — digest epochs and output ordinals — that the corruption
    cells will target.
    """
    workload = get_workload(spec["workload"])
    env = Environment()
    result, jvm = run_unreplicated(
        workload.registry(), workload.main_class, env=env,
        settings=default_generation_settings(0),
        jvm_config=workload.jvm_config(spec.get("engine", "slice")),
    )
    digest = compute_state_digest(jvm, env)
    reference = ByzantineReference(
        final_digest=digest.components,
        stable=env.snapshot_stable(),
        uncaught=list(result.uncaught),
        digest_epochs=[],
        final_epoch=0,
        output_ordinals=[],
    )

    probe_env = Environment()
    group = build_group(spec, probe_env)
    probe = group.run(workload.main_class)
    failures = _check_result(spec, probe, probe_env, reference,
                             expected_liar=None)
    if failures:
        raise ReproError(
            f"honest probe for workload {spec['workload']!r} violated "
            f"the reference: {failures[0]['detail']}"
        )
    certs = group.tally.certified(0)
    reference.digest_epochs = sorted(
        cert.index[0] for cert in certs if cert.subject == "digest"
    )
    metrics = probe.reports[0].primary_metrics
    reference.final_epoch = metrics.schedule_records
    reference.output_ordinals = list(range(metrics.output_commits))
    return reference


# ======================================================================
# One corruption cell
# ======================================================================
def _check_result(spec: Dict[str, Any], result: VotingResult,
                  env: Environment, reference: ByzantineReference,
                  expected_liar) -> List[Dict[str, Any]]:
    """Assert one run's obligations; returns failure dicts (empty=ok).

    ``expected_liar`` is ``None`` (honest run), one member index, or a
    list of indices for simultaneous liars (``f >= 2`` cells)."""
    failures: List[Dict[str, Any]] = []
    if expected_liar is None:
        expected_liars: List[int] = []
    elif isinstance(expected_liar, int):
        expected_liars = [expected_liar]
    else:
        expected_liars = sorted(expected_liar)

    def failure(kind: str, detail: str) -> None:
        failures.append({"kind": kind, "detail": detail})

    if not result.result.ok:
        failure("error",
                f"program did not complete: {result.result.uncaught}")
        return failures
    if list(result.result.uncaught) != reference.uncaught:
        failure("output_mismatch",
                f"uncaught exceptions differ: {result.result.uncaught} "
                f"!= {reference.uncaught}")
    stable = env.snapshot_stable()
    if stable != reference.stable:
        changed = sorted(
            key for key in set(stable) | set(reference.stable)
            if stable.get(key) != reference.stable.get(key)
        )
        failure("output_mismatch",
                f"stable environment differs from the serial reference "
                f"in {changed}")
    final = compute_state_digest(result.final_jvm, env)
    mismatched = StateDigest(reference.final_digest).diff(final)
    if mismatched:
        failure("divergence",
                f"final state digest differs from the serial reference "
                f"in component(s) {', '.join(mismatched)}")

    liars = [incident.member for incident in result.incidents]
    if not expected_liars:
        if liars:
            failure("false_positive",
                    f"honest run quarantined member(s) {liars}")
        if result.divergences:
            failure("false_alarm",
                    f"honest run raised {len(result.divergences)} "
                    f"variant divergence(s)")
    else:
        if sorted(liars) != expected_liars:
            failure("wrong_conviction",
                    f"expected exactly member(s) {expected_liars} "
                    f"quarantined, got {sorted(liars)}")
        innocents = [d.member for d in result.divergences
                     if d.member not in expected_liars]
        if innocents:
            failure("false_alarm",
                    f"variant guard blamed innocent member(s) "
                    f"{innocents}")
    return failures


def check_corruption(spec: Dict[str, Any], reference: ByzantineReference,
                     lie_at: Tuple, lie_member: int,
                     extra_lies: Tuple = ()
                     ) -> Optional[Dict[str, Any]]:
    """Run one seeded-lie cell; ``None`` means every invariant held.

    ``extra_lies`` are additional simultaneous ``(lie_at, lie_member)``
    pairs — with ``n_members = 5`` (f = 2) the group must convict every
    liar at once without losing exactly-once outputs."""
    workload = get_workload(spec["workload"])
    env = Environment()
    group = build_group(spec, env, lie_at=lie_at, lie_member=lie_member,
                        lie_specs=extra_lies)
    liars = sorted({lie_member} | {m for _, m in extra_lies})
    role = "proposer" if 0 in liars else "follower"
    if len(liars) > 1:
        role += "s" if role == "follower" else "+follower"

    def failure(kind: str, detail: str) -> Dict[str, Any]:
        return {"lie": list(lie_at), "lie_member": lie_member,
                "extra_lies": [[list(a), m] for a, m in extra_lies],
                "role": role, "kind": kind, "detail": detail}

    try:
        result = group.run(workload.main_class)
    except ReproError as err:
        return failure("error", f"{type(err).__name__}: {err}")

    n_lies = 1 + len(extra_lies)
    if len(group.injector.fired) != n_lies:
        return failure("lie_not_injected",
                       f"{n_lies} corruption(s) armed on member(s) "
                       f"{liars} but only {group.injector.fired} fired")
    checks = _check_result(spec, result, env, reference,
                           expected_liar=liars)
    if checks:
        first = checks[0]
        return failure(first["kind"], first["detail"])
    if 0 in liars and result.final_era < 1 \
            and result.outcome != "completed_in_recovery":
        return failure("no_deposition",
                       "a lying proposer completed era 0 unchallenged")
    return None


# ======================================================================
# The sweep
# ======================================================================
@dataclass
class ByzantineConfig:
    """What to corrupt and how hard."""

    workloads: List[str]
    n_members: int = 3
    seed: int = 20030622
    digest_interval: int = DEFAULT_DIGEST_INTERVAL
    stride: int = 1
    engine: str = "slice"
    variants: Optional[str] = None
    #: Follower member index used for the bit-flipped-replica cells.
    follower_member: int = 1


@dataclass
class ByzantineCellResult:
    """Outcome of one workload's corruption sweep."""

    workload: str
    engine: str
    variants: Optional[str]
    digest_epochs: int
    output_ordinals: int
    cells: int
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "engine": self.engine,
            "variants": self.variants,
            "digest_epochs": self.digest_epochs,
            "output_ordinals": self.output_ordinals,
            "cells": self.cells,
            "failures": self.failures,
            "ok": self.ok,
        }


def sweep_byzantine_cell(spec: Dict[str, Any], *, stride: int = 1,
                         follower_member: int = 1,
                         progress=None) -> ByzantineCellResult:
    """Sweep every observed artifact of one workload, lying once as
    the proposer and once as a follower per artifact.  With
    ``n_members >= 5`` (f = 2) each artifact also gets two
    *simultaneous*-liar cells: proposer + follower lying at once, and
    two followers lying at once — every liar must be convicted in one
    era."""
    reference = byzantine_reference(spec)
    stride = max(1, stride)
    epochs = reference.digest_epochs[::stride]
    if reference.final_epoch not in epochs:
        epochs = epochs + [reference.final_epoch]
    ordinals = reference.output_ordinals[::stride]

    dual = spec["n_members"] >= 5
    second = follower_member + 1
    lies: List[Tuple[Tuple, int, Tuple]] = []
    for epoch in epochs:
        target = ("digest", epoch)
        lies.append((target, 0, ()))
        lies.append((target, follower_member, ()))
        if dual:
            lies.append((target, 0, ((target, follower_member),)))
            lies.append((target, follower_member, ((target, second),)))
    for ordinal in ordinals:
        target = ("output", ordinal)
        lies.append((target, 0, ()))
        lies.append((target, follower_member, ()))
        if dual:
            lies.append((target, 0, ((target, follower_member),)))
            lies.append((target, follower_member, ((target, second),)))

    failures: List[Dict[str, Any]] = []
    for lie_at, lie_member, extra in lies:
        entry = check_corruption(spec, reference, lie_at, lie_member,
                                 extra)
        if entry is not None:
            failures.append(entry)
        if progress is not None:
            progress(lie_at, lie_member, entry)
    return ByzantineCellResult(
        workload=spec["workload"],
        engine=spec.get("engine", "slice"),
        variants=spec.get("variants"),
        digest_epochs=len(epochs),
        output_ordinals=len(ordinals),
        cells=len(lies),
        failures=failures,
    )


def run_byzantine_sweep(config: ByzantineConfig,
                        *, progress=None) -> List[ByzantineCellResult]:
    """Sweep the full corruption matrix, one cell per workload."""
    results = []
    for workload in config.workloads:
        spec = make_byzantine_spec(
            workload,
            n_members=config.n_members,
            seed=config.seed,
            digest_interval=config.digest_interval,
            engine=config.engine,
            variants=config.variants,
        )
        cell = sweep_byzantine_cell(
            spec, stride=config.stride,
            follower_member=config.follower_member,
        )
        if progress is not None:
            progress(cell)
        results.append(cell)
    return results
