"""The crash-point sweep engine.

For each (workload, strategy, transport) cell the engine:

1. runs a failure-free **reference** execution and captures the total
   crash-event count, the delivered log, the final state digest, and
   the stable environment snapshot;
2. re-runs the workload once per crash event index (``crash_at`` from 1
   to the total), asserting after every failover that the backup's
   final state digest equals the reference digest, that the delivered
   log was a contiguous prefix of the reference log, and that stable
   outputs (console, files) match the reference exactly — the paper's
   exactly-once obligation;
3. on failure, a **shrinker** re-tests untried crash points below the
   failing one (relevant when sweeping with ``stride > 1``) so the
   report names the *minimal* failing crash point.

Cells are described by plain picklable dicts, so crash points can be
checked in parallel worker processes (``workers=0`` runs inline, which
tests use for determinism and coverage).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.conform.workloads import get_workload
from repro.env.environment import Environment
from repro.errors import DivergenceError, ReproError
from repro.replication.digest import StateDigest, compute_state_digest
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM
from repro.replication.transport import FAULT_PROFILES, FaultyTransport

#: Digest checkpoint frequency used by the sweep (schedule records per
#: periodic digest under a lockstep strategy).
DEFAULT_DIGEST_INTERVAL = 2


# ======================================================================
# Cell specs (picklable) and machine construction
# ======================================================================
def make_cell_spec(workload: str, strategy: str, transport: str,
                   *, seed: int = 20030622,
                   digest_interval: int = DEFAULT_DIGEST_INTERVAL,
                   engine: str = "slice") -> Dict[str, Any]:
    """One matrix cell as a plain dict (crosses process boundaries).

    ``transport`` is ``"memory"``, ``"socket"`` (localhost TCP) or
    ``"faulty:<profile>"`` with a profile name from
    :data:`repro.replication.transport.FAULT_PROFILES` (the sweep seeds
    it so fault schedules are reproducible).
    ``engine`` selects the execution engine for the crash runs; the
    reference run always uses the single-step engine, so every swept
    cell doubles as a cross-engine equivalence check.
    """
    if transport not in ("memory", "socket"):
        kind, _, profile = transport.partition(":")
        profile = profile or "flaky"
        if kind != "faulty" or profile not in FAULT_PROFILES:
            raise ReproError(
                f"unknown conform transport {transport!r}; expected "
                f"'memory', 'socket' or 'faulty:<profile>' with a "
                f"profile from {sorted(FAULT_PROFILES)}"
            )
    return {
        "workload": workload,
        "strategy": strategy,
        "transport": transport,
        "seed": seed,
        "digest_interval": digest_interval,
        "engine": engine,
    }


def _transport_factory(spec: Dict[str, Any]):
    transport = spec["transport"]
    if transport == "memory":
        return None                      # in-memory default
    if transport == "socket":
        return "socket"                  # make_transport builds the link
    _, _, profile = transport.partition(":")
    profile = profile or "flaky"
    seed = spec["seed"]
    return lambda: FaultyTransport(FAULT_PROFILES[profile], seed=seed)


def build_machine(spec: Dict[str, Any],
                  crash_at: Optional[int] = None) -> ReplicatedJVM:
    """A fresh machine for one cell (and optionally one crash point)."""
    workload = get_workload(spec["workload"])
    return ReplicatedJVM(
        workload.registry(),
        env=Environment(),
        config=ReplicationConfig(
            strategy=spec["strategy"],
            crash_at=crash_at,
            jvm_config=workload.jvm_config(spec.get("engine", "slice")),
            transport=_transport_factory(spec),
            digest_interval=spec["digest_interval"],
        ),
    )


# ======================================================================
# Reference run
# ======================================================================
@dataclass
class Reference:
    """Everything a crash-point check compares against (picklable)."""

    total_events: int
    final_digest: Tuple[Tuple[str, int], ...]
    delivered: List[bytes]
    stable: Dict[str, str]
    uncaught: List[Tuple[str, str, str]]


def reference_run(spec: Dict[str, Any]) -> Reference:
    """Run the cell once without a crash and capture the oracle.

    The reference always executes on the single-step engine regardless
    of the cell's ``engine``: the crash runs must reproduce its digest,
    log, and outputs bit-for-bit, so a fast-path cell is simultaneously
    a crash-consistency check and a cross-engine equivalence check.
    """
    workload = get_workload(spec["workload"])
    machine = build_machine({**spec, "engine": "step"})
    try:
        result = machine.run(workload.main_class)
    finally:
        machine.close()
    if result.failed_over:
        raise ReproError("reference run unexpectedly failed over")
    digest = compute_state_digest(machine.primary_jvm)
    return Reference(
        total_events=machine.shipper.injector.events,
        final_digest=digest.components,
        delivered=list(machine.transport.delivered),
        stable=machine.env.snapshot_stable(),
        uncaught=list(result.final_result.uncaught),
    )


# ======================================================================
# One crash point
# ======================================================================
def check_crash_point(spec: Dict[str, Any], crash_at: int,
                      reference: Reference) -> Optional[Dict[str, Any]]:
    """Run the cell with a fail-stop at ``crash_at``; ``None`` means
    every invariant held, otherwise a failure dict for the report."""
    workload = get_workload(spec["workload"])
    machine = build_machine(spec, crash_at=crash_at)

    def failure(kind: str, detail: str, **extra) -> Dict[str, Any]:
        entry = {"crash_at": crash_at, "kind": kind, "detail": detail}
        entry.update(extra)
        return entry

    try:
        result = machine.run(workload.main_class)
    except DivergenceError as err:
        return failure(
            "divergence",
            str(err),
            epoch=err.epoch,
            components=list(err.components),
        )
    except ReproError as err:
        return failure("error", f"{type(err).__name__}: {err}")
    finally:
        machine.close()

    if not result.failed_over:
        return failure(
            "no_failover",
            f"crash_at={crash_at} <= total_events="
            f"{reference.total_events} but the primary completed",
        )

    # --- log prefix property ------------------------------------------
    delivered = list(machine.transport.delivered)
    if delivered != reference.delivered[:len(delivered)]:
        return failure(
            "log_prefix",
            f"delivered log ({len(delivered)} records) is not a prefix "
            f"of the reference log ({len(reference.delivered)} records)",
        )

    # --- exactly-once outputs -----------------------------------------
    if list(result.final_result.uncaught) != reference.uncaught:
        return failure(
            "output_mismatch",
            f"uncaught exceptions differ: {result.final_result.uncaught} "
            f"!= {reference.uncaught}",
        )
    stable = machine.env.snapshot_stable()
    if stable != reference.stable:
        changed = sorted(
            key for key in set(stable) | set(reference.stable)
            if stable.get(key) != reference.stable.get(key)
        )
        return failure(
            "output_mismatch",
            f"stable environment differs from reference in {changed}",
        )

    # --- final state digest -------------------------------------------
    final = compute_state_digest(machine.backup_jvm)
    mismatched = StateDigest(reference.final_digest).diff(final)
    if mismatched:
        return failure(
            "divergence",
            f"backup's final state digest differs from the reference "
            f"run in component(s) {', '.join(mismatched)}",
            components=mismatched,
        )
    return None


def _check_point_job(job: Tuple[Dict[str, Any], int, Reference]
                     ) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Worker-process entry point: check one crash point."""
    spec, crash_at, reference = job
    return crash_at, check_crash_point(spec, crash_at, reference)


# ======================================================================
# Shrinking
# ======================================================================
def shrink_failure(spec: Dict[str, Any], reference: Reference,
                   failing: Dict[str, Any],
                   tried: List[int]) -> Dict[str, Any]:
    """Reduce a failure to its minimal crash point.

    Re-tests every crash point below the failing one that the sweep
    skipped (``stride > 1``), in ascending order, and returns the first
    failure found — the minimal reproduction.  With a full sweep there
    is nothing to shrink and the failure returns unchanged.
    """
    tried_set = set(tried)
    for crash_at in range(1, failing["crash_at"]):
        if crash_at in tried_set:
            continue
        earlier = check_crash_point(spec, crash_at, reference)
        if earlier is not None:
            earlier["shrunk_from"] = failing["crash_at"]
            return earlier
    return failing


# ======================================================================
# The sweep
# ======================================================================
@dataclass
class SweepConfig:
    """What to sweep and how hard."""

    workloads: List[str]
    strategies: List[str] = field(
        default_factory=lambda: ["lock_sync", "thread_sched"]
    )
    transports: List[str] = field(
        default_factory=lambda: ["memory", "faulty:flaky"]
    )
    seed: int = 20030622
    digest_interval: int = DEFAULT_DIGEST_INTERVAL
    stride: int = 1
    workers: int = 0
    shrink: bool = True
    engines: List[str] = field(default_factory=lambda: ["slice"])


@dataclass
class CellResult:
    """Outcome of one matrix cell."""

    workload: str
    strategy: str
    transport: str
    total_events: int
    crash_points: int
    failures: List[Dict[str, Any]]
    engine: str = "slice"

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "strategy": self.strategy,
            "transport": self.transport,
            "engine": self.engine,
            "total_events": self.total_events,
            "crash_points": self.crash_points,
            "failures": self.failures,
            "ok": self.ok,
        }


def sweep_cell(spec: Dict[str, Any], *, stride: int = 1, workers: int = 0,
               shrink: bool = True,
               progress=None) -> CellResult:
    """Sweep every crash event index of one cell."""
    reference = reference_run(spec)
    points = list(range(1, reference.total_events + 1, max(1, stride)))
    failures: List[Dict[str, Any]] = []

    if workers and len(points) > 1:
        jobs = [(spec, crash_at, reference) for crash_at in points]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_check_point_job, jobs, chunksize=4))
        for crash_at, entry in outcomes:
            if entry is not None:
                failures.append(entry)
            if progress is not None:
                progress(crash_at, entry)
    else:
        for crash_at in points:
            entry = check_crash_point(spec, crash_at, reference)
            if entry is not None:
                failures.append(entry)
            if progress is not None:
                progress(crash_at, entry)

    failures.sort(key=lambda f: f["crash_at"])
    if failures and shrink:
        failures[0] = shrink_failure(spec, reference, failures[0], points)
    return CellResult(
        workload=spec["workload"],
        strategy=spec["strategy"],
        transport=spec["transport"],
        total_events=reference.total_events,
        crash_points=len(points),
        failures=failures,
        engine=spec.get("engine", "slice"),
    )


def run_sweep(config: SweepConfig, *, progress=None) -> List[CellResult]:
    """Sweep the full matrix; one :class:`CellResult` per cell."""
    results = []
    for workload in config.workloads:
        for strategy in config.strategies:
            for transport in config.transports:
                for engine in config.engines:
                    spec = make_cell_spec(
                        workload, strategy, transport,
                        seed=config.seed,
                        digest_interval=config.digest_interval,
                        engine=engine,
                    )
                    cell = sweep_cell(
                        spec,
                        stride=config.stride,
                        workers=config.workers,
                        shrink=config.shrink,
                    )
                    if progress is not None:
                        progress(cell)
                    results.append(cell)
    return results
