"""The sweep engine: one loop, three fault schedules, one matrix.

:func:`sweep` maps :func:`~repro.conform.cell.check` over a cell's
fault schedule — inline (``workers=0``, which tests use for determinism
and coverage) or over worker processes — and, on failure, a **shrinker**
re-tests the faults below the failing one that a ``stride > 1`` skipped,
so the report names the *minimal* failing fault.  The schedules:

* :func:`sweep_plain` crashes a pair once per crash event index of its
  failure-free run (``crash_at`` from 1 to the total).
* :func:`sweep_chained` proves the **re-integration loop**: a group
  that checkpoints its state to a fresh backup each generation must
  survive a crash at *every event index of every generation*.  The
  sweep is layered.  Layer *g* pins the crash points of generations
  ``0..g-1`` (so every run reproduces the same prefix of history), runs
  one crash-free *pilot* to count generation *g*'s injector events,
  then re-runs the chain once per index.  Indices at or below the
  checkpoint transfer (``chunks + 1`` events: one per chunk plus the
  commit) kill the primary mid-transfer, exercising the torn-transfer
  path: the old basis must stand, and the deposed primary's delivered
  chunks must be *fenced* — the report accumulates the fence counters
  as proof.  Each layer's pin is chosen just past the transfer, so
  deeper layers chain "normal" mid-execution failovers.  A layer with
  no events (the pinned prefix already finishes during recovery replay)
  ends the chain.
* :func:`sweep_byzantine` injects a *lie* at every comparable artifact:
  the honest probe discovers every digest epoch the group certified and
  every output it gated, and each is corrupted once on the proposer (a
  lying primary whose corrupted payload would reach the environment if
  released) and once on a follower (a bit-flipped replica whose ballot
  disagrees).  With ``variants="step+slice"`` every cell additionally
  runs under the multi-variant engine guard, asserting it stays silent
  for honest runs and for lies that are not engine-correlated.

:func:`run_sweep` walks the one workload × strategy × transport ×
engine × checkpoint-interval product a :class:`Config` describes; each
cell comes back as a report dict (:mod:`repro.conform.report`).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product, repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.conform.cell import (
    CellSpec, Crash, CrashChain, Lie, Reference,
    check, execute, failure, reference_run,
)
from repro.errors import ReproError

#: Small chunks + per-record flushing make the chained sweep's transfer
#: span several injector events, so mid-transfer crash indices actually
#: exist.
CHAIN_CHUNK_BYTES = 512
CHAIN_BATCH_RECORDS = 1
#: Follower member index used for the bit-flipped-replica lies.
FOLLOWER_MEMBER = 1



# ======================================================================
# The sweep loop
# ======================================================================
def shrink_failure(spec: CellSpec, reference: Reference,
                   failing: Dict[str, Any],
                   skipped: List[Any]) -> Dict[str, Any]:
    """Reduce a failure to its minimal fault.

    Re-tests the faults below the failing one that the sweep skipped
    (``stride > 1``), in ascending order, and returns the first failure
    found — the minimal reproduction, marked with the failing entry's
    leading coordinate.  With a full sweep there is nothing to shrink
    and the failure returns unchanged.
    """
    for fault in skipped:
        earlier = check(spec, fault, reference)
        if earlier is not None:
            earlier["shrunk_from"] = next(iter(failing.values()))
            return earlier
    return failing


def sweep(spec: CellSpec, reference: Reference,
          schedule: Callable[[int], List[Any]], *,
          stride: int = 1, workers: int = 0, shrink: bool = True
          ) -> Tuple[List[Any], List[Dict[str, Any]]]:
    """Check every fault of ``schedule(stride)`` — the faults to sweep
    at that stride, ascending; ``schedule(1)`` is the full schedule.
    Returns the faults swept and the failure entries, earliest first."""
    faults = schedule(max(1, stride))
    if workers and len(faults) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(check, repeat(spec), faults,
                                    repeat(reference), chunksize=4))
    else:
        entries = [check(spec, fault, reference) for fault in faults]
    failures = [entry for entry in entries if entry is not None]
    if failures and shrink:
        # Entries arrive in schedule order, so the first failure is the
        # earliest fault the stride saw fail.
        full = schedule(1)
        first = faults[entries.index(failures[0])]
        failures[0] = shrink_failure(
            spec, reference, failures[0],
            [f for f in full[:full.index(first)] if f not in faults],
        )
    return faults, failures


# ======================================================================
# The three schedules
# ======================================================================
def sweep_plain(spec: CellSpec, **effort) -> Dict[str, Any]:
    """Crash the pair at every event index of the failure-free run."""
    reference = reference_run(spec, Crash)
    faults, failures = sweep(
        spec, reference,
        lambda stride: [Crash(at) for at in
                        range(1, reference.total_events + 1, stride)],
        **effort,
    )
    return {
        "workload": spec.workload,
        "strategy": spec.strategy,
        "transport": spec.transport,
        "engine": spec.engine,
        "total_events": reference.total_events,
        "crash_points": len(faults),
        "failures": failures,
        "ok": not failures,
    }


def sweep_chained(spec: CellSpec, **effort) -> Dict[str, Any]:
    """Crash every event index of ``spec.depth`` generations in turn."""
    if spec.transport == "socket":
        raise ReproError(
            "the chained sweep runs over 'memory' or 'faulty:<profile>' "
            "transports, not 'socket'"
        )
    reference = reference_run(spec, CrashChain)
    layers: List[Dict[str, Any]] = []
    errors: List[Dict[str, Any]] = []
    pinned: Tuple[int, ...] = ()

    for generation in range(spec.depth):
        # The pilot runs the pinned prefix with no further crash, to
        # measure this generation's event count (and that the chain
        # still completes).
        try:
            pilot, _ = execute(spec, CrashChain(pinned))
        except ReproError as err:
            errors.append(failure(
                CrashChain(pinned), "error",
                f"pilot failed: {type(err).__name__}: {err}",
            ))
            break
        report = pilot.reports[generation]
        if report.outcome == "completed_in_recovery" or report.events == 0:
            # The pinned prefix already finishes during recovery
            # replay: this generation never runs a primary, so there is
            # nothing left to crash.
            break
        total_events = report.events
        transfer_events = report.checkpoint_chunks + 1
        faults, failures = sweep(
            spec, reference,
            lambda stride: [CrashChain(pinned + (at,)) for at in
                            range(1, total_events + 1, stride)],
            **effort,
        )
        # One representative mid-transfer run per layer, kept for its
        # fence counters (every index <= transfer_events tears the
        # transfer; the counters prove the leavings were discarded).
        fenced = 0
        if not failures:
            _, torn = execute(spec, CrashChain(pinned + (transfer_events,)))
            fenced = torn.records_fenced
        layers.append({
            "generation": generation,
            "pinned": list(pinned),
            "total_events": total_events,
            "transfer_events": transfer_events,
            "crash_points": len(faults),
            "records_fenced": fenced,
            "steady_checkpoints": report.steady_checkpoints,
            "failures": failures,
            "ok": not failures,
        })
        if failures:
            break
        # Chain the next layer just past the transfer: a "normal"
        # post-re-integration crash with a few execution events behind
        # it when the generation is long enough.
        pinned += (min(transfer_events + 2, total_events),)

    return {
        "workload": spec.workload,
        "strategy": spec.strategy,
        "transport": spec.transport,
        "engine": spec.engine,
        "checkpoint_interval": spec.checkpoint_interval,
        "depth": spec.depth,
        "crash_points": sum(layer["crash_points"] for layer in layers),
        "layers": layers,
        "errors": errors,
        "ok": not errors and all(layer["ok"] for layer in layers),
    }


def sweep_byzantine(spec: CellSpec, **effort) -> Dict[str, Any]:
    """Lie about every certified digest epoch (the end-of-run ballot
    always included) and every gated output, once as the proposer and
    once as a follower.  With ``n_members >= 5`` (f = 2) each artifact
    also gets two *simultaneous*-liar cells: proposer + follower lying
    at once, and two followers lying at once — every liar must be
    convicted in one era."""
    reference = reference_run(spec, Lie)
    follower, dual = FOLLOWER_MEMBER, spec.n_members >= 5

    def lies(stride: int) -> List[Lie]:
        epochs = reference.digest_epochs[::stride]
        if reference.final_epoch not in epochs:
            epochs = epochs + [reference.final_epoch]
        targets = [("digest", epoch) for epoch in epochs] + [
            ("output", ordinal)
            for ordinal in reference.output_ordinals[::stride]
        ]
        faults = []
        for target in targets:
            faults += [Lie(target, 0), Lie(target, follower)]
            if dual:
                faults += [
                    Lie(target, 0, ((target, follower),)),
                    Lie(target, follower, ((target, follower + 1),)),
                ]
        return faults

    faults, failures = sweep(spec, reference, lies, **effort)
    targets = {fault.at for fault in faults}
    return {
        "workload": spec.workload,
        "engine": spec.engine,
        "variants": spec.variants,
        "digest_epochs": sum(kind == "digest" for kind, _ in targets),
        "output_ordinals": sum(kind == "output" for kind, _ in targets),
        "cells": len(faults),
        "failures": failures,
        "ok": not failures,
    }


# ======================================================================
# The matrix
# ======================================================================
#: mode -> (the cell sweep, the option fields that mode honours with
#: their defaults).  A field a mode does not list has no effect there,
#: so setting it is an error rather than a silent no-op.
_AXES = dict(strategies=("lock_sync", "thread_sched"),
             transports=("memory", "faulty:flaky"), engines=("slice",))
MODES: Dict[str, Tuple[Callable[..., Dict[str, Any]], Dict[str, Any]]] = {
    "plain": (sweep_plain, dict(_AXES, digest_interval=2)),
    "chained": (sweep_chained,
                dict(_AXES, depth=2, checkpoint_intervals=(None,))),
    "byzantine": (sweep_byzantine,
                  dict(engines=("slice",), digest_interval=2, n_members=3,
                       variants=None)),
}
#: What a mode runs an axis at when it does not sweep it: voting needs
#: a lockstep strategy and certifies over the in-memory transport; only
#: the group checkpoints steadily.
_PINNED = dict(strategies=("thread_sched",), transports=("memory",),
               checkpoint_intervals=(None,))


@dataclass
class Config:
    """What to sweep and how hard.  ``None`` in a mode option means the
    mode's default (see :data:`MODES`)."""

    workloads: List[str]
    mode: str = "plain"
    seed: int = 20030622
    stride: int = 1
    workers: int = 0
    shrink: bool = True
    strategies: Optional[List[str]] = None
    transports: Optional[List[str]] = None
    engines: Optional[List[str]] = None
    #: Schedule records per periodic digest (plain, byzantine).
    digest_interval: Optional[int] = None
    #: Generations to crash (chained).
    depth: Optional[int] = None
    #: Steady-state checkpoint intervals to sweep (chained; ``None`` in
    #: the list = off): the bounded-log dimension of the matrix.  With
    #: an interval set, the crash indices swept per generation include
    #: kills inside delta emissions, and every recovery's replayed tail
    #: is checked against the crashed primary's retained-log high-water
    #: mark.
    checkpoint_intervals: Optional[List[Optional[int]]] = None
    #: Voting group size and multi-variant guard (byzantine).
    n_members: Optional[int] = None
    variants: Optional[str] = None

    def __post_init__(self) -> None:
        honoured = MODES[self.mode][1]
        for name in sorted({n for _, row in MODES.values() for n in row}):
            value = getattr(self, name)
            if name not in honoured:
                if value is not None:
                    raise ReproError(f"{name}={value!r} has no effect in "
                                     f"the {self.mode} sweep")
                value = _PINNED.get(name)
            elif value is None:
                value = honoured[name]
            setattr(self, name,
                    list(value) if isinstance(value, tuple) else value)
        if self.mode == "byzantine" and len(self.engines) != 1:
            raise ReproError(f"the byzantine sweep runs every lie on one "
                             f"engine, got {self.engines}")

    def matrix(self) -> List[CellSpec]:
        """One :class:`CellSpec` per combination of the swept axes."""
        options = dict(digest_interval=self.digest_interval,
                       variants=self.variants)
        if self.mode == "chained":
            options.update(depth=self.depth, chunk_bytes=CHAIN_CHUNK_BYTES,
                           batch_records=CHAIN_BATCH_RECORDS)
        elif self.mode == "byzantine":
            options.update(n_members=self.n_members)
        return [
            CellSpec(workload, strategy, transport, engine, seed=self.seed,
                     checkpoint_interval=interval, **options)
            for workload, strategy, transport, engine, interval in product(
                self.workloads, self.strategies, self.transports,
                self.engines, self.checkpoint_intervals)
        ]


def run_sweep(config: Config, *, progress=None) -> List[Dict[str, Any]]:
    """Sweep the full matrix; one report cell per combination."""
    sweep_cell = MODES[config.mode][0]
    cells = []
    for spec in config.matrix():
        cell = sweep_cell(spec, stride=config.stride,
                          workers=config.workers, shrink=config.shrink)
        if progress is not None:
            progress(cell)
        cells.append(cell)
    return cells
