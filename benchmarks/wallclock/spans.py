"""Span tracing from outside the program, for the traced run only.

The benchmark wraps the calls *into* each layer (methods and module
functions of ``repro``) from here; nothing under ``src/`` knows it is
being traced, and :func:`installed` removes every wrapper on exit.  A
span is ``[name, start, end, parent, request]``: ``parent`` indexes the
span that caused it (-1 at the top) and ``request`` is the id of the
request being served when it began.  Spans stay in memory until the
run ends.

A layer's *self time* is its spans' duration minus the part their
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

NAME, START, END, PARENT, REQUEST = range(5)
FIELDS = ("name", "start", "end", "parent", "request")


class Tracer:
    """The span store plus the counts taken at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self._open: List[int] = []
        #: Id of the request being served (set by the load generator).
        self.request: Optional[str] = None
        self.counts: Dict[str, int] = defaultdict(int)
        #: Every transport a wrapper saw, so counters of generations
        #: the fleet has already discarded can still be read.
        self.transports: Dict[int, object] = {}
        #: ``id()`` of the interpreter holding the primary role in the
        #: pump being traced; other interpreters' slices (voting
        #: followers, a promoted backup's tail replay) are named apart.
        self.primary: Optional[int] = None
        # SocketTransport's receiver threads must not touch the stack.
        self._thread = threading.get_ident()

    def on_thread(self) -> bool:
        return threading.get_ident() == self._thread

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, self.clock(), None, parent, self.request])
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._open.pop()

    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        spans = self.spans
        return any(spans[i][NAME] == name for i in self._open)

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": self.spans}, fh)


@dataclass
class SpanTotals:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans: Sequence[Sequence], first: int = 0,
               last: Optional[int] = None) -> Dict[str, SpanTotals]:
    """Per span name: how many, their summed duration, and their summed
    self time (duration minus what direct children cover), over
    ``spans[first:last]``.  Parents precede their children."""
    last = len(spans) if last is None else last
    covered = [0.0] * (last - first)
    totals: Dict[str, SpanTotals] = defaultdict(SpanTotals)
    for index in range(last - 1, first - 1, -1):
        span = spans[index]
        duration = span[END] - span[START]
        if span[PARENT] >= first:
            covered[span[PARENT] - first] += duration
        entry = totals[span[NAME]]
        entry.count += 1
        entry.total_s += duration
        entry.self_s += duration - covered[index - first]
    return dict(totals)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def traced(tracer: Tracer, fn: Callable, name, *,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a span.  ``name`` is a string or ``name(first
    argument)``; ``before(self)`` / ``after(self)`` run inside it."""
    dynamic = callable(name)

    def wrapper(*args, **kwargs):
        if not tracer.on_thread():
            return fn(*args, **kwargs)
        index = tracer.begin(name(args[0]) if dynamic else name)
        try:
            if before is not None:
                before(args[0])
            result = fn(*args, **kwargs)
            if after is not None:
                after(args[0])
            return result
        finally:
            tracer.end(index)

    wrapper.__wrapped__ = fn
    return wrapper


class _Patches:
    """Attribute replacements that can all be put back."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def _set(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def method(self, cls: type, attr: str, make: Callable) -> None:
        original = vars(cls)[attr]
        self._set(cls, attr, original, make(original))

    def function(self, module, attr: str, make: Callable) -> None:
        """Replace a module-level function where it is defined *and*
        in every ``repro`` module that imported it by name."""
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            if (mod is not None
                    and getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(attr) is original):
                self._set(mod, attr, original, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer entry point for the duration of the block."""
    patches = _Patches()
    _install(tracer, patches)
    try:
        yield tracer
    finally:
        patches.undo()


def _install(tracer: Tracer, patches: _Patches) -> None:
    import repro.minijava as minijava
    from repro.env.channel import Channel
    from repro.fleet.fleet import Fleet
    from repro.replication import checkpoint, records, transport
    from repro.replication.commit import LogShipper
    from repro.replication.digest import IncrementalStateDigest
    from repro.replication.ndnatives import (
        BackupNativePolicy,
        PrimaryNativePolicy,
    )
    from repro.replication.steady import SteadyCheckpointer
    from repro.replication.supervisor import ReplicaGroup
    from repro.replication.voting import QuorumTally, VotingGroup
    from repro.runtime.interpreter import Interpreter

    def span(name, **hooks):
        return lambda fn: traced(tracer, fn, name, **hooks)

    # -- fleet ----------------------------------------------------------
    patches.method(Fleet, "submit", span("fleet.submit"))

    def note_primary(group) -> None:
        jvm = group.active_jvm
        tracer.primary = id(jvm.interpreter) if jvm is not None else None

    for group_cls in (ReplicaGroup, VotingGroup):
        patches.method(group_cls, "pump",
                       span("fleet.pump", before=note_primary))

    # -- runtime --------------------------------------------------------
    def slice_name(interpreter) -> str:
        if tracer.primary is None or tracer.primary == id(interpreter):
            return "runtime.run_slice"
        return "runtime.replica_slice"

    patches.method(Interpreter, "run_slice", span(slice_name))

    # -- ndnatives ------------------------------------------------------
    for policy in (PrimaryNativePolicy, BackupNativePolicy):
        patches.method(policy, "invoke", span("ndnatives.invoke"))
        patches.method(policy, "would_starve",
                       span("ndnatives.would_starve"))

    # -- commit + env.channel -------------------------------------------
    def trace_encoder(shipper) -> None:
        # LogShipper installs its batch encoder as the channel's hook.
        shipper.channel.encoder = traced(
            tracer, shipper.channel.encoder, "commit.encode")

    def trace_gate(shipper) -> None:
        gate = shipper.commit_gate
        if gate is not None and not hasattr(gate, "__wrapped__"):
            shipper.commit_gate = traced(tracer, gate, "voting.gate")

    patches.method(LogShipper, "__init__",
                   span("commit.init", after=trace_encoder))
    patches.method(LogShipper, "log", span("commit.log"))
    patches.method(LogShipper, "output_commit",
                   span("commit.output_commit", before=trace_gate))
    # Steady emissions commit a delta; any other checkpoint commit is
    # the full transfer that arms (or, after a failover, re-arms) a
    # backup.
    patches.method(LogShipper, "checkpoint_commit", span(
        lambda _: ("commit.checkpoint_commit"
                   if tracer.inside("steady.emit") else "commit.arm_commit")))
    patches.method(Channel, "flush", span("commit.flush"))

    # -- wire + records -------------------------------------------------
    patches.function(records, "encode", span("wire.encode"))
    patches.function(records, "decode_record", span("wire.decode"))

    # -- transport ------------------------------------------------------
    def note_transport(link) -> None:
        tracer.transports[id(link)] = link

    for cls in (transport.Transport, transport.InMemoryTransport,
                transport.SocketTransport):
        for attr in ("send", "send_nowait", "wait_ack", "poll"):
            if attr in vars(cls):
                patches.method(cls, attr, span(f"transport.{attr}",
                                               before=note_transport))

    # -- digest ---------------------------------------------------------
    def count_items(digester) -> None:
        tracer.counts["digest.items_hashed"] += digester.items_hashed
        tracer.counts["digest.items_reused"] += digester.items_reused

    patches.method(IncrementalStateDigest, "compute",
                   span("digest.compute", after=count_items))

    # -- checkpoint + steady --------------------------------------------
    for attr, name in (("take_checkpoint", "checkpoint.capture_full"),
                       ("take_delta_checkpoint", "checkpoint.capture_delta"),
                       ("compose_delta", "checkpoint.compose")):
        patches.function(checkpoint, attr, span(name))
    # restore_checkpoint serves two masters: the scratch restore that
    # verifies every adopted delta, and a promoted backup's real one.
    patches.function(checkpoint, "restore_checkpoint", span(
        lambda _: ("checkpoint.verify_restore"
                   if tracer.inside("steady.emit") else "checkpoint.restore")))
    patches.method(SteadyCheckpointer, "emit", span("steady.emit"))

    # -- voting ---------------------------------------------------------
    patches.method(QuorumTally, "add", span("voting.tally_add"))

    # -- minijava -------------------------------------------------------
    patches.function(minijava, "compile_program", span("minijava.compile"))
