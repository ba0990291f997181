"""Pluggable primary→backup transports for the log channel.

The paper runs its two replicas on separate machines over 100 Mbps
Ethernet; the log channel's behavior — ack round trips, message loss,
reordering — is where the output-commit economics of Figures 3/4 come
from.  This module isolates *how messages move* behind a small
interface so the rest of the replication layer (Channel, LogShipper,
FailureDetector, ReplicatedJVM) is transport-generic:

* :class:`InMemoryTransport` — instant, loss-free delivery.  The
  default; byte-for-byte equivalent to the original in-process list.
* :class:`FaultyTransport` — a deterministic, seeded network simulator
  with latency, jitter, drops, duplication and reordering, plus the
  sender-side machinery a real link needs: per-message sequence
  numbers, cumulative acks, retransmission with timeout and
  exponential backoff, and a bounded send window that exerts
  backpressure on the primary.
* :class:`SocketTransport` — a real TCP connection over localhost,
  framed with the same varint encoding as the log records
  (:mod:`repro.replication.wire`).  Both ends are non-blocking
  ``TCP_NODELAY`` sockets served on the caller's thread, so an output
  commit costs one loopback round trip and nothing outlives ``close``.

Delivery semantics under fail-stop, per transport:

* in-memory: every flushed record is delivered; buffered records die
  with the primary (the original model).
* faulty: the delivered log is always a *contiguous prefix* of the
  flushed message sequence.  A message arrives only when every earlier
  message has arrived (the receiver holds out-of-order arrivals);
  messages dropped on the wire and never retransmitted before the
  crash are lost together with everything after them.  An ack for
  message *n* therefore proves messages 1..n are in the backup's log —
  exactly the property output commit needs.
* socket: TCP gives loss-free ordered delivery; bytes still in flight
  when the sender's socket closes are delivered before EOF, so flushed
  records are delivered, as in the in-memory model.

Multiplexed operation
---------------------

A fleet of replica groups runs on one thread, so one group stalled in
an output-commit wait must not freeze every other group's link.  The
interface is therefore poll-driven:

* :meth:`Transport.poll` advances the transport **without blocking**
  (delivers due arrivals, processes acks, runs retransmit timers) and
  reports whether anything progressed;
* :meth:`Transport.send_nowait` ships a batch if the send window has
  room, returning ``False`` instead of stalling under backpressure;
* :attr:`Transport.on_deliver` / :attr:`Transport.on_ack` are
  readiness callbacks fired — always on the caller's thread — when
  records land in the backup's log or the cumulative ack advances;
* :class:`TransportMux` is the one event loop servicing all group
  connections.  A simulated member's blocking waits poll the *other*
  members between their own steps; a socket member sleeps in one
  ``select`` over every member's sockets and serves whichever is
  ready, so a group waiting on its ack keeps the rest of the fleet's
  frames moving and wakes the moment its own arrives.

The blocking methods (``send``/``wait_ack``) remain, implemented on
top of the poll layer, so single-group users (:class:`ReplicatedJVM`,
the conformance sweeps) are unchanged.
"""

from __future__ import annotations

import heapq
import select
import socket
import time
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.replication.wire import Reader, Writer

_FRAME_DATA = 1
_FRAME_HEARTBEAT = 2
_FRAME_ACK = 3


@dataclass
class TransportStats:
    """Transport-level counters, beyond the Channel's wire counters."""

    retransmits: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_reordered: int = 0
    backpressure_stalls: int = 0
    #: Simulated (faulty) or wall-clock (socket) time spent inside
    #: output-commit ack waits — the true round-trip component.
    ack_wait_time: float = 0.0
    acks_delivered: int = 0
    heartbeats_sent: int = 0
    heartbeats_delivered: int = 0
    #: Connection resets injected (socket transport fault injection).
    connection_resets: int = 0
    #: Successful sender reconnects after a reset.
    reconnects: int = 0


class Transport:
    """Base transport: moves framed record batches primary→backup.

    Subclasses must deliver records into :attr:`delivered` (the
    backup's in-memory log) such that ``delivered`` is always a prefix
    of the concatenation of all sent batches.  Delivery must go
    through :meth:`_deliver` and ack advancement through
    :meth:`_ack_advanced` so the readiness callbacks fire.
    """

    def __init__(self) -> None:
        #: The backup's log: records delivered, in order.
        self.delivered: List[bytes] = []
        self.stats = TransportStats()
        self.closed = False
        #: Readiness callback ``(transport, n_new_records)`` fired when
        #: records land in :attr:`delivered`.
        self.on_deliver: Optional[Callable[["Transport", int], None]] = None
        #: Readiness callback ``(transport, acked_through_seq)`` fired
        #: when the cumulative ack advances.
        self.on_ack: Optional[Callable[["Transport", int], None]] = None
        #: Set by :meth:`TransportMux.register`: while this transport
        #: blocks (ack wait, backpressure stall), it services the other
        #: members of its mux so one stalled group cannot freeze the
        #: rest of the fleet.
        self.mux: Optional["TransportMux"] = None

    # -- delivery/ack choke points (fire the readiness callbacks) ------
    def _deliver(self, records: List[bytes]) -> None:
        self.delivered.extend(records)
        if self.on_deliver is not None and records:
            self.on_deliver(self, len(records))

    def _ack_advanced(self, through: int) -> None:
        if self.on_ack is not None:
            self.on_ack(self, through)

    def _service_others(self) -> None:
        """One idle step for the rest of the fleet (no-op unmuxed)."""
        if self.mux is not None:
            self.mux.poll_others(self)

    def _watched(self) -> List[socket.socket]:
        """Sockets whose readiness :meth:`_service` serves — none on
        the simulated transports, which advance by :meth:`poll`."""
        return []

    # -- sender side ---------------------------------------------------
    def send(self, records: List[bytes]) -> None:
        """Ship one batch (a flushed buffer) toward the backup,
        blocking under backpressure until the window has room."""
        raise NotImplementedError

    def send_nowait(self, records: List[bytes]) -> bool:
        """Ship one batch if the send window has room; returns
        ``False`` (and ships nothing) when backpressured — the caller
        should :meth:`poll` and retry.  Default: transports without a
        bounded window never refuse."""
        self.send(records)
        return True

    def poll(self) -> bool:
        """Advance the transport without blocking: deliver due
        arrivals, process acks, run retransmit timers.  Returns True
        when anything progressed.  Default: nothing to advance."""
        return False

    def ack_pending(self) -> bool:
        """True while some sent batch is not yet acknowledged."""
        return False

    def wait_ack(self) -> float:
        """Block until every sent batch is acknowledged; returns the
        time spent waiting (the output-commit round trip)."""
        raise NotImplementedError

    def send_heartbeat(self) -> None:
        """I-am-alive datagram; never enters the record log."""
        raise NotImplementedError

    def crash_sender(self) -> None:
        """Fail-stop the sender.  In-flight data may still arrive;
        nothing is retransmitted afterwards."""
        self.closed = True

    # -- receiver side -------------------------------------------------
    def truncate(self, n_records: int) -> None:
        """Forget the first ``n_records`` delivered records (log
        truncation at a checkpoint boundary)."""
        del self.delivered[:n_records]

    def drain(self) -> None:
        """Let everything already in flight arrive (no retransmits)."""

    def settle(self) -> None:
        """Cooperative completion: the sender is alive and idle, so
        push retransmissions until everything sent is delivered."""
        self.drain()

    def close(self) -> None:
        """Release transport resources and leave the mux; the
        delivered log survives."""
        self.closed = True
        if self.mux is not None:
            self.mux.unregister(self)

    def fresh(self) -> "Transport":
        """A new, unused transport with the same configuration (used
        by :meth:`ReplicatedJVM.clone`)."""
        raise NotImplementedError


class InMemoryTransport(Transport):
    """Zero-latency loss-free delivery — the original channel model."""

    def __init__(self) -> None:
        super().__init__()
        self._sent_batches = 0

    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        self._deliver(list(records))
        self._sent_batches += 1
        # Delivery is the ack on this transport: the batch is in the
        # backup's log the moment send returns.
        self._ack_advanced(self._sent_batches - 1)

    def wait_ack(self) -> float:
        self.stats.acks_delivered += 1
        return 0.0

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        self.stats.heartbeats_delivered += 1

    def fresh(self) -> "InMemoryTransport":
        return InMemoryTransport()


# ======================================================================
# Deterministic fault injection
# ======================================================================
@dataclass(frozen=True)
class FaultProfile:
    """Knobs of the simulated link.  Rates are probabilities in [0, 1];
    times are abstract ticks (the cost model scales them)."""

    name: str = "clean"
    drop_rate: float = 0.0        # message vanishes on the wire
    dup_rate: float = 0.0         # message arrives twice
    reorder_rate: float = 0.0     # message takes a slow path (overtaken)
    latency: float = 4.0          # one-way delay
    jitter: float = 0.0           # uniform extra delay in [0, jitter]
    retry_timeout: float = 40.0   # retransmit deadline after send
    backoff: float = 2.0          # timeout multiplier per retry
    max_retries: int = 12         # attempts before the link is declared dead
    window: int = 16              # bounded send buffer (unacked messages)


#: Built-in fault profiles used by tests, examples and benchmarks.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "clean": FaultProfile(name="clean"),
    "slow": FaultProfile(name="slow", latency=40.0, jitter=10.0),
    "lossy": FaultProfile(name="lossy", drop_rate=0.25, jitter=2.0),
    "flaky": FaultProfile(name="flaky", drop_rate=0.15, dup_rate=0.2,
                          jitter=3.0),
    "jittery": FaultProfile(name="jittery", reorder_rate=0.4, jitter=12.0),
    "chaotic": FaultProfile(name="chaotic", drop_rate=0.2, dup_rate=0.15,
                            reorder_rate=0.3, latency=8.0, jitter=8.0,
                            window=4),
}


class FaultyTransport(Transport):
    """Seeded network simulator with retransmission and backpressure.

    Time is virtual: it advances when the sender waits (ack waits,
    backpressure stalls) and by a small fixed cost per send, and the
    event queue (arrivals, acks) is processed whenever the clock moves.
    Two transports built with the same profile and seed behave
    identically — fault schedules are reproducible by construction.
    """

    _ARRIVE, _ACK, _HEARTBEAT = 0, 1, 2

    def __init__(self, profile: Optional[FaultProfile] = None, *,
                 seed: int = 20030622, send_cost: float = 1.0,
                 **overrides) -> None:
        super().__init__()
        profile = profile or FaultProfile()
        if overrides:
            profile = replace(profile, **overrides)
        self.profile = profile
        self.seed = seed
        self.send_cost = send_cost
        self._rng = Random(seed)
        self.now = 0.0
        self._events: List[Tuple[float, int, int, int, List[bytes]]] = []
        self._tiebreak = 0
        # Sender state.
        self._next_seq = 0
        #: seq -> [records, n_attempts, timeout_at]
        self._unacked: Dict[int, list] = {}
        self._acked_through = -1
        # Receiver state.
        self._expected = 0
        self._held: Dict[int, List[bytes]] = {}

    # -- virtual network internals -------------------------------------
    def _schedule(self, delay: float, kind: int, seq: int,
                  records: List[bytes]) -> None:
        self._tiebreak += 1
        heapq.heappush(
            self._events, (self.now + delay, self._tiebreak, kind, seq, records)
        )

    def _one_way_delay(self) -> float:
        p = self.profile
        delay = p.latency + self._rng.uniform(0.0, p.jitter)
        if p.reorder_rate and self._rng.random() < p.reorder_rate:
            # The slow path: enough extra delay that a later message
            # can overtake this one.
            delay += p.latency + p.jitter + self._rng.uniform(0.0, 4 * p.jitter)
        return delay

    def _transmit(self, seq: int) -> None:
        """Put one (re)transmission of message ``seq`` on the wire."""
        pending = self._unacked[seq]
        pending[1] += 1
        if pending[1] > 1:
            self.stats.retransmits += 1
        timeout = self.profile.retry_timeout * (
            self.profile.backoff ** (pending[1] - 1)
        )
        pending[2] = self.now + timeout
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
        else:
            self._schedule(self._one_way_delay(), self._ARRIVE, seq, pending[0])
        if self.profile.dup_rate and self._rng.random() < self.profile.dup_rate:
            self.stats.messages_duplicated += 1
            self._schedule(self._one_way_delay(), self._ARRIVE, seq, pending[0])

    def _receive(self, seq: int, records: List[bytes]) -> None:
        if seq < self._expected:
            # Duplicate of something already in the log: re-ack.
            self._send_ack()
            return
        if seq > self._expected:
            if seq not in self._held:
                self.stats.messages_reordered += 1
                self._held[seq] = records
            return
        batch = list(records)
        self._expected += 1
        while self._expected in self._held:
            batch.extend(self._held.pop(self._expected))
            self._expected += 1
        self._deliver(batch)
        self._send_ack()

    def _send_ack(self) -> None:
        """Cumulative ack for everything contiguously delivered."""
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
            return
        self._schedule(self._one_way_delay(), self._ACK,
                       self._expected - 1, [])

    def _handle(self, kind: int, seq: int, records: List[bytes]) -> None:
        if kind == self._ARRIVE:
            self._receive(seq, records)
        elif kind == self._ACK:
            if seq > self._acked_through:
                self._acked_through = seq
                self.stats.acks_delivered += 1
                for acked in [s for s in self._unacked if s <= seq]:
                    del self._unacked[acked]
                self._ack_advanced(seq)
        else:
            self.stats.heartbeats_delivered += 1

    def _process_due(self, limit: Optional[int] = None) -> int:
        """Handle events due at the current clock; at most ``limit`` of
        them when given (the poll path's fairness bound — blocking
        paths drain unbounded as before).  Returns the count handled."""
        handled = 0
        while self._events and self._events[0][0] <= self.now:
            if limit is not None and handled >= limit:
                break
            _, _, kind, seq, records = heapq.heappop(self._events)
            self._handle(kind, seq, records)
            handled += 1
        return handled

    def _advance_one_step(self, allow_retransmit: bool,
                          drain_limit: Optional[int] = None) -> bool:
        """Move the clock to the next arrival or retransmit deadline.
        Returns False when nothing can make progress."""
        if drain_limit is not None and self._process_due(drain_limit):
            # A backlog left by a previous bounded drain: hand out the
            # next slice before moving the clock again.
            return True
        next_event = self._events[0][0] if self._events else None
        next_timeout = None
        if allow_retransmit and self._unacked:
            next_timeout = min(p[2] for p in self._unacked.values())
        if next_event is None and next_timeout is None:
            return False
        if next_timeout is None or (next_event is not None
                                    and next_event <= next_timeout):
            self.now = max(self.now, next_event)
            self._process_due(drain_limit)
            return True
        self.now = max(self.now, next_timeout)
        for seq, pending in sorted(self._unacked.items()):
            if pending[2] <= self.now:
                if pending[1] > self.profile.max_retries:
                    raise TransportError(
                        f"message {seq} unacknowledged after "
                        f"{self.profile.max_retries} retries — link dead"
                    )
                self._transmit(seq)
        self._process_due(drain_limit)
        return True

    def _admit(self, records: List[bytes]) -> None:
        """Accept one batch into the send window and transmit it."""
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = [list(records), 0, 0.0]
        self._transmit(seq)
        self.now += self.send_cost
        self._process_due()

    # -- Transport interface -------------------------------------------
    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        while len(self._unacked) >= self.profile.window:
            # Bounded send buffer: the primary stalls until an ack
            # frees a slot (backpressure).
            self.stats.backpressure_stalls += 1
            self._service_others()
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError(
                    "send window full and the link is silent"
                )
        self._admit(records)

    def send_nowait(self, records: List[bytes]) -> bool:
        if self.closed:
            return True
        if len(self._unacked) >= self.profile.window:
            self.stats.backpressure_stalls += 1
            return False
        self._admit(records)
        return True

    #: Max events one :meth:`poll` call may handle.  A mux iterates
    #: members calling poll once each; without the bound, a member
    #: sitting on a large due backlog (e.g. a post-heal thundering
    #: herd) would monopolize the whole mux pass and starve the other
    #: groups' readiness callbacks.
    poll_drain_limit: int = 8

    def poll(self) -> bool:
        if self.closed:
            return False
        if not self._events and not self._unacked:
            return False
        return self._advance_one_step(allow_retransmit=True,
                                      drain_limit=self.poll_drain_limit)

    def ack_pending(self) -> bool:
        return self._acked_through < self._next_seq - 1

    def wait_ack(self) -> float:
        if self.closed:
            return 0.0
        target = self._next_seq - 1
        started = self.now
        while self._acked_through < target:
            self._service_others()
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError("awaiting ack on a silent link")
        waited = self.now - started
        self.stats.ack_wait_time += waited
        return waited

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        if self._rng.random() < self.profile.drop_rate:
            return
        self._schedule(self._one_way_delay(), self._HEARTBEAT, 0, [])
        self._process_due()

    def crash_sender(self) -> None:
        super().crash_sender()
        self._unacked.clear()
        self.drain()

    def drain(self) -> None:
        """Everything already on the wire arrives; no retransmissions,
        so messages dropped before the crash stay lost (and block any
        later messages — the contiguous-prefix rule)."""
        while self._events:
            time, _, kind, seq, records = heapq.heappop(self._events)
            self.now = max(self.now, time)
            self._handle(kind, seq, records)

    def settle(self) -> None:
        if self.closed:
            self.drain()
            return
        target = self._next_seq - 1
        while self._acked_through < target:
            if not self._advance_one_step(allow_retransmit=True):
                raise TransportError("settle on a silent link")
        self.drain()

    def fresh(self) -> "FaultyTransport":
        return FaultyTransport(self.profile, seed=self.seed,
                               send_cost=self.send_cost)


# ======================================================================
# Seeded chaos: partitions, flaps, asymmetric links
# ======================================================================
@dataclass(frozen=True)
class LinkOutage:
    """One scheduled cut of the whole link, in virtual-time ticks.

    ``direction`` selects which half of the link is severed:
    ``"both"`` is a symmetric partition, ``"fwd"`` cuts data and
    heartbeats (primary→backup) while acks still flow, ``"rev"`` is the
    *asymmetric* case the paper's fail-stop model cannot express — data
    keeps arriving but every ack vanishes, so the sender's output
    commit stalls across the window and resumes at the heal.
    """

    start: float
    end: float
    direction: str = "both"        # "both" | "fwd" | "rev"

    def __post_init__(self) -> None:
        if self.direction not in ("both", "fwd", "rev"):
            raise TransportError(
                f"outage direction must be 'both', 'fwd' or 'rev', "
                f"got {self.direction!r}"
            )
        if self.end <= self.start:
            raise TransportError(
                f"outage window must be non-empty, got "
                f"[{self.start}, {self.end})"
            )

    def cuts(self, direction: str, at: float) -> bool:
        return (self.start <= at < self.end
                and self.direction in ("both", direction))


def link_flaps(start: float, count: int, down: float, up: float,
               direction: str = "both") -> Tuple[LinkOutage, ...]:
    """A flapping link: ``count`` outages of length ``down`` separated
    by ``up`` ticks of healthy link, beginning at ``start``."""
    if count < 1 or down <= 0 or up < 0:
        raise TransportError(
            f"flap schedule needs count>=1, down>0, up>=0; got "
            f"count={count} down={down} up={up}"
        )
    return tuple(
        LinkOutage(start + i * (down + up), start + i * (down + up) + down,
                   direction)
        for i in range(count)
    )


@dataclass(frozen=True)
class MemberPartition:
    """One voting-group member cut off from the delivered log.

    The transport cannot see group membership, so the window is
    *published* (:meth:`ChaosTransport.blocked_members`) and enforced
    by the consumer: a :class:`~repro.replication.voting.VotingGroup`
    stops feeding a blocked member, its feed offset freezes, suspicion
    accrues from the silence, and the backlog floods in at the heal.
    ``unit="records"`` windows are measured in delivered-log length
    (deterministic under load, heals only as traffic flows);
    ``unit="time"`` windows are virtual-time ticks (heal even while an
    output-commit gate starves — see ``chaos_advance``).
    """

    member: int
    start: float
    end: float
    unit: str = "records"          # "records" | "time"

    def __post_init__(self) -> None:
        if self.unit not in ("records", "time"):
            raise TransportError(
                f"partition unit must be 'records' or 'time', "
                f"got {self.unit!r}"
            )
        if self.end <= self.start:
            raise TransportError(
                f"partition window must be non-empty, got "
                f"[{self.start}, {self.end})"
            )


@dataclass
class ChaosStats:
    """What the chaos schedule actually did to the link."""

    #: Transmissions eaten by an active outage (not lossy-link drops:
    #: they neither consume retry attempts nor back off the timer).
    partition_drops: int = 0
    #: Acks eaten by a rev/both outage.
    acks_cut: int = 0
    #: Heartbeats eaten by a fwd/both outage.
    heartbeats_cut: int = 0
    #: Clock jumps made by ``chaos_advance`` (gate-starvation waits).
    boundary_jumps: int = 0


class ChaosTransport(FaultyTransport):
    """A :class:`FaultyTransport` under a deterministic chaos schedule.

    On top of the seeded lossy-link model this injects *scheduled*
    faults: whole-link outages (symmetric or per-direction), link
    flaps (:func:`link_flaps`), per-direction latency/jitter
    overrides, and member-level partitions published to the voting
    layer.  Every schedule is plain data evaluated against the
    virtual clock, so two transports with the same schedule and seed
    misbehave identically.

    A transmission eaten by an outage is not a lossy-link drop: the
    retransmit timer re-arms at the *base* cadence and the attempt
    budget is untouched — a partitioned link is down, not dead, and
    must come back at the heal instead of tripping ``max_retries``
    mid-window.
    """

    def __init__(self, profile: Optional[FaultProfile] = None, *,
                 seed: int = 20030622, send_cost: float = 1.0,
                 outages: Tuple[LinkOutage, ...] = (),
                 member_partitions: Tuple[MemberPartition, ...] = (),
                 fwd_latency: Optional[float] = None,
                 rev_latency: Optional[float] = None,
                 fwd_jitter: Optional[float] = None,
                 rev_jitter: Optional[float] = None,
                 **overrides) -> None:
        super().__init__(profile, seed=seed, send_cost=send_cost,
                         **overrides)
        self.outages = tuple(outages)
        self.member_partitions = tuple(member_partitions)
        self.fwd_latency = fwd_latency
        self.rev_latency = rev_latency
        self.fwd_jitter = fwd_jitter
        self.rev_jitter = rev_jitter
        self.chaos = ChaosStats()

    # -- schedule evaluation -------------------------------------------
    def _cut(self, direction: str) -> bool:
        return any(o.cuts(direction, self.now) for o in self.outages)

    def _delay(self, direction: str) -> float:
        p = self.profile
        latency = self.fwd_latency if direction == "fwd" else self.rev_latency
        jitter = self.fwd_jitter if direction == "fwd" else self.rev_jitter
        latency = p.latency if latency is None else latency
        jitter = p.jitter if jitter is None else jitter
        delay = latency + self._rng.uniform(0.0, jitter)
        if p.reorder_rate and self._rng.random() < p.reorder_rate:
            delay += latency + jitter + self._rng.uniform(0.0, 4 * jitter)
        return delay

    def blocked_members(self) -> frozenset:
        """Members partitioned from the delivered log *right now* (the
        voting group polls this before feeding its followers)."""
        records = float(len(self.delivered))
        blocked = set()
        for p in self.member_partitions:
            at = self.now if p.unit == "time" else records
            if p.start <= at < p.end:
                blocked.add(p.member)
        return frozenset(blocked)

    def chaos_advance(self) -> bool:
        """Jump the virtual clock to the next schedule boundary.

        An output-commit gate starving on a partitioned quorum has no
        wire traffic to advance time with — real time still passes for
        it, so the gate's wait loop calls this to reach the heal (or
        the next onset) instead of deadlocking.  Returns False when no
        time-based boundary lies ahead (the schedule is exhausted: the
        partition is permanent and the caller must give up)."""
        boundaries = [b for o in self.outages for b in (o.start, o.end)]
        boundaries += [
            b for p in self.member_partitions if p.unit == "time"
            for b in (p.start, p.end)
        ]
        ahead = [b for b in boundaries if b > self.now]
        if not ahead:
            return False
        self.now = min(ahead)
        self.chaos.boundary_jumps += 1
        self._process_due()
        return True

    # -- fault-injected wire primitives --------------------------------
    def _transmit(self, seq: int) -> None:
        pending = self._unacked[seq]
        if self._cut("fwd"):
            self.chaos.partition_drops += 1
            pending[2] = self.now + self.profile.retry_timeout
            return
        pending[1] += 1
        if pending[1] > 1:
            self.stats.retransmits += 1
        timeout = self.profile.retry_timeout * (
            self.profile.backoff ** (pending[1] - 1)
        )
        pending[2] = self.now + timeout
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
        else:
            self._schedule(self._delay("fwd"), self._ARRIVE, seq, pending[0])
        if self.profile.dup_rate and self._rng.random() < self.profile.dup_rate:
            self.stats.messages_duplicated += 1
            self._schedule(self._delay("fwd"), self._ARRIVE, seq, pending[0])

    def _send_ack(self) -> None:
        if self._cut("rev"):
            self.chaos.acks_cut += 1
            return
        if self._rng.random() < self.profile.drop_rate:
            self.stats.messages_dropped += 1
            return
        self._schedule(self._delay("rev"), self._ACK,
                       self._expected - 1, [])

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        if self._cut("fwd"):
            self.chaos.heartbeats_cut += 1
            return
        if self._rng.random() < self.profile.drop_rate:
            return
        self._schedule(self._delay("fwd"), self._HEARTBEAT, 0, [])
        self._process_due()

    def fresh(self) -> "ChaosTransport":
        return ChaosTransport(
            self.profile, seed=self.seed, send_cost=self.send_cost,
            outages=self.outages,
            member_partitions=self.member_partitions,
            fwd_latency=self.fwd_latency, rev_latency=self.rev_latency,
            fwd_jitter=self.fwd_jitter, rev_jitter=self.rev_jitter,
        )


# ======================================================================
# Real sockets
# ======================================================================
def _frame(payload: Writer) -> bytes:
    body = payload.bytes()
    return Writer().uvarint(len(body)).bytes() + body


def _buf_uvarint(buf: memoryview, at: int) -> Optional[Tuple[int, int]]:
    """Parse one varint at ``buf[at:]``; returns ``(value, index past
    it)`` or ``None`` when incomplete."""
    shift = value = 0
    for i in range(at, len(buf)):
        byte = buf[i]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i + 1
        shift += 7
        if shift > 63:
            raise TransportError("varint too long on socket")
    return None


def _recv_frames(sock: socket.socket, buf: bytearray,
                 size: int) -> Optional[List[bytes]]:
    """One non-blocking read into ``buf``, then every complete
    ``uvarint(length) || payload`` frame cut off its head (a partial
    tail stays for the next read).  ``None`` at EOF."""
    try:
        chunk = sock.recv(size)
    except BlockingIOError:
        return []
    except OSError:
        chunk = b""                 # reset by the peer: same as EOF
    if not chunk:
        return None
    buf += chunk
    frames: List[bytes] = []
    at = 0
    with memoryview(buf) as view:
        while True:
            head = _buf_uvarint(view, at)
            if head is None:
                break
            length, start = head
            if len(view) < start + length:
                break
            at = start + length
            frames.append(bytes(view[start:at]))
    del buf[:at]
    return frames


class SocketTransport(Transport):
    """Real TCP over localhost, both ends serviced on the caller's
    thread: the backup's log receiver is the other end of the same
    non-blocking link, and every data frame it appends is acked.

    Frames reuse the varint wire format: both directions carry a
    sequence of ``uvarint(length) || payload`` where payload is built
    with :class:`~repro.replication.wire.Writer` —
    data frames ``(type=1, seq, count, count×(len, bytes))``,
    heartbeats ``(type=2)``, acks ``(type=3, cumulative_seq)``.

    There is one service step, :meth:`_io`: ``select``, accept a
    pending connection, read the receiving end (deliver, ack), read
    acks on the sending end.  ``poll``/``wait_ack``/``drain``/
    ``crash_sender`` are loops over it, and so is a write the kernel
    will not take whole: a frame larger than the socket buffers cannot
    deadlock against its own unread far end.

    Connection resets are survivable: the sender keeps every unacked
    data frame in an outbox and, after a reset, reconnects and
    retransmits the outbox in order; the receiver reads each connection
    to EOF before it accepts the next, keeps its cumulative
    ``expected`` sequence across them, discards (and re-acks)
    duplicates, and never appends out of order — so the delivered log
    stays a contiguous prefix of the sent record sequence across any
    number of reconnects.  Seeded reset injection (``reset_every`` /
    ``reset_rate`` + ``reset_seed``) exercises exactly this path
    deterministically in tests.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 *, timeout: float = 10.0,
                 reset_every: Optional[int] = None,
                 reset_rate: float = 0.0,
                 reset_seed: int = 20030622) -> None:
        super().__init__()
        self.timeout = timeout
        self.reset_every = reset_every
        self.reset_rate = reset_rate
        self.reset_seed = reset_seed
        self._reset_rng = Random(reset_seed) if reset_rate else None
        self._frames_since_reset = 0
        self._next_seq = 0
        self._acked_through = -1
        #: seq -> framed DATA frame, pruned as acks arrive;
        #: retransmitted in order after a reconnect.
        self._outbox: Dict[int, bytes] = {}
        #: Bytes read off either end that do not complete a frame yet.
        self._ack_buf = bytearray()
        self._recv_buf = bytearray()
        #: Receiver-side cumulative next-expected sequence; lives on
        #: the instance so it survives connection turnover.
        self._expected = 0
        #: Connections the sender opened / the receiver read to EOF:
        #: equal once nothing is in flight on a dead sender's links.
        self._connects = 0
        self._eofs = 0
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind((host, port))
        self._listener.listen(1)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        self._sender: Optional[socket.socket] = None
        self._receiver: Optional[socket.socket] = None

    # -- the service step ----------------------------------------------
    def _watched(self) -> List[socket.socket]:
        # The listener only while no receiving connection is open: each
        # connection is read to EOF before its successor is accepted.
        return [s for s in (self._receiver or self._listener, self._sender)
                if s is not None]

    def _service(self, ready: List[socket.socket]) -> None:
        accepted = self._listener in ready
        if accepted:
            try:
                self._receiver, _ = self._listener.accept()
            except (BlockingIOError, ConnectionAbortedError):
                return              # the connection died in the queue
            except OSError as exc:  # out of descriptors: would spin
                raise TransportError(f"accept failed: {exc}") from exc
            self._receiver.setblocking(False)
            self._receiver.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
        # A connection just accepted has its first frame behind it, and
        # an ack just written is already at the sending end.
        acked = (accepted or self._receiver in ready) and self._read_frames()
        if self._sender is not None and (acked or self._sender in ready):
            self._read_acks()

    def _io(self, timeout: float, writing=None) -> bool:
        """One service step for both ends of the link: wait up to
        ``timeout`` seconds for a socket to need attention (or for
        ``writing`` to take more bytes), then serve it.  False when the
        wait timed out."""
        ready, writable, _ = select.select(
            self._watched(), [writing] if writing is not None else [], [],
            max(timeout, 0.0))
        self._service(ready)
        return bool(ready or writable)

    def _write(self, sock: socket.socket, frame: bytes) -> None:
        """Non-blocking ``sendall``: nobody else empties the far end,
        so when the kernel's buffers fill, service the link until
        ``sock`` takes more."""
        sent = 0
        with memoryview(frame) as view:
            while sent < len(view):
                try:
                    sent += sock.send(view[sent:])
                except BlockingIOError:
                    if not self._io(self.timeout, writing=sock):
                        raise TransportError("socket send stalled") from None

    # -- receiver end --------------------------------------------------
    def _read_frames(self) -> bool:
        """Read what the receiving connection has: deliver in sequence,
        re-ack duplicates, count heartbeats.  True when an ack went back."""
        conn = self._receiver
        frames = _recv_frames(conn, self._recv_buf, 65536)
        if frames is None:
            conn.close()
            self._receiver = None
            self._recv_buf.clear()  # a torn frame dies with its link
            self._eofs += 1
            return False
        owed = False
        for payload in frames:
            r = Reader(payload)
            frame_type = r.uvarint()
            if frame_type == _FRAME_HEARTBEAT:
                self.stats.heartbeats_delivered += 1
            elif frame_type == _FRAME_DATA:
                seq = r.uvarint()
                records = [r.raw(r.uvarint()) for _ in range(r.uvarint())]
                if seq > self._expected:
                    # A gap can't arise from TCP ordering; only a
                    # confused sender.  Hold nothing, ack nothing —
                    # the retransmission protocol will fill it in.
                    continue
                if seq == self._expected:
                    self._expected = seq + 1
                    self._deliver(records)
                # seq < expected: duplicate after a reconnect — the
                # records are already in the log; just re-ack.
                owed = True
        if owed:
            ack = Writer().uvarint(_FRAME_ACK).uvarint(self._expected - 1)
            try:
                conn.send(_frame(ack))
            except OSError:
                return False        # sender gone: it will retransmit
        return owed

    # -- sender end ----------------------------------------------------
    def _drop_connection(self) -> None:
        if self._sender is not None:
            self._sender.close()
            self._sender = None
        # A partial ack frame from the dead connection is garbage.
        self._ack_buf.clear()

    def _connect(self) -> socket.socket:
        if self._sender is None:
            # Serve the receiving end first, so that at most one
            # connection ever waits in the accept queue.
            while self._io(0.0):
                pass
            self._sender = socket.create_connection(self.address, self.timeout)
            self._sender.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
            self._sender.setblocking(False)
            self._connects += 1
            if self._connects > 1:
                self.stats.reconnects += 1
                # Retransmit every unacked data frame in order; the
                # receiver re-acks duplicates and appends the rest, so
                # the contiguous prefix resumes exactly where it broke.
                for seq in sorted(self._outbox):
                    self.stats.retransmits += 1
                    self._write(self._sender, self._outbox[seq])
        return self._sender

    def _maybe_inject_reset(self) -> None:
        if self.reset_every is None and not self.reset_rate:
            return
        self._frames_since_reset += 1
        due = (self.reset_every is not None
               and self._frames_since_reset >= self.reset_every)
        if not due and self.reset_rate:
            due = self._reset_rng.random() < self.reset_rate
        if due:
            # A graceful close still delivers the kernel-buffered bytes
            # (so no data is torn mid-frame), but any ACKs in flight to
            # us are gone — the reconnect path must cope with both.
            self._frames_since_reset = 0
            self.stats.connection_resets += 1
            self._drop_connection()

    def _send_frame(self, payload: Writer) -> bytes:
        frame = _frame(payload)
        for attempt in (0, 1):
            try:
                self._write(self._connect(), frame)
                return frame
            except OSError as exc:
                self._drop_connection()
                if attempt:
                    raise TransportError(f"socket send failed: {exc}") from exc

    def send(self, records: List[bytes]) -> None:
        if self.closed:
            return
        w = Writer()
        w.uvarint(_FRAME_DATA).uvarint(self._next_seq).uvarint(len(records))
        for record in records:
            w.uvarint(len(record)).raw(record)
        # Into the outbox only once written: a reconnect inside the
        # write retransmits the frames *before* this one, not this one.
        self._outbox[self._next_seq] = self._send_frame(w)
        self._next_seq += 1
        self._maybe_inject_reset()

    def send_heartbeat(self) -> None:
        if self.closed:
            return
        self.stats.heartbeats_sent += 1
        self._send_frame(Writer().uvarint(_FRAME_HEARTBEAT))

    def _read_acks(self) -> None:
        frames = _recv_frames(self._sender, self._ack_buf, 4096)
        if frames is None:
            # Link gone: the next send or ack wait reconnects.
            self._drop_connection()
            return
        for payload in frames:
            r = Reader(payload)
            if r.uvarint() != _FRAME_ACK:
                continue
            acked = r.uvarint()
            self.stats.acks_delivered += 1
            if acked > self._acked_through:
                self._acked_through = acked
                for seq in [s for s in self._outbox if s <= acked]:
                    del self._outbox[seq]
                self._ack_advanced(acked)

    def poll(self) -> bool:
        """Serve both ends until neither has anything ready, whether
        or not an ack is pending (heartbeats, uncommitted frames).  A
        dropped connection is left for send/wait_ack to repair."""
        progressed = False
        while not self.closed and self._io(0.0):
            progressed = True
        return progressed

    def ack_pending(self) -> bool:
        return self._acked_through < self._next_seq - 1

    def wait_ack(self) -> float:
        if self.closed or self._next_seq == 0:
            return 0.0
        target = self._next_seq - 1
        started = time.monotonic()
        while self._acked_through < target:
            remaining = started + self.timeout - time.monotonic()
            if remaining <= 0:
                raise TransportError("timed out waiting for backup ack")
            try:
                self._connect()     # after a reset: reconnect, retransmit
            except OSError as exc:
                raise TransportError(f"ack wait failed: {exc}") from exc
            if self.mux is not None:
                self.mux.wait(remaining)
            else:
                self._io(remaining)
        waited = time.monotonic() - started
        self.stats.ack_wait_time += waited
        return waited

    # -- completion ----------------------------------------------------
    def _serve_until(self, done: Callable[[], bool]) -> None:
        deadline = time.monotonic() + self.timeout
        while not done():
            if not self._io(deadline - time.monotonic()):
                raise TransportError("receiver did not drain in time")

    def crash_sender(self) -> None:
        if self.closed:
            return
        super().crash_sender()
        try:
            if self._sender is not None:
                # FIN after the in-flight bytes: the receiving end
                # reads them all, then EOF.
                self._sender.shutdown(socket.SHUT_WR)
            self._serve_until(lambda: self._eofs >= self._connects)
        finally:
            self.close()

    def settle(self) -> None:
        """The sender is alive: ack everything outstanding (after a
        reset, by reconnect and retransmit); an ack proves delivery."""
        self.wait_ack()

    def drain(self) -> None:
        if not self.closed:
            self._serve_until(lambda: self._expected >= self._next_seq)

    def close(self) -> None:
        super().close()
        for sock in (self._sender, self._receiver, self._listener):
            if sock is not None:
                sock.close()
        self._sender = self._receiver = self._listener = None

    def fresh(self) -> "SocketTransport":
        return SocketTransport(
            timeout=self.timeout, reset_every=self.reset_every,
            reset_rate=self.reset_rate, reset_seed=self.reset_seed,
        )


# ======================================================================
# Multiplexing
# ======================================================================
class TransportMux:
    """One event loop servicing every replica group's connection.

    Register each group's transport.  Two things follow:

    * :meth:`poll` advances every member one non-blocking step — the
      fleet's idle loop;
    * while any member *blocks* (an output-commit ack wait, a send
      backpressure stall), it calls :meth:`poll_others` between its own
      steps or, on sockets, sleeps in :meth:`wait`, so one stalled
      group's link never freezes the rest of the fleet's frames.
    """

    def __init__(self) -> None:
        self._members: List[Transport] = []

    def register(self, transport: Transport) -> Transport:
        if transport not in self._members:
            self._members.append(transport)
            transport.mux = self
        return transport

    def unregister(self, transport: Transport) -> None:
        if transport in self._members:
            self._members.remove(transport)
        if transport.mux is self:
            transport.mux = None

    def members(self) -> List[Transport]:
        return list(self._members)

    def poll(self) -> bool:
        """One non-blocking service step over all members, in
        registration order.  True when any member progressed."""
        progressed = False
        for transport in list(self._members):
            if not transport.closed and transport.poll():
                progressed = True
        return progressed

    def poll_others(self, busy: Transport) -> bool:
        """Service every member except ``busy`` (called from inside
        ``busy``'s blocking wait)."""
        progressed = False
        for transport in list(self._members):
            if transport is busy or transport.closed:
                continue
            if transport.poll():
                progressed = True
        return progressed

    def wait(self, timeout: float) -> None:
        """Sleep until a member's socket needs service — at most
        ``timeout`` seconds, and not at all if a socketless member
        progressed by being polled — then serve every ready member:
        how one member waits out its ack without freezing the rest."""
        owner: Dict[socket.socket, Transport] = {}
        polled = False
        for transport in self._members:
            if not transport.closed:
                watched = transport._watched()
                owner.update((sock, transport) for sock in watched)
                if not watched and transport.poll():
                    polled = True
        ready = select.select(list(owner), [], [],
                              0.0 if polled else timeout)[0]
        for transport in dict.fromkeys(owner[sock] for sock in ready):
            transport._service(ready)

    def ack_pending(self) -> bool:
        return any(t.ack_pending() for t in self._members)

    def close(self) -> None:
        for transport in list(self._members):
            transport.close()
        self._members.clear()


def make_transport(spec=None) -> Transport:
    """Build a transport from a spec: ``None`` (in-memory default), a
    :class:`Transport` instance, a zero-argument factory, a fault
    profile name from :data:`FAULT_PROFILES`, or ``"memory"`` /
    ``"socket"``."""
    if spec is None:
        return InMemoryTransport()
    if isinstance(spec, Transport):
        return spec
    if callable(spec):
        transport = spec()
        if not isinstance(transport, Transport):
            raise TransportError(
                f"transport factory returned {transport!r}, not a Transport"
            )
        return transport
    if isinstance(spec, str):
        if spec == "memory":
            return InMemoryTransport()
        if spec == "socket":
            return SocketTransport()
        if spec in FAULT_PROFILES:
            return FaultyTransport(FAULT_PROFILES[spec])
        raise TransportError(
            f"unknown transport {spec!r}; expected 'memory', 'socket', or "
            f"a fault profile from {sorted(FAULT_PROFILES)}"
        )
    raise TransportError(f"cannot build a transport from {spec!r}")
