"""The load generator: closed and open loops, the percentile picker, and
the calibration that makes wall time repeatable on a shared box.

``serve(request)`` delivers one request to the program under test and
returns once its response is committed; it returns the number of
failovers the call absorbed.  The program receives only the generated
request texts.  The generator is one process and one thread.

Pacing in the open loop is a busy wait on the clock, never a sleep: on
a shared two-core box a sleeping generator's wake-up latency lands in
the tail it is trying to measure.

The box this was sized on runs the *same* pure-Python loop anywhere
between 1x and 2x its best time from one second to the next, and
drifts by a third between one ten-second window and the next, so no
statistic of raw wall time repeats.  Every processor-bound time is
therefore divided by how slow a fixed calibration kernel
(:func:`kernel`, nothing of ``repro`` in it) ran *while that time was
being measured*: times are reported at reference speed.  The kernel
runs on a sampling thread (:class:`Calibrator`), the only thread the
benchmark starts.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

Clock = Callable[[], float]


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


_CELLS = [_Cell(i) for i in range(64)]

#: Seconds one :func:`kernel` call takes at reference speed (a quiet
#: moment on the box the benchmark was sized on).  A constant: it only
#: fixes the scale of the reported times.
KERNEL_REFERENCE_S = 0.0005

#: Kernel samples a slowdown is averaged over, at least.
MIN_SAMPLES = 3

#: Weight of the newest sample in the running estimate of the present
#: slowdown.
RECENT_WEIGHT = 0.1


def kernel() -> int:
    """Half a millisecond of what an interpreter written in Python
    does: attribute loads and stores, dict stores, list push and pop,
    small-integer arithmetic.  Touches nothing outside this module."""
    cells = _CELLS
    table = {}
    stack = []
    acc = 0
    for i in range(4000):
        cell = cells[i & 63]
        acc = (acc * 31 + cell.value + i) & 0xFFFFFF
        table[acc & 255] = i
        stack.append(acc)
        if len(stack) > 8:
            stack.pop()
            stack.pop()
        cell.value = acc & 1023
    return acc


class Calibrator:
    """Times the kernel every ``period_s`` on a thread of its own, so
    that any interval of the run — one long ``ReplicatedJVM.run`` as
    much as a loop of requests — can be asked how slow the box was
    *during* it.  A sample holds the interpreter lock for its half
    millisecond, about 2 % of the time, on every commit alike."""

    def __init__(self, period_s: float = 0.02,
                 clock: Clock = time.perf_counter) -> None:
        self._period_s = period_s
        self._clock = clock
        #: When each sample was taken and how long the kernel took,
        #: in time order.
        self._when: List[float] = []
        self._took: List[float] = []
        #: Kernel seconds, exponentially smoothed over the last ten or
        #: so samples: how slow the box is *now*.
        self._recent_s = KERNEL_REFERENCE_S
        self._stop = threading.Event()
        self._held = False
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        clock = self._clock
        begun = clock()
        kernel()
        took = clock() - begun
        self._when.append(begun)
        self._took.append(took)
        self._recent_s += RECENT_WEIGHT * (took - self._recent_s)

    def slowdown_now(self) -> float:
        return self._recent_s / KERNEL_REFERENCE_S

    def _run(self) -> None:
        while not self._stop.wait(self._period_s):
            if not self._held:
                self.sample()

    @contextmanager
    def held(self) -> Iterator[None]:
        """Keep the sampling thread off the interpreter lock; the
        caller takes the samples itself (the open loop does, in the
        gaps between arrivals, so no request waits for the kernel)."""
        self._held = True
        try:
            yield
        finally:
            self._held = False

    def __enter__(self) -> "Calibrator":
        self.sample()
        self._thread = threading.Thread(
            target=self._run, name="calibration-kernel", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, begun: float, ended: float) -> float:
        """Kernel time over reference, averaged over the samples taken
        between ``begun`` and ``ended``; a region too short to hold
        :data:`MIN_SAMPLES` borrows the ones nearest to it."""
        when = self._when
        count = len(self._took)         # the sampler may be appending
        low = bisect_left(when, begun, 0, count)
        high = bisect_right(when, ended, low, count)
        middle = (begun + ended) / 2.0
        while high - low < min(MIN_SAMPLES, count):
            # Widen towards whichever neighbour is nearer in time.
            if high == count or (low > 0 and middle - when[low - 1]
                                 <= when[high] - middle):
                low -= 1
            else:
                high += 1
        inside = self._took[low:high]
        return sum(inside) / len(inside) / KERNEL_REFERENCE_S


# ----------------------------------------------------------------------
# The two loops
# ----------------------------------------------------------------------
@dataclass
class ClosedLoop:
    """One client: the next request leaves when the last one returned."""

    requests: int = 0
    #: Clock readings at the first send and the last return.
    begun: float = 0.0
    ended: float = 0.0
    #: Wall time of each call that absorbed no failover.
    service_s: List[float] = field(default_factory=list)
    #: ``(begun, ended)`` of each call during which a failover
    #: happened: the time that shard was without service.
    failover_gaps: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.ended - self.begun


@dataclass
class OpenLoop:
    """Arrivals on a fixed schedule, whatever the server is doing."""

    requests: int = 0
    begun: float = 0.0
    ended: float = 0.0
    #: Due time -> response committed, so a stall is charged to every
    #: later arrival it delayed.
    latency_s: List[float] = field(default_factory=list)
    #: Due time -> actually sent: how late the generator ran.
    lag_s: List[float] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return self.ended - self.begun


def closed_loop(requests: Sequence, serve: Callable[[object], int],
                clock: Clock = time.perf_counter) -> ClosedLoop:
    out = ClosedLoop(requests=len(requests))
    out.begun = previous = clock()
    for request in requests:
        failovers = serve(request)
        now = clock()
        if failovers:
            out.failover_gaps.append((previous, now))
        else:
            out.service_s.append(now - previous)
        previous = now
    out.ended = previous
    return out


def open_loop(requests: Sequence, serve: Callable[[object], int],
              clock: Clock = time.perf_counter, *,
              stretch: Optional[Callable[[], float]] = None,
              idle: Optional[Callable[[], None]] = None,
              idle_needs_s: float = 0.0) -> OpenLoop:
    """Send each request when it is due.  The first is due at once;
    each later one after the gap its ``arrival_ms`` leaves to its
    predecessor's, times ``stretch()`` (the box's present slowdown,
    which turns a schedule written in reference time into wall time).
    While the next arrival is more than ``idle_needs_s`` away,
    ``idle()`` runs.

    The generator is the server's only client thread, so a request
    still in service delays the next send; that delay is the generator
    lag, and it is inside the latency because latency runs from the
    due time."""
    out = OpenLoop(requests=len(requests))
    out.begun = out.ended = due = clock()
    previous_ms = requests[0].arrival_ms if requests else 0.0
    for request in requests:
        gap_s = (request.arrival_ms - previous_ms) / 1e3
        due += gap_s * stretch() if stretch is not None else gap_s
        previous_ms = request.arrival_ms
        sent = clock()
        while sent < due:
            if idle is not None and due - sent > idle_needs_s:
                idle()
            sent = clock()
        serve(request)
        out.ended = clock()
        out.lag_s.append(sent - due)
        out.latency_s.append(out.ended - due)
    return out


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile; refuses one with fewer than
    ``min_beyond`` samples beyond it."""
    if not 0 < p < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{p:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"need {min_beyond}"
        )
    return ordered[rank - 1]
