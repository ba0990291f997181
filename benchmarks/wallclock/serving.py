"""The four ``serve_*`` workloads: a sharded fleet under timed load.

A *round* is a fixed amount of work on fresh fleets — warm-up, a
closed-loop phase, an open-loop phase and an unreplicated baseline —
so every round of every commit does the same thing; a run repeats
rounds until ``--seconds`` is spent and reports medians over them.
Only public API is driven: ``Fleet()/start/submit/stop``,
``group.pump``, ``run_unreplicated``, ``generate`` and
``reference_responses``.  Every response of every phase is checked.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.env.environment import Environment
from repro.fleet import Fleet, TrafficSpec, generate, reference_responses
from repro.fleet.fleet import shard_of
from repro.replication.config import ReplicationConfig
from repro.replication.machine import run_unreplicated
from repro.workloads import DB_SERVER

import driver
import layers
import spans
from report import Result, peak_rss_mb
from spec import CRASH_GENERATIONS, N_SHARDS, ServeSpec

_clock = time.perf_counter

#: Room the open loop wants before it times a kernel in a gap.
IDLE_NEEDS_S = 3 * driver.KERNEL_REFERENCE_S


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(what)


@dataclass
class Started:
    """A fleet that is booted, armed, parked and warmed up."""

    fleet: Fleet
    serve: Callable[[object], int]
    #: Set-up began / the fleet was built / armed / warmed up.
    begun: float
    built: float
    armed: float
    ready: float


def _requests(spec: ServeSpec, seed: int, round_index: int, phase: int,
              count: int) -> list:
    keyspace = int(DB_SERVER.params_for(spec.profile)["keyspace"])
    return generate(TrafficSpec(
        qps=spec.rate, n_requests=count, keyspace=keyspace,
        seed=seed * 1_000_003 + round_index * 101 + phase,
    ))


def _server(fleet: Fleet, tracer: Optional[spans.Tracer]
            ) -> Callable[[object], int]:
    groups, submit = fleet.groups, fleet.submit

    def serve(request) -> int:
        group = groups[submit(request.text)]
        before = group.failures_survived
        group.pump()
        return group.failures_survived - before

    if tracer is None:
        return serve

    def traced_serve(request) -> int:
        tracer.request = request.rid
        try:
            return serve(request)
        finally:
            tracer.request = None

    return traced_serve


def _start(spec: ServeSpec, warmup: Sequence,
           tracer: Optional[spans.Tracer] = None) -> Started:
    crash_for = None
    if spec.crash_every is not None:
        schedule = {g: spec.crash_every for g in range(CRASH_GENERATIONS)}
        crash_for = lambda shard: schedule          # noqa: E731
    begun = _clock()
    fleet = Fleet(N_SHARDS, profile=spec.profile,
                  config=ReplicationConfig(**spec.config),
                  crash_schedule_for=crash_for)
    built = _clock()
    fleet.start()
    armed = _clock()
    serve = _server(fleet, tracer)
    for request in warmup:
        serve(request)
    return Started(fleet, serve, begun, built, armed, ready=_clock())


def _verify(checks: Checks, what: str, requests: Sequence,
            answer_of: Callable[[object], Optional[str]],
            duplicates: int) -> None:
    """Every offered request answered once, as the serial reference
    model answers it."""
    expected = reference_responses(requests)
    lost = wrong = 0
    for request in requests:
        answer = answer_of(request)
        if answer is None:
            lost += 1
        elif answer != expected[request.rid]:
            wrong += 1
    checks.attempted += len(requests)
    checks.fail(lost, f"{what}: {lost} responses lost")
    checks.fail(wrong, f"{what}: {wrong} responses wrong")
    checks.fail(duplicates, f"{what}: {duplicates} responses duplicated")


def _finish(checks: Checks, what: str, fleet: Fleet, requests: Sequence,
            *, expect_failover: bool) -> None:
    fleet.stop()
    groups = fleet.groups
    _verify(checks, what, requests,
            lambda r: groups[fleet.route(r.text)].env.responses.get(r.rid),
            sum(g.env.responses.duplicates for g in groups))
    if expect_failover:
        spared = [s for s, g in enumerate(groups)
                  if g.failures_survived < 1]
        checks.fail(len(spared), f"{what}: no failover on shards {spared}")


def _baseline(checks: Checks, spec: ServeSpec, requests: Sequence,
              calibrator: driver.Calibrator) -> float:
    """The same server unreplicated: each shard's requests queued up
    front, then one ``run_unreplicated``.  Returns seconds per request
    at reference speed."""
    registry = DB_SERVER.compile(spec.profile)
    port_name = str(DB_SERVER.params_for(spec.profile)["port"])
    envs = []
    for shard in range(N_SHARDS):
        env = Environment()
        DB_SERVER.prepare_env(env, spec.profile)
        port = env.port(port_name)
        for request in requests:
            if shard_of(request.key, N_SHARDS) == shard:
                port.push(request.text)
        port.push(f"stop-{shard} halt {shard}")
        envs.append(env)
    begun = _clock()
    for env in envs:
        result, _ = run_unreplicated(registry, DB_SERVER.main_class, env=env)
        checks.fail(0 if result.ok else 1,
                    f"baseline: server died: {result.uncaught}")
    ended = _clock()
    _verify(checks, "baseline", requests,
            lambda r: envs[shard_of(r.key, N_SHARDS)].responses.get(r.rid),
            sum(env.responses.duplicates for env in envs))
    return ((ended - begun) / calibrator.slowdown(begun, ended)
            / len(requests))


@dataclass
class Round:
    """One round's samples, all at reference speed."""

    requests: int
    closed_s: float
    service_s: List[float]
    failover_gaps_s: List[float]
    latency_s: List[float]
    #: The same latencies by operation class (reads: get; writes: put
    #: and add).
    read_latency_s: List[float]
    write_latency_s: List[float]
    lag_s: List[float]
    baseline_s_per_request: float
    setup_s: List[float]
    arm_s: List[float]


def _closed_slowdown(spec: ServeSpec, closed: driver.ClosedLoop,
                     calibrator: driver.Calibrator) -> float:
    """1.0 where the closed loop waits on a timer, not the processor:
    those times are reported as measured."""
    if spec.timer_bound:
        return 1.0
    return calibrator.slowdown(closed.begun, closed.ended)


def _open_phase(spec: ServeSpec, requests: Sequence, started: Started,
                calibrator: driver.Calibrator) -> driver.OpenLoop:
    """Arrivals are scheduled in reference time too: while the box
    runs at half speed they come half as fast, so the server is as
    busy — and its queue as long — as at reference speed.  The
    generator takes the kernel samples itself, in gaps that leave room
    for three, so no request ever waits for the kernel."""
    # A loop that waits on timers keeps its schedule in wall time.
    stretch = None if spec.timer_bound else calibrator.slowdown_now
    with calibrator.held():
        return driver.open_loop(
            requests, started.serve, stretch=stretch,
            idle=calibrator.sample,
            idle_needs_s=IDLE_NEEDS_S * calibrator.slowdown_now())


def run_round(spec: ServeSpec, seed: int, index: int, checks: Checks,
              calibrator: driver.Calibrator) -> Round:
    crashes = spec.crash_every is not None
    setup_s, arm_s = [], []

    def spent(begun: float, ended: float) -> float:
        return (ended - begun) / calibrator.slowdown(begun, ended)

    def start(warmup: Sequence) -> Started:
        started = _start(spec, warmup)
        arm_s.append(spent(started.built, started.armed))
        if warmup:      # an arm-only fleet is no sample of set-up time
            setup_s.append(spent(started.begun, started.ready))
        return started

    requests = _requests(spec, seed, index, 0, spec.warmup + spec.closed)
    started = start(requests[:spec.warmup])
    closed = driver.closed_loop(requests[spec.warmup:], started.serve)
    _finish(checks, "closed loop", started.fleet, requests,
            expect_failover=crashes)
    closed_slow = _closed_slowdown(spec, closed, calibrator)

    requests = _requests(spec, seed, index, 1, spec.warmup + spec.open)
    started = start(requests[:spec.warmup])
    opened = _open_phase(spec, requests[spec.warmup:], started, calibrator)
    _finish(checks, "open loop", started.fleet, requests,
            expect_failover=False)
    open_slow = calibrator.slowdown(opened.begun, opened.ended)

    for _ in range(spec.arm_only):
        started = start([])
        if not spec.timer_bound:
            # Stopping a fleet of TCP links takes three seconds
            # (README.md); those are left to end with the process.
            started.fleet.stop()

    baseline = _baseline(
        checks, spec, _requests(spec, seed, index, 2, spec.baseline),
        calibrator)
    latency_s = [s / open_slow for s in opened.latency_s]
    reads = [r.op == "get" for r in requests[spec.warmup:]]
    return Round(
        requests=closed.requests,
        closed_s=closed.elapsed_s / closed_slow,
        service_s=[s / closed_slow for s in closed.service_s],
        # A gap lasts a few milliseconds: each is judged by the kernel
        # samples right around it, not by the phase's average.
        failover_gaps_s=[spent(*gap) for gap in closed.failover_gaps],
        latency_s=latency_s,
        read_latency_s=[s for s, read in zip(latency_s, reads) if read],
        write_latency_s=[s for s, read in zip(latency_s, reads) if not read],
        lag_s=[s / open_slow for s in opened.lag_s],
        baseline_s_per_request=baseline,
        setup_s=setup_s, arm_s=arm_s,
    )


def _optional_percentile(samples: Sequence[float], p: float
                         ) -> Optional[float]:
    try:
        return driver.percentile(samples, p)
    except driver.TooFewSamples:
        return None


def measure(spec: ServeSpec, seed: int, seconds: float, import_s: float,
            calibrator: driver.Calibrator) -> Result:
    """The untraced run: whole rounds until ``seconds`` are spent."""
    checks = Checks()
    rounds: List[Round] = []
    begun = _clock()
    while not rounds or _clock() - begun < seconds:
        rounds.append(run_round(spec, seed, len(rounds), checks, calibrator))

    def over_rounds(samples_of, p: float) -> float:
        """Median over rounds of each round's own percentile, so one
        round hit by a burst of contention does not set the tail."""
        return statistics.median(
            driver.percentile(samples_of(r), p, spec.min_beyond)
            for r in rounds)

    latency = [s for r in rounds for s in r.latency_s]
    lag = [s for r in rounds for s in r.lag_s]
    gaps = [s for r in rounds for s in r.failover_gaps_s]
    arm_ms = 1e3 * statistics.median(s for r in rounds for s in r.arm_s)
    gap_ms = 1e3 * statistics.median(gaps) if gaps else None
    if spec.timer_bound:
        # Requests take 0.5 ms or 43 ms; the open loop at 10 rps is too
        # sparse to resolve either end in one run.  The closed loop's
        # mean and 90th percentile stand in.  See README.md.
        p50_ms = 1e3 * statistics.median(
            r.closed_s / r.requests for r in rounds)
        p90_ms = 1e3 * over_rounds(lambda r: r.service_s, 90)
    else:
        # Half the requests are reads and reads are quicker, so the
        # plain median sits on the border between the two classes and
        # flips with the seed's mix: take each class's median, average.
        p50_ms = 1e3 * (over_rounds(lambda r: r.read_latency_s, 50)
                        + over_rounds(lambda r: r.write_latency_s, 50)) / 2
        p90_ms = 1e3 * over_rounds(lambda r: r.latency_s, 90)
    result = Result(spec.name, seed, traced=False,
                    attempted=checks.attempted, failed=checks.failed,
                    problems=checks.problems)
    result.metrics = {
        "setup_s": import_s + statistics.median(
            s for r in rounds for s in r.setup_s),
        "throughput_ops": statistics.median(
            r.requests / r.closed_s for r in rounds),
        "latency_p50_ms": p50_ms,
        "latency_p90_ms": p90_ms,
        # Time without service when a primary dies; on a workload that
        # kills none, the time to arm the backups (the re-integration
        # half of every failover) stands in.  See README.md.
        "recovery_ms": gap_ms if gap_ms is not None else arm_ms,
        "overhead_ratio": statistics.median(
            r.closed_s / r.requests / r.baseline_s_per_request
            for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }
    p99 = _optional_percentile(latency, 99)
    result.diagnostics = {
        "latency_max_ms": 1e3 * max(latency),
        "generator_lag_p90_ms": 1e3 * driver.percentile(lag, 90, 0),
        "arm_ms": arm_ms,
        "import_s": import_s,
        "failed_share": checks.failed / checks.attempted,
        "rounds": len(rounds),
        "latency_samples": len(latency),
    }
    if p99 is not None:
        result.diagnostics["latency_p99_ms"] = 1e3 * p99
    if spec.timer_bound:
        result.diagnostics["latency_open_p50_ms"] = 1e3 * driver.percentile(
            latency, 50, 0)
        result.diagnostics["latency_open_p90_ms"] = 1e3 * driver.percentile(
            latency, 90, 0)
    if gap_ms is not None:
        result.diagnostics["failover_gap_p50_ms"] = gap_ms
        result.notes.append(f"failovers timed: {len(gaps)}")
    return result


def trace(spec: ServeSpec, seed: int, calibrator: driver.Calibrator,
          spans_path: Optional[str] = None) -> Result:
    """The traced run: one round's closed-loop phase untraced (about a
    quarter of what a measured run does), then the same phase again
    under the span wrappers; the ratio is the tracing overhead."""
    checks = Checks()
    crashes = spec.crash_every is not None
    requests = _requests(spec, seed, 0, 0, spec.warmup + spec.closed)
    timed = requests[spec.warmup:]

    plain = _start(spec, requests[:spec.warmup])
    untraced = driver.closed_loop(timed, plain.serve)
    _finish(checks, "untraced", plain.fleet, requests, expect_failover=crashes)

    tracer = spans.Tracer()
    facts = layers.Facts(requests=len(timed), requests_run=len(requests),
                         voting=bool(spec.config.get("voting")))
    with spans.installed(tracer):
        started = _start(spec, requests[:spec.warmup], tracer)
        warm = layers.Counters()
        for group in started.fleet.groups:
            warm.absorb_jvm(group.active_jvm)
        tracer.counts.clear()
        with tracer.span("driver.timed") as facts.first:
            closed = driver.closed_loop(timed, started.serve)
        facts.last = len(tracer.spans)
        _finish(checks, "traced", started.fleet, requests,
                expect_failover=crashes)
    # Tracing overhead compares the two phases at reference speed;
    # the layers' self times are as measured.
    facts.traced_s = (closed.elapsed_s
                      / _closed_slowdown(spec, closed, calibrator))
    facts.untraced_s = (untraced.elapsed_s
                        / _closed_slowdown(spec, untraced, calibrator))
    facts.gap_s = sum(ended - begun for begun, ended in closed.failover_gaps)

    counters = layers.Counters()
    for group in started.fleet.groups:
        counters.absorb_group(group)
    # JVM counters survive a restore, so the difference is the timed
    # region's own; the replicas' record and byte counters cannot be
    # read mid-run and cover warm-up and arming too.
    counters.instructions -= warm.instructions
    counters.native_calls -= warm.native_calls
    result = Result(spec.name, seed, traced=True,
                    attempted=checks.attempted, failed=checks.failed,
                    problems=checks.problems)
    layers.report(result, tracer, counters, facts, spans_path)
    return result
