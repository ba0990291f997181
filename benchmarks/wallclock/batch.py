"""The two ``batch_*`` workloads: the paper's own experiment.

A *pass* runs every program of the workload three ways, interleaved —
``run_unreplicated``, ``ReplicatedJVM.run`` (primary executing and
shipping the log) and ``replay_backup`` (cold backup recovering from
the full log) — on freshly compiled programs, and checks what
``harness.runner`` checks, without its memo cache: the replicated and
replayed console transcripts equal the unreplicated one and the
backup's state digest equals the primary's.  A run repeats passes
until ``--seconds`` is spent and reports medians over them.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.env.environment import Environment
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.workloads import BY_NAME

import driver
import layers
import spans
from report import Result, peak_rss_mb
from spec import BatchSpec

_clock = time.perf_counter

#: Configurations checked per program and pass.
CONFIGURATIONS = 3


@dataclass
class Job:
    """One program, compiled afresh, with its three executions (their
    times at reference speed)."""

    name: str
    main: str
    registry: object
    plain_env: Environment
    replica_env: Environment
    machine: ReplicatedJVM
    unreplicated_s: float = 0.0
    run_s: float = 0.0
    replay_s: float = 0.0
    plain: object = None
    plain_jvm: object = None
    ran: object = None
    replayed: object = None
    expected: str = ""
    transcript: str = ""

    def release(self) -> None:
        """Keep the timings, let the machines and heaps go."""
        self.registry = self.plain_env = self.replica_env = None
        self.machine = self.plain_jvm = None


@dataclass
class Pass:
    setup_s: float
    jobs: List[Job]

    def seconds(self, which: str) -> Dict[str, float]:
        return {job.name: getattr(job, which) for job in self.jobs}


def prepare(spec: BatchSpec, calibrator: driver.Calibrator) -> Pass:
    begun = _clock()
    jobs = []
    for name in spec.programs:
        workload = BY_NAME[name]
        registry = workload.compile(spec.profile)
        plain_env, replica_env = Environment(), Environment()
        workload.prepare_env(plain_env, spec.profile)
        workload.prepare_env(replica_env, spec.profile)
        machine = ReplicatedJVM(
            registry, env=replica_env,
            config=ReplicationConfig(strategy=spec.strategy))
        jobs.append(Job(name, workload.main_class, registry, plain_env,
                        replica_env, machine))
    ended = _clock()
    return Pass((ended - begun) / calibrator.slowdown(begun, ended), jobs)


def execute(batch: Pass, calibrator: driver.Calibrator,
            tracer: Optional[spans.Tracer] = None) -> None:
    """The timed part: per program, the three executions back to back."""
    def timed(name: str):
        if tracer is None:
            return nullcontext()
        stack = ExitStack()
        stack.enter_context(tracer.span("driver.timed"))
        stack.enter_context(tracer.span(name))
        return stack

    def since(begun: float) -> float:
        ended = _clock()
        return (ended - begun) / calibrator.slowdown(begun, ended)

    for job in batch.jobs:
        begun = _clock()
        with timed("machine.unreplicated"):
            job.plain, job.plain_jvm = run_unreplicated(
                job.registry, job.main, env=job.plain_env)
        job.unreplicated_s = since(begun)
        job.expected = job.plain_env.console.transcript()

        begun = _clock()
        with timed("machine.run"):
            job.ran = job.machine.run(job.main)
        job.run_s = since(begun)
        job.transcript = job.replica_env.console.transcript()

        begun = _clock()
        with timed("machine.replay"):
            job.replayed = job.machine.replay_backup(job.main)
        job.replay_s = since(begun)


def verify(batch: Pass) -> List[str]:
    """One entry per failed configuration."""
    problems = []
    for job in batch.jobs:
        name, machine = job.name, job.machine
        if not job.plain.ok:
            problems.append(f"{name} unreplicated: {job.plain.uncaught}")
        if not job.ran.final_result.ok:
            problems.append(f"{name} replicated: "
                            f"{job.ran.final_result.uncaught}")
        elif job.transcript != job.expected:
            problems.append(f"{name} replicated: output differs from the "
                            f"unreplicated run")
        if not job.replayed.ok:
            problems.append(f"{name} replay: {job.replayed.uncaught}")
        elif job.replica_env.console.transcript() != job.transcript:
            problems.append(f"{name} replay: output duplicated")
        elif (machine.backup_jvm.state_digest()
              != machine.primary_jvm.state_digest()):
            problems.append(f"{name} replay: backup state digest differs "
                            f"from the primary's")
    return problems


def measure(spec: BatchSpec, seed: int, seconds: float, import_s: float,
            calibrator: driver.Calibrator) -> Result:
    """The untraced run.  The programs are fixed, so ``seed`` only
    labels the run; their non-determinism comes from the replicas'
    own seeded clocks, schedulers and entropy."""
    passes: List[Pass] = []
    problems: List[str] = []
    begun = _clock()
    while not passes or _clock() - begun < seconds:
        batch = prepare(spec, calibrator)
        execute(batch, calibrator)
        problems += verify(batch)
        for job in batch.jobs:
            job.release()
        passes.append(batch)

    def medians(which: str) -> Dict[str, float]:
        return {p: statistics.median(x.seconds(which)[p] for x in passes)
                for p in spec.programs}

    plain, run, replay = (medians("unreplicated_s"), medians("run_s"),
                          medians("replay_s"))
    attempted = len(passes) * len(spec.programs) * CONFIGURATIONS
    result = Result(spec.name, seed, traced=False, attempted=attempted,
                    failed=len(problems), problems=problems)
    exec_s = sum(run.values())
    result.metrics = {
        "setup_s": import_s + statistics.median(x.setup_s for x in passes),
        "throughput_ops": len(spec.programs) / exec_s,
        # One job is one replicated program run.  With a handful of
        # jobs per pass there is no tail to take a percentile of: the
        # mean job and the slowest job stand in.  See README.md.
        "latency_p50_ms": 1e3 * exec_s / len(spec.programs),
        "latency_p90_ms": 1e3 * max(run.values()),
        "recovery_ms": 1e3 * sum(replay.values()),
        "overhead_ratio": math.exp(statistics.fmean(
            math.log(run[p] / plain[p]) for p in spec.programs)),
        "peak_rss_mb": peak_rss_mb(),
    }
    result.diagnostics = {
        "exec_s": exec_s,
        "replay_s": sum(replay.values()),
        "import_s": import_s,
        "failed_share": len(problems) / attempted,
        "rounds": len(passes),
    }
    result.notes = [
        f"{p:<10} unreplicated {plain[p]:.3f} s  run {run[p]:.3f} s "
        f"(x{run[p] / plain[p]:.3f})  replay {replay[p]:.3f} s"
        for p in spec.programs
    ]
    return result


def trace(spec: BatchSpec, seed: int, calibrator: driver.Calibrator,
          spans_path: Optional[str] = None) -> Result:
    """One pass untraced, one under the span wrappers."""
    untraced = prepare(spec, calibrator)
    execute(untraced, calibrator)
    problems = verify(untraced)

    tracer = spans.Tracer()
    facts = layers.Facts()
    with spans.installed(tracer):
        traced = prepare(spec, calibrator)
        facts.first = len(tracer.spans)
        tracer.counts.clear()
        execute(traced, calibrator, tracer)
        facts.last = len(tracer.spans)
        problems += verify(traced)

    def wall(batch: Pass) -> float:
        return sum(job.unreplicated_s + job.run_s + job.replay_s
                   for job in batch.jobs)

    facts.traced_s, facts.untraced_s = wall(traced), wall(untraced)
    counters = layers.Counters()
    for job in traced.jobs:
        counters.absorb_metrics(job.machine.primary_metrics)
        counters.absorb_metrics(job.machine.backup_metrics)
        for jvm in (job.plain_jvm, job.machine.primary_jvm,
                    job.machine.backup_jvm):
            counters.absorb_jvm(jvm)
    result = Result(spec.name, seed, traced=True,
                    attempted=2 * len(spec.programs) * CONFIGURATIONS,
                    failed=len(problems), problems=problems)
    layers.report(result, tracer, counters, facts, spans_path)
    return result
