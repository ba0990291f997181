"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE.java [--args ...]`` — compile and run a MiniJava program
  on the unreplicated mini-JVM.
* ``replicate FILE.java [--strategy S] [--crash-at N]`` — run under
  primary-backup replication, optionally injecting a fail-stop.
* ``disasm FILE.java [--method Class.name/arity]`` — compile and print
  the bytecode of every method (or one method).
* ``bench [--profile P] [--experiment E]`` — regenerate the paper's
  tables and figures.
* ``workloads`` — list the SPEC JVM98-analogue workloads.
* ``conform [--workload W ...] [--quick]`` — exhaustive crash-point
  conformance sweep: every crash event index × strategy × transport,
  checking digest equality, the log prefix property, and exactly-once
  outputs; optionally writes a JSON report.  With ``--chained`` the
  same harness crashes a replica group at every event index of every
  generation down to ``--depth`` (including mid-checkpoint-transfer)
  and additionally asserts stale-epoch records are fenced; with
  ``--byzantine`` it tells a voting group a lie about every digest and
  output.  A flag the chosen mode cannot honour is a usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bytecode.assembler import disassemble
from repro.env.environment import Environment
from repro.errors import ReproError
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM, run_unreplicated
from repro.runtime.stdlib import new_program_registry


def _load_source(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ======================================================================
# Shared replication flags
# ======================================================================
def transport_from_spec(spec: Optional[str], seed: int):
    """Resolve a ``--transport`` spec into a
    :class:`~repro.replication.config.ReplicationConfig` transport value:
    ``None``/``"memory"`` -> in-memory default, ``"socket"`` -> loopback
    TCP, ``"faulty:<profile>"`` -> a factory of seeded fault-injecting
    transports (every generation's faults are reproducible)."""
    from repro.replication.transport import FAULT_PROFILES, FaultyTransport

    if spec is None or spec == "memory":
        return None
    if spec == "socket":
        return "socket"
    kind, _, profile = spec.partition(":")
    profile = profile or "flaky"
    if kind == "faulty" and profile in FAULT_PROFILES:
        return lambda _gen=None: FaultyTransport(
            FAULT_PROFILES[profile], seed=seed
        )
    raise ReproError(
        f"unknown transport {spec!r}; expected 'memory', 'socket', or "
        f"'faulty:<profile>' with a profile from "
        f"{sorted(FAULT_PROFILES)}"
    )


def add_replication_options(
    parser: argparse.ArgumentParser,
    *,
    repeatable: bool = False,
    strategies: tuple = ("lock_sync", "thread_sched"),
    default_strategy: str = "lock_sync",
    engines: tuple = ("step", "slice", "block"),
    default_engine: str = "slice",
    default_seed: int = 20030622,
) -> argparse.ArgumentParser:
    """The shared ``--strategy/--transport/--engine/--seed`` block.

    Every subcommand that builds replicated machines (``replicate``,
    ``conform``, ``fleet``) takes its flags from here, so they spell and
    behave identically; ``repeatable`` switches to the append-style
    variants the sweep matrix needs."""
    if repeatable:
        parser.add_argument("--strategy", action="append", default=None,
                            choices=strategies,
                            help="strategies to sweep (repeatable; "
                                 "default all)")
        parser.add_argument("--transport", action="append", default=None,
                            metavar="T",
                            help="'memory', 'socket', or "
                                 "'faulty:<profile>' (repeatable)")
    else:
        parser.add_argument("--strategy", default=default_strategy,
                            choices=strategies)
        parser.add_argument("--transport", default=None, metavar="T",
                            help="'memory' (default), 'socket', or "
                                 "'faulty:<profile>'")
    parser.add_argument("--engine", choices=engines,
                        default=default_engine,
                        help="execution engine: 'step' re-enters per "
                             "bytecode, 'slice' batches to the next "
                             "safe-point event, 'block' additionally "
                             "compiles hot straight-line runs"
                             + (" ('both' sweeps each cell under every "
                                "engine)" if "both" in engines else ""))
    parser.add_argument("--seed", type=int, default=default_seed,
                        help="seed for fault schedules and generated "
                             "traffic")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    registry = compile_program(_load_source(args.file))
    env = Environment()
    result, _ = run_unreplicated(registry, args.main, args.args, env=env)
    sys.stdout.write(env.console.transcript())
    if result.uncaught:
        for vid, cls, message in result.uncaught:
            print(f"uncaught exception in {vid}: {cls}: {message}",
                  file=sys.stderr)
        return 1
    if args.stats:
        print(f"[instructions={result.instructions} "
              f"locks={result.lock_acquisitions} "
              f"reschedules={result.reschedules}]", file=sys.stderr)
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.runtime.jvm import JVMConfig

    registry = compile_program(_load_source(args.file))
    env = Environment()
    machine = ReplicatedJVM(registry, env=env, config=ReplicationConfig(
        strategy=args.strategy, crash_at=args.crash_at,
        hot_backup=args.hot, digest_interval=args.digest_interval,
        transport=transport_from_spec(args.transport, args.seed),
        jvm_config=JVMConfig(engine=args.engine),
    ))
    result = machine.run(args.main, args.args)
    sys.stdout.write(env.console.transcript())
    print(f"[outcome={result.outcome}"
          + (f" crash_event={result.crash_event}"
             f" detection_intervals={result.detection_intervals}"
             if result.failed_over else "")
          + "]", file=sys.stderr)
    metrics = result.primary_metrics
    print(f"[records={metrics.records_logged} "
          f"messages={metrics.messages_sent} bytes={metrics.bytes_sent} "
          f"commits={metrics.output_commits}]", file=sys.stderr)
    if args.digest_interval is not None:
        print(f"[digests={metrics.digest_records} "
              f"digest_bytes={metrics.digest_bytes}]", file=sys.stderr)
    return 0 if result.final_result.ok else 1


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.conform import (
        Config, build_report, get_workload, headline, render_report,
        run_sweep, workload_names, write_report,
    )

    if args.list:
        for name in workload_names():
            workload = get_workload(name)
            print(f"{name:10s} {workload.description}")
        return 0

    mode = ("byzantine" if args.byzantine
            else "chained" if args.chained else "plain")
    transports = args.transport
    if transports is None and not args.quick and mode != "byzantine":
        transports = ["memory", "faulty:flaky", "faulty:lossy"]
    try:
        config = Config(
            workloads=args.workload or (
                ["counter"] if args.quick else list(workload_names())),
            mode=mode,
            seed=args.seed,
            stride=args.stride,
            workers=args.workers,
            shrink=not args.no_shrink,
            strategies=args.strategy,
            transports=transports,
            engines=(["step", "slice", "block"] if args.engine == "both"
                     else [args.engine]),
            digest_interval=args.digest_interval or None,
            depth=args.depth,
            checkpoint_intervals=args.checkpoint_interval and [
                n or None for n in args.checkpoint_interval],
            n_members=args.members,
            variants="step+slice" if args.variants else None,
        )
    except ReproError as err:
        # An option the chosen mode cannot honour is a usage error.
        args.usage_error(str(err))

    def progress(cell) -> None:
        line = " ".join(headline(mode, cell, config.n_members).split())
        print(f"[{line}]", file=sys.stderr)

    report = build_report(config, run_sweep(config, progress=progress))
    if args.json:
        write_report(args.json, report)
    print(render_report(report))
    return 0 if report["ok"] else 1


def _parse_lie_spec(text: str):
    """``digest:EPOCH`` / ``output:ORDINAL`` -> a config ``lie_at``."""
    kind, sep, num = text.partition(":")
    if not sep or kind not in ("digest", "output"):
        raise ReproError(
            f"--lie-spec wants 'digest:EPOCH' or 'output:ORDINAL', "
            f"got {text!r}"
        )
    try:
        return (kind, int(num))
    except ValueError:
        raise ReproError(
            f"--lie-spec target must be an integer, got {text!r}"
        ) from None


def _parse_outage(text: str):
    """``START:END[:DIR]`` -> a :class:`LinkOutage`."""
    from repro.replication.transport import LinkOutage

    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ReproError(
            f"--outage wants 'START:END[:both|fwd|rev]', got {text!r}"
        )
    try:
        start, end = float(parts[0]), float(parts[1])
    except ValueError:
        raise ReproError(
            f"--outage window must be numeric ticks, got {text!r}"
        ) from None
    return LinkOutage(start, end, parts[2] if len(parts) == 3 else "both")


def _parse_member_partition(text: str):
    """``MEMBER:START:END[:UNIT]`` -> a :class:`MemberPartition`."""
    from repro.replication.transport import MemberPartition

    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise ReproError(
            f"--member-partition wants 'MEMBER:START:END[:records|time]', "
            f"got {text!r}"
        )
    try:
        member = int(parts[0])
        start, end = float(parts[1]), float(parts[2])
    except ValueError:
        raise ReproError(
            f"--member-partition fields must be numeric, got {text!r}"
        ) from None
    return MemberPartition(member, start, end,
                           parts[3] if len(parts) == 4 else "records")


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import Fleet, TrafficSpec
    from repro.runtime.jvm import JVMConfig
    from repro.workloads import DB_SERVER

    keyspace = args.keyspace
    if keyspace is None:
        keyspace = int(DB_SERVER.params_for(args.profile)["keyspace"])
    spec = TrafficSpec(n_requests=args.requests, n_clients=args.clients,
                       keyspace=keyspace, seed=args.seed)
    crash_for = None
    if args.crash_shard is not None:
        if args.voting:
            raise ReproError(
                "--crash-shard injects fail-stop, but a voting fleet "
                "convicts on evidence; seed a liar with --lie-shard and "
                "--lie-spec instead"
            )
        if not 0 <= args.crash_shard < args.shards:
            raise ReproError(
                f"--crash-shard {args.crash_shard} out of range for "
                f"{args.shards} shards"
            )
        schedule = {args.crash_generation: args.crash_at}
        crash_for = (lambda s: schedule if s == args.crash_shard else None)

    lie_at = None
    if not args.voting:
        for flag, value in (("--members", args.members != 3),
                            ("--variants", args.variants),
                            ("--lie-shard", args.lie_shard is not None),
                            ("--lie-spec", args.lie_spec is not None)):
            if value:
                raise ReproError(f"{flag} only makes sense with --voting")
    else:
        if args.members < 3 or args.members % 2 == 0:
            raise ReproError(
                f"a voting fleet needs an odd member count of at least "
                f"3 (n = 2f + 1), got {args.members}"
            )
        if (args.lie_spec is None) != (args.lie_shard is None):
            raise ReproError(
                "--lie-shard and --lie-spec come as a pair: the shard "
                "that lies and where it lies"
            )
        if args.lie_spec is not None:
            lie_at = _parse_lie_spec(args.lie_spec)

    transport_for = None
    base_spec = transport_from_spec(args.transport, args.seed)
    if args.outage or args.member_partition:
        if args.chaos_shard is None:
            raise ReproError(
                "--outage/--member-partition describe the chaos "
                "schedule; pick the shard with --chaos-shard"
            )
    if args.chaos_shard is not None:
        from repro.replication.transport import ChaosTransport

        if not 0 <= args.chaos_shard < args.shards:
            raise ReproError(
                f"--chaos-shard {args.chaos_shard} out of range for "
                f"{args.shards} shards"
            )
        chaos = ChaosTransport(
            seed=args.seed,
            outages=tuple(_parse_outage(t) for t in (args.outage or ())),
            member_partitions=tuple(
                _parse_member_partition(t)
                for t in (args.member_partition or ())
            ),
        )
        transport_for = (lambda s: chaos if s == args.chaos_shard
                         else base_spec)

    fleet = Fleet(
        args.shards,
        profile=args.profile,
        config=ReplicationConfig(
            # Voting needs the lockstep strategy (per-epoch digest
            # ballots); the flag is forced rather than surfaced.
            strategy="thread_sched" if args.voting else args.strategy,
            transport=base_spec,
            jvm_config=JVMConfig(engine=args.engine),
            voting=args.voting,
            n_members=args.members,
            variants="step+slice" if args.variants else None,
            lie_at=lie_at,
            lie_member=args.lie_member,
        ),
        crash_schedule_for=crash_for,
        lie_shard=args.lie_shard,
        transport_for=transport_for,
    )
    metrics = fleet.serve(spec)
    report = metrics.as_dict()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"[fleet shards={metrics.n_shards} "
          f"offered={metrics.requests_offered} "
          f"committed={metrics.responses_committed} "
          f"lost={metrics.responses_lost} "
          f"duplicated={metrics.responses_duplicated} "
          f"wrong={metrics.responses_wrong}]", file=sys.stderr)
    print(f"[failovers={metrics.failovers_absorbed} "
          f"requeued={metrics.requests_requeued} "
          f"exactly_once={metrics.exactly_once}]", file=sys.stderr)
    if args.voting:
        print(f"[voting members={args.members} "
              f"votes={metrics.votes_cast} "
              f"certs={metrics.quorum_certs} "
              f"gated={metrics.outputs_gated} "
              f"quarantined={metrics.members_quarantined} "
              f"rearmed={metrics.members_rearmed} "
              f"suspected={metrics.members_suspected} "
              f"cleared={metrics.suspicions_cleared} "
              f"demotions={metrics.engine_demotions}"
              + (f" degraded_to={metrics.degraded_to}"
                 if metrics.degraded_to else "")
              + "]", file=sys.stderr)
    return 0 if metrics.exactly_once else 1


def _cmd_disasm(args: argparse.Namespace) -> int:
    registry = compile_program(_load_source(args.file))
    base = set(new_program_registry().class_names())
    for class_name in registry.class_names():
        if class_name in base:
            continue
        cls = registry.resolve(class_name)
        for (name, arity) in sorted(cls.methods):
            method = cls.methods[(name, arity)]
            label = f"{class_name}.{name}/{arity}"
            if args.method and args.method != label:
                continue
            flags = " ".join(flag for flag, on in (
                ("static", method.is_static),
                ("synchronized", method.is_synchronized),
                ("native", method.is_native),
            ) if on)
            print(f"--- {label} [{flags or 'instance'}] "
                  f"max_locals={method.code.max_locals if method.code else 0} "
                  f"max_stack={method.max_stack}")
            if method.code is not None:
                print(disassemble(method.code))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness.runner import get_all_runs
    from repro.harness.tables import (
        render_fig2, render_fig3, render_fig4, render_table2,
    )

    renderers = {
        "table2": render_table2, "fig2": render_fig2,
        "fig3": render_fig3, "fig4": render_fig4,
    }
    runs = get_all_runs(args.profile)
    wanted = [args.experiment] if args.experiment else list(renderers)
    for name in wanted:
        print(renderers[name](runs))
        print()
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import ALL_WORKLOADS

    for w in ALL_WORKLOADS:
        threads = "multi-threaded" if w.multithreaded else "single-threaded"
        print(f"{w.name:10s} {threads:15s} {w.description}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import io
    import pstats

    from repro.conform.workloads import get_workload, workload_names
    from repro.runtime.jvm import JVMConfig

    target = args.target
    if target in workload_names():
        workload = get_workload(target)
        registry = workload.registry()
        main_class = workload.main_class
        config = workload.jvm_config(engine=args.engine)
    else:
        kernels = {}
        try:
            from benchmarks.bench_interpreter import _KERNEL_SOURCES
            kernels = _KERNEL_SOURCES
        except ImportError:
            pass
        if target in kernels:
            registry = compile_program(kernels[target] % args.reps)
            main_class = "Main"
        else:
            registry = compile_program(_load_source(target))
            main_class = args.main
        config = JVMConfig(engine=args.engine)

    profiler = cProfile.Profile()
    profiler.enable()
    result, _ = run_unreplicated(registry, main_class,
                                 env=Environment(), jvm_config=config)
    profiler.disable()

    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream) \
        .sort_stats(args.sort).print_stats(args.top)
    print(f"[profile target={target} engine={args.engine} "
          f"instructions={result.instructions} ok={result.ok}]",
          file=sys.stderr)
    print(stream.getvalue())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A fault-tolerant mini-JVM (DSN 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a MiniJava program")
    p_run.add_argument("file")
    p_run.add_argument("--main", default="Main")
    p_run.add_argument("--args", nargs="*", default=[])
    p_run.add_argument("--stats", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_rep = sub.add_parser("replicate", help="run with fault tolerance")
    p_rep.add_argument("file")
    p_rep.add_argument("--main", default="Main")
    p_rep.add_argument("--args", nargs="*", default=[])
    add_replication_options(
        p_rep, strategies=("lock_sync", "thread_sched", "lock_intervals"),
    )
    p_rep.add_argument("--crash-at", type=int, default=None)
    p_rep.add_argument("--hot", action="store_true",
                       help="keep the backup updated during normal "
                            "operation (hot standby)")
    p_rep.add_argument("--digest-interval", type=int, default=None,
                       metavar="N",
                       help="emit a state-digest record every N "
                            "replicated scheduling events (plus one at "
                            "exit); the backup verifies them during "
                            "replay")
    p_rep.set_defaults(fn=_cmd_replicate)

    p_dis = sub.add_parser("disasm", help="show compiled bytecode")
    p_dis.add_argument("file")
    p_dis.add_argument("--method", default=None,
                       help="only this method (Class.name/arity)")
    p_dis.set_defaults(fn=_cmd_disasm)

    p_bench = sub.add_parser("bench", help="regenerate paper tables")
    p_bench.add_argument("--profile", default="test",
                         choices=("test", "bench"))
    p_bench.add_argument("--experiment", default=None,
                         choices=("table2", "fig2", "fig3", "fig4"))
    p_bench.set_defaults(fn=_cmd_bench)

    p_wl = sub.add_parser("workloads", help="list benchmark workloads")
    p_wl.set_defaults(fn=_cmd_workloads)

    p_prof = sub.add_parser(
        "profile",
        help="cProfile one unreplicated run and print the hot spots",
    )
    p_prof.add_argument("target",
                        help="a conform workload name, an interpreter "
                             "bench kernel name (tight_loop, call_heavy, "
                             "monitor_heavy), or a MiniJava source file")
    p_prof.add_argument("--main", default="Main",
                        help="main class (source-file targets only)")
    p_prof.add_argument("--engine",
                        choices=("step", "slice", "block"),
                        default="slice")
    p_prof.add_argument("--reps", type=int, default=50_000, metavar="N",
                        help="iteration count for bench-kernel targets")
    p_prof.add_argument("--top", type=int, default=25, metavar="N",
                        help="rows of the stats table to print")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "calls"),
                        help="pstats sort key")
    p_prof.set_defaults(fn=_cmd_profile)

    p_conf = sub.add_parser(
        "conform",
        help="exhaustive crash-point conformance sweep",
    )
    p_conf.add_argument("--workload", action="append", default=None,
                        help="conform workload name (repeatable; "
                             "--list shows them)")
    p_conf.add_argument("--quick", action="store_true",
                        help="small pinned matrix for CI smoke runs "
                             "(counter workload, memory + seeded flaky "
                             "transports)")
    add_replication_options(
        p_conf, repeatable=True, engines=("step", "slice", "block", "both"),
    )
    p_conf.add_argument("--workers", type=int, default=0, metavar="N",
                        help="faults (crash points, lies) checked in N "
                             "parallel processes (0 = inline)")
    p_conf.add_argument("--stride", type=int, default=1, metavar="N",
                        help="check every Nth crash index or artifact "
                             "(failures are shrunk back to the minimal "
                             "point)")
    p_conf.add_argument("--digest-interval", type=int, default=None,
                        metavar="N",
                        help="schedule records per periodic digest "
                             "(default 2; not with --chained)")
    p_conf.add_argument("--no-shrink", action="store_true",
                        help="report the first failing point as-is")
    p_conf.add_argument("--chained", action="store_true",
                        help="sweep chained failovers through the "
                             "replica-group supervisor: crash every "
                             "event index of every generation "
                             "(including mid-checkpoint-transfer) and "
                             "assert exactly-once output and digest "
                             "equality against an unreplicated run")
    p_conf.add_argument("--depth", type=int, default=None, metavar="K",
                        help="generations to sweep in --chained mode "
                             "(default 2)")
    p_conf.add_argument("--checkpoint-interval", action="append",
                        type=int, default=None, metavar="N", dest="checkpoint_interval",
                        help="steady-state checkpoint interval(s) to add "
                             "to the --chained matrix (repeatable; each "
                             "value sweeps the crash indices with delta "
                             "checkpointing every N slices and checks "
                             "that recovery replay stays bounded by the "
                             "retained-log high-water mark; 0 = off)")
    p_conf.add_argument("--byzantine", action="store_true",
                        help="sweep seeded Byzantine corruptions through "
                             "the quorum-voting group: for every digest "
                             "epoch and output the honest group "
                             "certifies, re-run with a lying proposer "
                             "and a bit-flipped follower, asserting the "
                             "liar is outvoted, quarantined, and "
                             "re-armed with outputs byte-identical to "
                             "an unreplicated run")
    p_conf.add_argument("--variants", action="store_true",
                        help="run --byzantine cells under the "
                             "step+slice multi-variant engine guard "
                             "(alarms only on engine-correlated "
                             "divergence)")
    p_conf.add_argument("--members", type=int, default=None, metavar="N",
                        help="voting group size for --byzantine "
                             "(odd, n = 2f+1; default 3)")
    p_conf.add_argument("--json", default=None, metavar="PATH",
                        help="write the machine-readable report here")
    p_conf.add_argument("--list", action="store_true",
                        help="list conform workloads and exit")
    p_conf.set_defaults(fn=_cmd_conform, usage_error=p_conf.error)

    p_fleet = sub.add_parser(
        "fleet",
        help="serve seeded request traffic on a sharded replica fleet",
    )
    p_fleet.add_argument("--shards", type=int, default=3, metavar="N",
                         help="replica groups, one keyspace shard each")
    p_fleet.add_argument("--requests", type=int, default=500, metavar="N")
    p_fleet.add_argument("--clients", type=int, default=8, metavar="N",
                         help="simulated client ids issuing requests")
    p_fleet.add_argument("--keyspace", type=int, default=None, metavar="K",
                         help="traffic keyspace (default: the workload "
                              "profile's)")
    p_fleet.add_argument("--profile", default="test",
                         choices=("test", "bench"))
    p_fleet.add_argument("--crash-shard", type=int, default=None,
                         metavar="S",
                         help="inject a primary fail-stop on shard S "
                              "mid-load")
    p_fleet.add_argument("--crash-at", type=int, default=40, metavar="E",
                         help="crash event index within the generation "
                              "(with --crash-shard)")
    p_fleet.add_argument("--crash-generation", type=int, default=0,
                         metavar="G",
                         help="generation to crash (with --crash-shard)")
    p_fleet.add_argument("--voting", action="store_true",
                         help="run every shard as an n-member quorum-"
                              "voting group (Byzantine fault model) "
                              "instead of a primary-backup pair")
    p_fleet.add_argument("--members", type=int, default=3, metavar="N",
                         help="voting group size per shard (odd, "
                              "n = 2f+1; with --voting; default 3)")
    p_fleet.add_argument("--variants", action="store_true",
                         help="arm the step+slice multi-variant engine "
                              "guard on every voting shard (a confirmed "
                              "engine-correlated divergence demotes the "
                              "whole fleet to the step engine)")
    p_fleet.add_argument("--lie-shard", type=int, default=None,
                         metavar="S",
                         help="seed one Byzantine liar on shard S "
                              "(with --voting and --lie-spec)")
    p_fleet.add_argument("--lie-spec", default=None, metavar="KIND:N",
                         help="where the liar lies: 'digest:EPOCH' or "
                              "'output:ORDINAL' (serving traffic is "
                              "single-threaded, so only output lies "
                              "fire under load)")
    p_fleet.add_argument("--lie-member", type=int, default=0, metavar="M",
                         help="which member of the lying shard lies "
                              "(0 = the proposer; default 0)")
    p_fleet.add_argument("--chaos-shard", type=int, default=None,
                         metavar="S",
                         help="run shard S on a seeded ChaosTransport "
                              "carrying the --outage/--member-partition "
                              "schedule")
    p_fleet.add_argument("--outage", action="append", default=None,
                         metavar="START:END[:DIR]",
                         help="cut the chaos shard's link over a "
                              "virtual-time window; DIR is 'both' "
                              "(default), 'fwd', or the asymmetric "
                              "'rev' (repeatable)")
    p_fleet.add_argument("--member-partition", action="append",
                         default=None, metavar="M:START:END[:UNIT]",
                         help="partition member M of the chaos shard "
                              "from the delivered log; UNIT is "
                              "'records' (default) or 'time' "
                              "(repeatable)")
    p_fleet.add_argument("--json", default=None, metavar="PATH",
                         help="write the fleet metrics report here")
    add_replication_options(p_fleet)
    p_fleet.set_defaults(fn=_cmd_fleet)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
