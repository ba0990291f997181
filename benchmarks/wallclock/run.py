"""Wall-clock benchmark of the replicated JVM.  See README.md.

    python3 benchmarks/wallclock/run.py                  # all six workloads
    python3 benchmarks/wallclock/run.py --workload serve_steady --seed 7
    python3 benchmarks/wallclock/run.py --trace --out BENCH_wallclock.json
    python3 benchmarks/wallclock/run.py --smoke
    python3 benchmarks/wallclock/run.py --check-repeat

With ``--workload`` this process *is* the measurement: it builds the
inputs from ``--seed``, measures for ``--seconds``, checks every
output, prints every metric by name with its unit, and ends with one
JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).
Without it, each workload runs in a fresh subprocess of its own (clean
caches, its own ``ru_maxrss``), one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import driver
from spec import (
    BY_NAME,
    DEFAULT_SEED,
    END_TO_END,
    RUN_SECONDS,
    WORKLOADS,
    ServeSpec,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: The smoke run does a twentieth of a round, once.
SMOKE_SHARE = 0.05


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, one round")
    parser.add_argument("--out", help="write the results as JSON")
    parser.add_argument("--spans-out",
                        help="write the traced run's spans as JSON "
                             "(default: beside --out)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run the suite twice; fail when a gated "
                             "metric moves by more than its bound")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with driver.Calibrator() as calibrator:
        # Importing the program is the first part of set-up; like every
        # other time it is reported at reference speed.
        begun = time.perf_counter()
        import batch
        import report
        import serving
        ended = time.perf_counter()
        import_s = (ended - begun) / calibrator.slowdown(begun, ended)

        spec = BY_NAME[args.workload]
        seconds = args.seconds
        if args.smoke:
            spec, seconds = spec.scaled(SMOKE_SHARE), 0.0
        module = serving if isinstance(spec, ServeSpec) else batch
        if args.trace:
            spans_out = args.spans_out
            if spans_out is None and args.out:
                spans_out = os.path.splitext(args.out)[0] + ".spans.json"
            result = module.trace(spec, args.seed, calibrator, spans_out)
        else:
            result = module.measure(spec, args.seed, seconds, import_s,
                                    calibrator)

    print(report.render(result))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(result), fh, indent=2)
    print(report.contract_line(result))
    return 0 if result.correct else 1


# ----------------------------------------------------------------------
# The suite: one subprocess per workload
# ----------------------------------------------------------------------
def _child(workload: str, args: argparse.Namespace, trace: int) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--spans-out", os.path.splitext(args.out)[0]
                    + f".{workload}.spans.json"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} failed (exit {done.returncode}): "
                         f"{lines[-1]}")
    return json.loads(lines[-1])


def run_suite(args: argparse.Namespace) -> dict:
    results = {}
    for spec in WORKLOADS:
        entry = {"end_to_end": _child(spec.name, args, 0)}
        if args.trace:
            entry["per_layer"] = _child(spec.name, args, 1)
        results[spec.name] = entry
    return results


def _moved(first: dict, second: dict) -> list:
    """Gated metrics that differ between two suite runs by more than
    their own bound."""
    moved = []
    for workload in first:
        a = first[workload]["end_to_end"]["metrics"]
        b = second[workload]["end_to_end"]["metrics"]
        for metric in END_TO_END:
            x, y = a[metric.name]["value"], b[metric.name]["value"]
            change = abs(y - x) / x
            if change > metric.bound:
                moved.append(f"{workload} {metric.name}: {x:.6g} -> "
                             f"{y:.6g} {metric.unit} ({change:+.1%}, "
                             f"bound {metric.bound:.0%})")
    return moved


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload:
        return run_workload(args)
    results = run_suite(args)
    if args.check_repeat:
        moved = _moved(results, run_suite(args))
        for line in moved:
            print("MOVED:", line)
        if moved:
            return 1
        print("repeat check: every gated metric within its bound")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seed": args.seed, "workloads": results}, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
