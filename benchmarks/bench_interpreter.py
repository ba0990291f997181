"""Execution-engine microbenchmarks: single-step vs the fast paths.

Three kernels stress the things the fast paths optimize:

* ``tight_loop`` — straight-line arithmetic in a hot loop: pre-decoded
  operand streams, run-until-event batching (almost every bytecode is
  a plain op, so batches are long), and — under ``block`` — the
  superinstruction compiler, which turns the loop body into one
  generated Python function per basic block;
* ``call_heavy`` — virtual + static invocations in a loop: the inline
  caches for method resolution (every call is a safe-point event, so
  batches are short and dispatch overhead dominates);
* ``monitor_heavy`` — synchronized method churn: monitor ops are
  always safe-point events, bounding what batching can win (and under
  ``lock_sync`` each acquisition also logs a record).

Each kernel runs under all three engines in three replication modes
(unreplicated baseline, ``lock_sync`` primary, ``thread_sched``
primary).  Every cell asserts all engines produce the *same* final
state digest and instruction count — the microbenchmark doubles as an
equivalence check — and reports wall-clock bytecodes/second plus the
slice/step and block/step speedups.

Usable two ways:

* as a script (CI's perf-smoke job)::

      PYTHONPATH=src python benchmarks/bench_interpreter.py \
          --json BENCH_interpreter.json --min-speedup 2.0 \
          --min-block-speedup 6.0

  exits non-zero when the unreplicated tight-loop speedups fall below
  the floors;

* under pytest (``pytest benchmarks/bench_interpreter.py``), honoring
  ``REPRO_BENCH_PROFILE=test`` for a fast smoke pass and writing both
  the rendered table and ``BENCH_interpreter.json`` to
  ``benchmarks/results/``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

ENGINES = ("step", "slice", "block")
MODES = ("unreplicated", "lock_sync", "thread_sched")

#: Loop trip counts per profile; the test profile only proves the
#: plumbing, the bench profile produces the numbers in README.md.
_REPS = {
    "test": {"tight_loop": 4_000, "call_heavy": 1_500,
             "monitor_heavy": 400},
    "bench": {"tight_loop": 300_000, "call_heavy": 60_000,
              "monitor_heavy": 8_000},
}

_KERNEL_SOURCES = {
    "tight_loop": """
class Main {
    static void main() {
        int i = 0;
        int acc = 0;
        while (i < %d) {
            acc = acc + i * 3 - (acc / 7);
            i = i + 1;
        }
        System.println("" + acc);
    }
}
""",
    "call_heavy": """
class Calc {
    int bias;
    Calc(int b) { this.bias = b; }
    int mix(int x) { return x + this.bias; }
    static int twist(int x) { return x - (x / 2); }
}
class Main {
    static void main() {
        Calc c = new Calc(7);
        int i = 0;
        int acc = 0;
        while (i < %d) {
            acc = Calc.twist(c.mix(acc) + i);
            i = i + 1;
        }
        System.println("" + acc);
    }
}
""",
    "monitor_heavy": """
class Box {
    int value;
    synchronized void add(int d) { this.value = this.value + d; }
    synchronized int get() { return this.value; }
}
class Main {
    static void main() {
        Box b = new Box();
        int i = 0;
        while (i < %d) {
            b.add(i);
            i = i + 1;
        }
        System.println("" + b.get());
    }
}
""",
}


def _compile(kernel, reps):
    from repro.minijava import compile_program
    return compile_program(_KERNEL_SOURCES[kernel] % reps)


def _run_cell(registry, engine, mode):
    """One (kernel, engine, mode) measurement."""
    from repro.env.environment import Environment
    from repro.replication.config import ReplicationConfig
    from repro.replication.machine import ReplicatedJVM, run_unreplicated
    from repro.runtime.jvm import JVMConfig

    config = JVMConfig(engine=engine)
    start = time.perf_counter()
    if mode == "unreplicated":
        result, jvm = run_unreplicated(
            registry, "Main", env=Environment(), jvm_config=config,
        )
        elapsed = time.perf_counter() - start
        if not result.ok:
            raise RuntimeError(
                f"kernel failed under {engine}/{mode}: {result.uncaught}"
            )
        instructions = result.instructions
        digest = jvm.state_digest()
    else:
        machine = ReplicatedJVM(registry, env=Environment(),
                                config=ReplicationConfig(
                                    strategy=mode,
                                    jvm_config=config))
        result = machine.run("Main")
        elapsed = time.perf_counter() - start
        if result.outcome != "primary_completed":
            raise RuntimeError(
                f"kernel failed under {engine}/{mode}: {result.outcome}"
            )
        instructions = machine.primary_metrics.instructions
        digest = machine.primary_jvm.state_digest()
    return {
        "instructions": instructions,
        "seconds": round(elapsed, 4),
        "instr_per_sec": round(instructions / elapsed) if elapsed else 0,
        "digest": digest[:16],
    }


def run_suite(profile="bench"):
    """Full kernel x mode x engine matrix as a JSON-ready report dict.

    Raises if any cell's two engines disagree on the final state
    digest or the instruction count — performance claims about a
    fast path that computes something else are worthless.
    """
    reps = _REPS[profile]
    kernels = {}
    for kernel in _KERNEL_SOURCES:
        registry = _compile(kernel, reps[kernel])
        modes = {}
        for mode in MODES:
            cell = {}
            for engine in ENGINES:
                cell[engine] = _run_cell(registry, engine, mode)
            for engine in ENGINES[1:]:
                if cell["step"]["digest"] != cell[engine]["digest"]:
                    raise AssertionError(
                        f"{kernel}/{mode}: engines diverged "
                        f"({cell['step']['digest']} != "
                        f"{cell[engine]['digest']} under {engine})"
                    )
                if (cell["step"]["instructions"]
                        != cell[engine]["instructions"]):
                    raise AssertionError(
                        f"{kernel}/{mode}: instruction counts differ "
                        f"({cell['step']['instructions']} != "
                        f"{cell[engine]['instructions']} under {engine})"
                    )
            step_rate = cell["step"]["instr_per_sec"]
            cell["speedup"] = (
                round(cell["slice"]["instr_per_sec"] / step_rate, 2)
                if step_rate else 0.0
            )
            cell["block_speedup"] = (
                round(cell["block"]["instr_per_sec"] / step_rate, 2)
                if step_rate else 0.0
            )
            modes[mode] = cell
        kernels[kernel] = {"reps": reps[kernel], "modes": modes}
    return {
        "profile": profile,
        "engines": list(ENGINES),
        "kernels": kernels,
        "tight_loop_speedup":
            kernels["tight_loop"]["modes"]["unreplicated"]["speedup"],
        "tight_loop_block_speedup":
            kernels["tight_loop"]["modes"]["unreplicated"]["block_speedup"],
    }


def render(report):
    from repro.harness.tables import render_table
    rows = []
    for kernel, entry in report["kernels"].items():
        for mode, cell in entry["modes"].items():
            rows.append([
                kernel, mode, cell["step"]["instructions"],
                f"{cell['step']['instr_per_sec'] / 1e6:.3f}",
                f"{cell['slice']['instr_per_sec'] / 1e6:.3f}",
                f"{cell['block']['instr_per_sec'] / 1e6:.3f}",
                f"{cell['speedup']:.2f}x",
                f"{cell['block_speedup']:.2f}x",
            ])
    return render_table(
        f"Execution engines, wall-clock Mbytecodes/s "
        f"(profile={report['profile']})",
        ["Kernel", "Mode", "Instructions", "step", "slice", "block",
         "slice/step", "block/step"],
        rows,
    )


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_engine_microbench(bench_profile, save_result):
    report = run_suite(bench_profile)
    save_result("interpreter_engines", render(report))
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    with open(os.path.join(results_dir, "BENCH_interpreter.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for entry in report["kernels"].values():
        for cell in entry["modes"].values():
            assert cell["speedup"] > 0
            assert cell["block_speedup"] > 0
    if bench_profile == "bench":
        # The batched loop must beat single-step decisively where
        # batches are long, and the compiled blocks must beat batching
        # decisively on top; noisy short runs only check the plumbing.
        assert report["tight_loop_speedup"] >= 2.0
        assert report["tight_loop_block_speedup"] >= 6.0


# ----------------------------------------------------------------------
# script entry point (CI perf smoke)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default=os.environ.get(
        "REPRO_BENCH_PROFILE", "bench"), choices=sorted(_REPS))
    parser.add_argument("--json", default="BENCH_interpreter.json",
                        metavar="PATH",
                        help="write the report here")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        metavar="X",
                        help="fail when the unreplicated tight-loop "
                             "slice/step speedup is below X")
    parser.add_argument("--min-block-speedup", type=float, default=0.0,
                        metavar="X",
                        help="fail when the unreplicated tight-loop "
                             "block/step speedup is below X")
    args = parser.parse_args(argv)

    report = run_suite(args.profile)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(render(report))
    speedup = report["tight_loop_speedup"]
    block_speedup = report["tight_loop_block_speedup"]
    print(f"tight-loop speedup: slice {speedup:.2f}x "
          f"(floor {args.min_speedup:.2f}x), "
          f"block {block_speedup:.2f}x "
          f"(floor {args.min_block_speedup:.2f}x)")
    if speedup < args.min_speedup or block_speedup < args.min_block_speedup:
        print("FAIL: fast path below the speedup floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
