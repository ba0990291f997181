"""Property-based replication testing.

Hypothesis generates small *race-free* multi-threaded MiniJava programs
(random worker counts, loop lengths, synchronized operations on shared
cells, yields, clock reads, console output).  For every generated
program and every strategy, the backup must replay the full log to a
bit-identical state digest with no duplicated output — the paper's core
guarantee, explored over program space rather than hand-picked cases.
"""

from hypothesis import given, settings, strategies as st

from repro.env.environment import Environment
from repro.minijava import compile_program
from repro.replication.config import ReplicationConfig
from repro.replication.machine import ReplicatedJVM


@st.composite
def racefree_programs(draw):
    n_workers = draw(st.integers(1, 3))
    n_cells = draw(st.integers(1, 2))
    iters = draw(st.integers(5, 40))
    op = draw(st.sampled_from(["add", "mix", "max"]))
    use_yield = draw(st.booleans())
    read_clock = draw(st.booleans())

    body = {
        "add": "c.apply(i, 1);",
        "mix": "c.apply(i * 17, 3);",
        "max": "c.apply(i, i % 7);",
    }[op]
    maybe_yield = "if (i % 9 == 0) { Thread.yield(); }" if use_yield else ""
    clock_stmt = ("int t = System.currentTimeMillis(); "
                  "if (t < 0) { System.println(\"impossible\"); }"
                  if read_clock else "")

    cells_decl = "\n".join(
        f"        Cell c{i} = new Cell();" for i in range(n_cells)
    )
    workers = "\n".join(
        f"        Worker w{i} = new Worker(c{i % n_cells}, {iters + i});\n"
        f"        w{i}.start();"
        for i in range(n_workers)
    )
    joins = "\n".join(f"        w{i}.join();" for i in range(n_workers))
    prints = "\n".join(
        f"        System.println(\"cell{i}=\" + c{i}.value());"
        for i in range(n_cells)
    )

    return f"""
class Cell {{
    int state;
    synchronized void apply(int a, int b) {{
        state = (state * 31 + a + b) % 1000003;
    }}
    synchronized int value() {{ return state; }}
}}
class Worker extends Thread {{
    Cell c; int n;
    Worker(Cell c, int n) {{ this.c = c; this.n = n; }}
    void run() {{
        {clock_stmt}
        for (int i = 0; i < n; i++) {{
            {body}
            {maybe_yield}
        }}
    }}
}}
class Main {{
    static void main(String[] args) {{
{cells_decl}
{workers}
{joins}
{prints}
    }}
}}
"""


@settings(max_examples=12, deadline=None)
@given(racefree_programs(), st.sampled_from(
    ["lock_sync", "thread_sched", "lock_intervals"]
))
def test_random_racefree_program_replays_identically(source, strategy):
    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(strategy=strategy))
    result = machine.run("Main")
    assert result.final_result.ok, result.final_result.uncaught
    primary_digest = machine.primary_jvm.state_digest()
    transcript = env.console.transcript()

    replay = machine.replay_backup("Main")
    assert replay.ok, replay.uncaught
    assert machine.backup_jvm.state_digest() == primary_digest
    assert env.console.transcript() == transcript  # nothing re-emitted


@settings(max_examples=8, deadline=None)
@given(racefree_programs(),
       st.sampled_from(["lock_sync", "thread_sched", "lock_intervals"]),
       st.integers(1, 1_000_000))
def test_random_program_failover_is_consistent(source, strategy, crash_seed):
    """Crash at a pseudo-random event; the failover run must complete
    cleanly and print each cell line exactly once."""
    registry = compile_program(source)
    probe = ReplicatedJVM(registry, env=Environment(),
                          config=ReplicationConfig(strategy=strategy))
    probe_result = probe.run("Main")
    assert probe_result.final_result.ok
    events = probe.shipper.injector.events
    if events == 0:
        return
    crash_at = crash_seed % events + 1

    env = Environment()
    machine = ReplicatedJVM(compile_program(source), env=env,
                            config=ReplicationConfig(
                                strategy=strategy,
                                crash_at=crash_at))
    result = machine.run("Main")
    assert result.final_result.ok, (crash_at, result.final_result.uncaught)
    lines = env.console.lines()
    cell_lines = [l for l in lines if l.startswith("cell")]
    # each cell printed exactly once (exactly-once output)
    names = [l.split("=")[0] for l in cell_lines]
    assert len(names) == len(set(names))
    assert names == sorted(names)
