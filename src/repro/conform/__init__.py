"""Exhaustive fault-point conformance harness.

``python -m repro conform`` injects a fault at *every* point one can
land, for a workload × strategy × transport × engine matrix, asserting
at each point that the replicas kept the paper's guarantees:

* **digest equality** — the finishing machine's recomputed state digest
  matches a failure-free serial reference run (and every periodic
  :class:`~repro.replication.digest.DigestRecord` verified during
  replay);
* **output-commit safety** — console and file outputs are exactly the
  reference outputs: nothing lost, nothing duplicated;
* the mode's own obligations — the **log prefix property** for a
  crashed pair, bounded recovery replay for a chain of crashes,
  conviction of exactly the liars for a voting group.

There is one harness.  A cell is (config, fault schedule, reference,
checks) — :mod:`repro.conform.cell` — and the plain, ``--chained`` and
``--byzantine`` sweeps are three fault schedules fed to one sweep loop
over one matrix — :mod:`repro.conform.sweep`.  The JSON report schema
and the full list of failure kinds are in :mod:`repro.conform.report`.
"""

from repro.conform.cell import (
    REPLAY_SLACK,
    CellSpec,
    Crash,
    CrashChain,
    Lie,
    Reference,
    check,
    execute,
    failure,
    judge,
    reference_run,
)
from repro.conform.report import (
    build_report,
    headline,
    render_report,
    write_report,
)
from repro.conform.sweep import (
    Config,
    run_sweep,
    shrink_failure,
    sweep_byzantine,
    sweep_chained,
    sweep_plain,
)
from repro.conform.workloads import (
    ConformWorkload,
    get_workload,
    workload_names,
)

__all__ = [
    "ConformWorkload", "get_workload", "workload_names",
    "CellSpec", "Crash", "CrashChain", "Lie", "Reference", "reference_run",
    "REPLAY_SLACK", "failure", "execute", "judge", "check",
    "Config", "shrink_failure",
    "sweep_plain", "sweep_chained", "sweep_byzantine", "run_sweep",
    "build_report", "headline", "render_report", "write_report",
]
