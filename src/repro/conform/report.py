"""Machine-readable conformance report.

One envelope for the three sweep modes (version 1); key *order* is part
of the format, because reports are dumped unsorted and pinned by sha256
(``tests/conform/test_golden_reports.py``)::

    {"version": 1,
     "tool": "repro conform" [+ " --chained" | " --byzantine"],
     "config": {...}, "cells": [{...}, ...], "totals": {...},
     "ok": bool}

**plain** — one cell per workload × strategy × transport × engine::

    config: workloads, strategies, transports, engines, seed,
            digest_interval, stride
    cell:   workload, strategy, transport,
            engine,           # execution engine of the crash runs
            total_events,     # crash indices in the failure-free run
            crash_points,     # indices actually swept
            failures, ok
    totals: cells, crash_points, failures

**chained** — one cell per workload × strategy × transport × engine ×
checkpoint interval, one layer per swept generation::

    config: workloads, strategies, transports, engines, depth, seed,
            stride, chunk_bytes, batch_records, checkpoint_intervals
    cell:   workload, strategy, transport, engine, checkpoint_interval,
            depth, crash_points, layers,
            errors,           # failure entries of pilots that died
            ok
    layer:  generation,
            pinned,           # crash points of the generations before
            total_events,
            transfer_events,  # events inside the checkpoint transfer
                              # (chunks + the commit): crash indices
                              # <= this are mid-transfer kills
            crash_points,
            records_fenced,   # of one torn-transfer run: proof the
                              # deposed primary's records were
                              # discarded, not adopted
            steady_checkpoints,  # adopted by the pilot's generation (0
                              # with checkpointing off): proof the
                              # indices include mid-delta kills
            failures, ok
    totals: cells, crash_points, failures, records_fenced,
            steady_checkpoints

**byzantine** — one cell per workload, one seeded lie per (artifact,
lying-member role)::

    config: workloads, n_members, seed, digest_interval, stride, engine,
            variants, follower_member
    cell:   workload, engine, variants,
            digest_epochs, output_ordinals,   # artifacts lied about
            cells,                            # lies swept
            failures, ok
    totals: cells, corruption_points, failures

A **failure entry** starts with its fault's coordinates — ``crash_at``
(plain); ``crash_schedule``, ``crash_at`` (chained); ``lie``,
``lie_member``, ``extra_lies``, ``role`` (byzantine) — then::

    "kind":   "error"             # the run raised a ReproError
            | "divergence"        # state digest != the reference's
            | "output_mismatch"   # uncaught / console / files differ
            | "no_failover"       # a scheduled crash never fired
            | "log_prefix"        # plain: delivered log not a prefix
            | "unbounded_replay"  # chained: recovery replayed past the
                                  #   retained log, or never truncated
            | "lie_not_injected"  # byzantine: an armed lie never fired
            | "wrong_conviction"  # byzantine: not exactly the liars
            | "false_positive"    # byzantine: honest run quarantined
            | "false_alarm"       # byzantine: the variant guard blamed
                                  #   an innocent, or an honest run
            | "no_deposition",    # byzantine: lying proposer kept era 0
    "detail": str,
    "components": [str, ...],     # divergence only
    "epoch": int,                 # divergence raised during replay
    "shrunk_from": ...            # when the shrinker reduced it: the
                                  #   leading coordinate it came from

The tier-2 pytest wrapper (``tests/conform``) and CI consume this
structure.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.conform.sweep import (
    CHAIN_BATCH_RECORDS, CHAIN_CHUNK_BYTES, FOLLOWER_MEMBER, Config,
)

REPORT_VERSION = 1

TOOLS = {
    "plain": "repro conform",
    "chained": "repro conform --chained",
    "byzantine": "repro conform --byzantine",
}
#: mode -> the keys of the report's ``config``, in their pinned order.
_CONFIG_KEYS = {
    "plain": ("workloads", "strategies", "transports", "engines", "seed",
              "digest_interval", "stride"),
    "chained": ("workloads", "strategies", "transports", "engines",
                "depth", "seed", "stride", "chunk_bytes", "batch_records",
                "checkpoint_intervals"),
    "byzantine": ("workloads", "n_members", "seed", "digest_interval",
                  "stride", "engine", "variants", "follower_member"),
}


def cell_failures(cell: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every failure entry of one cell, whichever mode shaped it."""
    entries = cell.get("errors", []) + cell.get("failures", [])
    for layer in cell.get("layers", []):
        entries = entries + layer["failures"]
    return entries


def build_report(config: Config,
                 cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    # What a report describes beyond the Config's own fields: the
    # sweep's fixed parameters, and the byzantine sweep's one engine.
    fixed = {"chunk_bytes": CHAIN_CHUNK_BYTES,
             "batch_records": CHAIN_BATCH_RECORDS,
             "follower_member": FOLLOWER_MEMBER,
             "engine": config.engines[0]}
    swept, per_cell = (("corruption_points", "cells")
                       if config.mode == "byzantine"
                       else ("crash_points", "crash_points"))
    totals = {
        "cells": len(cells),
        swept: sum(cell[per_cell] for cell in cells),
        "failures": sum(len(cell_failures(cell)) for cell in cells),
    }
    if config.mode == "chained":
        for key in ("records_fenced", "steady_checkpoints"):
            totals[key] = sum(layer[key] for cell in cells
                              for layer in cell["layers"])
    return {
        "version": REPORT_VERSION,
        "tool": TOOLS[config.mode],
        "config": {key: fixed[key] if key in fixed else getattr(config, key)
                   for key in _CONFIG_KEYS[config.mode]},
        "cells": cells,
        "totals": totals,
        "ok": all(cell["ok"] for cell in cells),
    }


def write_report(path: str, report: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


# ======================================================================
# Human-readable rendering: one headline per cell, its failures, and a
# verdict line — in the three text formats the modes need
# ======================================================================
def headline(mode: str, cell: Dict[str, Any], n_members=None) -> str:
    """One cell on one line (also the CLI's progress narration)."""
    status = ("ok" if cell["ok"]
              else f"{len(cell_failures(cell))} FAILURES")
    if mode == "byzantine":
        return (
            f"{cell['workload']:8s} n={n_members} {cell['engine']:5s} "
            f"variants={cell['variants'] or 'off':10s} "
            f"{cell['cells']:3d} lies "
            f"({cell['digest_epochs']} digest epochs, "
            f"{cell['output_ordinals']} outputs)  {status}"
        )
    prefix = (f"{cell['workload']:8s} {cell['strategy']:12s} "
              f"{cell['transport']:14s} {cell['engine']:5s} ")
    if mode == "chained":
        interval = cell["checkpoint_interval"]
        return (
            f"{prefix}ckpt={'off' if interval is None else interval:<4} "
            f"depth={cell['depth']} "
            f"{cell['crash_points']:4d} crash points  {status}"
        )
    return (f"{prefix}{cell['crash_points']:4d}/{cell['total_events']:<4d} "
            f"crash points  {status}")


def _render_failure(entry: Dict[str, Any]) -> str:
    """``coordinate=value ... kind: detail`` — one schema, one format."""
    where = " ".join(f"{key}={value}" for key, value in entry.items()
                     if key not in ("kind", "detail"))
    return f"{where} {entry['kind']}: {entry['detail']}"


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a report dict (any mode)."""
    mode = {tool: mode for mode, tool in TOOLS.items()}[report["tool"]]
    lines = []
    for cell in report["cells"]:
        lines.append(headline(mode, cell,
                              report["config"].get("n_members")))
        for layer in cell.get("layers", []):
            lines.append(
                f"    gen {layer['generation']}: "
                f"{layer['crash_points']}/{layer['total_events']} indices "
                f"(transfer={layer['transfer_events']}, "
                f"pinned={layer['pinned']}, "
                f"fenced={layer['records_fenced']}, "
                f"steady={layer['steady_checkpoints']})"
            )
            lines += [f"        {_render_failure(entry)}"
                      for entry in layer["failures"]]
        lines += [f"    {_render_failure(entry)}" for entry in
                  cell.get("failures", []) + cell.get("errors", [])]
    totals = report["totals"]
    swept = {
        "plain": "{crash_points} crash points",
        "chained": "{crash_points} chained crash points",
        "byzantine": "{corruption_points} seeded lies",
    }[mode].format(**totals)
    line = (f"{'PASS' if report['ok'] else 'FAIL'}: {swept} across "
            f"{totals['cells']} cells, {totals['failures']} failure(s)")
    if mode == "chained":
        line += f", {totals['records_fenced']} stale record(s) fenced"
    lines.append(line)
    return "\n".join(lines)
