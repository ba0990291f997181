"""Voting-overhead benchmark: quorum replication (n = 2f+1) vs the
paper's 1:1 primary/backup pair.

The paper's protocol tolerates crash faults with one hot backup; the
quorum-voting extension tolerates f lying members with 2f+1 replicas,
at the price of ballot traffic (one vote per member per digest epoch
and per output) and a certificate check at every output commit.  This
benchmark prices that difference with the shared cost model:

* **pair** — 1:1 ReplicatedJVM, thread_sched, periodic digests: the
  baseline primary-side simulated time;
* **voting** — a 3-member VotingGroup at the same strategy, digest
  interval, and batch size: the era-0 proposer's simulated time plus
  the group's ``voting_component`` (ballots, tally, output gating).

Both runs must stay byte-identical to an unreplicated serial
reference — an overhead number for a run that lost outputs would be
meaningless.

Usable two ways:

* as a script (CI's byzantine-smoke job)::

      PYTHONPATH=src python benchmarks/bench_voting.py \
          --profile test --json BENCH_voting.json

  exits non-zero when any run loses output equivalence or the vote
  traffic is not priced;

* under pytest (``pytest benchmarks/bench_voting.py``), honoring
  ``REPRO_BENCH_PROFILE=test`` and writing both the rendered table and
  ``BENCH_voting.json`` to ``benchmarks/results/``.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

_SWEEP = {
    "test": {"workloads": ("counter",), "n_members": 3},
    "bench": {"workloads": ("counter", "fileio", "hello"), "n_members": 3},
}

_DIGEST_INTERVAL = 2
_BATCH_RECORDS = 1

#: The voting proposer must not cost more than this multiple of the
#: 1:1 pair's primary: ballots are small records, not checkpoints.
_OVERHEAD_CEILING = 3.0


def _reference(workload):
    from repro.env.environment import Environment
    from repro.replication.machine import run_unreplicated
    from repro.replication.supervisor import default_generation_settings

    env = Environment()
    result, _jvm = run_unreplicated(
        workload.registry(), workload.main_class, env=env,
        settings=default_generation_settings(0),
    )
    assert result.ok
    return env.snapshot_stable()


def _run_pair(workload, cost):
    from repro.env.environment import Environment
    from repro.replication.config import ReplicationConfig
    from repro.replication.machine import ReplicatedJVM

    env = Environment()
    machine = ReplicatedJVM(
        workload.registry(), env=env,
        config=ReplicationConfig(
            strategy="thread_sched",
            digest_interval=_DIGEST_INTERVAL,
            batch_records=_BATCH_RECORDS,
        ),
    )
    result = machine.run(workload.main_class)
    assert result.outcome == "primary_completed", result.outcome
    pm = machine.primary_metrics
    return {
        "stable": env.snapshot_stable(),
        "units": cost.primary_time(pm, "thread_sched"),
        "messages": pm.messages_sent,
        "bytes": pm.bytes_sent,
    }


def _run_voting(workload, n_members, cost):
    from repro.env.environment import Environment
    from repro.replication.config import ReplicationConfig
    from repro.replication.voting import VotingGroup

    env = Environment()
    group = VotingGroup(
        workload.registry(), env=env,
        config=ReplicationConfig(
            voting=True, n_members=n_members, strategy="thread_sched",
            digest_interval=_DIGEST_INTERVAL,
            batch_records=_BATCH_RECORDS,
        ),
    )
    result = group.run(workload.main_class)
    assert result.outcome == "completed", result.outcome
    pm = result.reports[0].primary_metrics
    gm = result.metrics
    # The proposer's own counters carry no ballot traffic (the tally is
    # group-owned), so the two components never double-count.
    voting_units = cost.voting_component(gm)
    return {
        "stable": env.snapshot_stable(),
        "units": cost.primary_time(pm, "thread_sched") + voting_units,
        "voting_units": voting_units,
        "votes_cast": gm.votes_cast,
        "vote_bytes": gm.vote_bytes,
        "quorum_certs": gm.quorum_certs,
        "outputs_gated": gm.outputs_gated,
    }


def _run_cell(name, n_members, cost):
    from repro.conform.workloads import get_workload

    workload = get_workload(name)
    reference = _reference(workload)
    pair = _run_pair(workload, cost)
    voting = _run_voting(workload, n_members, cost)
    return {
        "workload": name,
        "n_members": n_members,
        "pair_units": round(pair["units"], 1),
        "voting_units_total": round(voting["units"], 1),
        "voting_component": round(voting["voting_units"], 1),
        "votes_cast": voting["votes_cast"],
        "vote_bytes": voting["vote_bytes"],
        "quorum_certs": voting["quorum_certs"],
        "outputs_gated": voting["outputs_gated"],
        "overhead_ratio": round(voting["units"] / pair["units"], 4),
        "pair_output_ok": pair["stable"] == reference,
        "voting_output_ok": voting["stable"] == reference,
    }


def run_suite(profile="bench"):
    from repro.harness.costs import DEFAULT_COST_MODEL

    shape = _SWEEP[profile]
    cells = []
    start = time.perf_counter()
    for name in shape["workloads"]:
        cells.append(_run_cell(name, shape["n_members"],
                               DEFAULT_COST_MODEL))
    return {
        "profile": profile,
        "n_members": shape["n_members"],
        "digest_interval": _DIGEST_INTERVAL,
        "batch_records": _BATCH_RECORDS,
        "overhead_ceiling": _OVERHEAD_CEILING,
        "cells": cells,
        "wall_seconds": round(time.perf_counter() - start, 3),
    }


def render(report):
    from repro.harness.tables import render_table
    rows = []
    for cell in report["cells"]:
        rows.append([
            cell["workload"],
            f"{cell['pair_units']:,.0f}",
            f"{cell['voting_units_total']:,.0f}",
            f"{cell['voting_component']:,.0f}",
            cell["votes_cast"],
            cell["quorum_certs"],
            cell["outputs_gated"],
            f"{cell['overhead_ratio']:.2f}x",
            "yes" if cell["pair_output_ok"] and cell["voting_output_ok"]
            else "NO",
        ])
    return render_table(
        f"Quorum voting (n={report['n_members']}) vs 1:1 pair "
        f"(thread_sched, digest_interval={report['digest_interval']}, "
        f"profile={report['profile']})",
        ["Workload", "Pair units", "Voting units", "Ballot units",
         "Votes", "Certs", "Gated", "Overhead", "Output ok"],
        rows,
    )


def _violations(report):
    bad = []
    for cell in report["cells"]:
        name = cell["workload"]
        if not cell["pair_output_ok"]:
            bad.append(f"{name}: pair output diverged from reference")
        if not cell["voting_output_ok"]:
            bad.append(f"{name}: voting output diverged from reference")
        if cell["votes_cast"] == 0 or cell["voting_component"] == 0:
            bad.append(f"{name}: ballot traffic was not priced")
        if cell["quorum_certs"] == 0:
            bad.append(f"{name}: no quorum certificates formed")
        if cell["overhead_ratio"] > report["overhead_ceiling"]:
            bad.append(
                f"{name}: voting overhead {cell['overhead_ratio']:.2f}x "
                f"exceeds the {report['overhead_ceiling']:.1f}x ceiling"
            )
    return bad


# ----------------------------------------------------------------------
# pytest entry point
# ----------------------------------------------------------------------
def test_voting_bench(bench_profile, save_result):
    report = run_suite(bench_profile)
    save_result("voting_overhead", render(report))
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    with open(os.path.join(results_dir, "BENCH_voting.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    assert not _violations(report)


# ----------------------------------------------------------------------
# script entry point (CI byzantine smoke)
# ----------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default=os.environ.get(
        "REPRO_BENCH_PROFILE", "bench"), choices=sorted(_SWEEP))
    parser.add_argument("--json", default="BENCH_voting.json",
                        metavar="PATH", help="write the report here")
    args = parser.parse_args(argv)

    report = run_suite(args.profile)
    with open(args.json, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(render(report))
    worst = max(report["cells"], key=lambda c: c["overhead_ratio"])
    print(f"voting overhead: worst cell {worst['workload']} at "
          f"{worst['overhead_ratio']:.2f}x the 1:1 pair "
          f"(n={report['n_members']})")
    bad = _violations(report)
    if bad:
        for line in bad:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
