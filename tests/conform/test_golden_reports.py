"""The report oracle, pinned.

The nine pinned-seed sweeps CI runs (five ``repro conform``, four
``repro fleet``, all ``--seed 20030622``) hash the wire bytes, every
replica metric, the environment's session traffic and each recovery's
verdict into their JSON reports, and those reports are byte-stable run
to run.  The five ``conform`` digests were taken at the commit *before*
the three orchestrators were folded into :mod:`repro.replication.core`;
the four ``fleet`` digests were re-pinned when the fleet stopped
pricing latency, each shown equal to its predecessor with only the
four priced keys removed (the proof is in CHANGES.md, PR 20).  A
change that leaves them intact has demonstrably not moved the
protocol's observable behaviour — and one that does move it shows up
here as a changed report, to be re-pinned deliberately or fixed.

Run with ``pytest -m conform tests/conform/test_golden_reports.py``
(about eight seconds for all nine).  CI's ``golden-reports`` job is the
one place the five ``conform`` argvs run; it adds
``--basetemp=golden-reports`` and uploads the reports from there.
"""

import hashlib

import pytest

from repro.cli import main

pytestmark = pytest.mark.conform

SEED = ["--seed", "20030622"]

#: report name -> (``repro`` argv, sha256 of the JSON).
GOLDEN = {
    "conform": (
        ["conform", "--workload", "counter", "--quick", "--engine", "both",
         "--workers", "2"],
        "2a0e21d333cf9875d7c03d2b9d2592d760f753272798a2758b1332107b3f3ff9",
    ),
    "chained": (
        ["conform", "--chained", "--workload", "counter",
         "--strategy", "lock_sync", "--transport", "memory",
         "--transport", "faulty:flaky", "--engine", "both", "--depth", "2"],
        "03247eaf04855b75c82d18a39dcac3e267e93be95530eee11b2ffa6d48c6adaa",
    ),
    "chained-ckpt": (
        ["conform", "--chained", "--workload", "counter",
         "--strategy", "lock_sync", "--transport", "memory",
         "--checkpoint-interval", "3", "--depth", "2"],
        "20131d184c757f2031f398116cdc63b40d006e33544da75a54f8de1f16859c53",
    ),
    "byzantine": (
        ["conform", "--byzantine", "--variants"],
        "230c7ccc987d8c34fbaceccc6fc65f6ac9553bc93b33f16326afb0f573fc6d04",
    ),
    "byzantine-n5": (
        ["conform", "--byzantine", "--members", "5", "--quick"],
        "9bcda889078dd5cef77a53a6d5a92a67bc2932314cc85b4f739753a98eab8d15",
    ),
    "fleet": (
        ["fleet", "--shards", "3", "--requests", "150",
         "--crash-shard", "1", "--crash-at", "40"],
        "816d1859ba028f30366947aa1b963f9680b56653d06655642e456640d67c14af",
    ),
    "chaos-liar": (
        ["fleet", "--voting", "--shards", "3", "--requests", "60",
         "--lie-shard", "1", "--lie-spec", "output:5"],
        "817570083b7c7416bef195d5f9bf49c5dc3351f38b38a8fb8a11b8df5a68ed85",
    ),
    "chaos-partition": (
        ["fleet", "--voting", "--shards", "3", "--requests", "80",
         "--chaos-shard", "0", "--outage", "200:600:rev",
         "--member-partition", "1:30:120"],
        "9bd5a4b64528052905a071050ad5d045ea1bee9b2f01f7db429706199c0be519",
    ),
    "chaos-demotion": (
        ["fleet", "--voting", "--shards", "3", "--requests", "60",
         "--variants", "--lie-shard", "0", "--lie-spec", "output:5",
         "--lie-member", "1"],
        "5f45a55de75306750ed97b951bb2265eee925a2917796459e2877a65a75fe1df",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pinned_seed_report_is_byte_identical(name, tmp_path, capsys):
    argv, expected = GOLDEN[name]
    report = tmp_path / f"{name}.json"
    assert main(argv + SEED + ["--json", str(report)]) == 0
    capsys.readouterr()                  # the sweeps narrate to stdout
    assert hashlib.sha256(report.read_bytes()).hexdigest() == expected, (
        f"`repro {' '.join(argv + SEED)}` no longer produces the pinned "
        f"report: the protocol's observable behaviour changed"
    )
