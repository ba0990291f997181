"""Apply each catalogued mutant to a scratch copy of ``src/`` and check
that its tests still tell: a ``killed`` mutant must make its selection
fail, an ``equivalent`` one must leave it passing.

Usage, from the repository root (standard library only)::

    python tests/mutants/run.py            # every entry
    python tests/mutants/run.py NAME ...   # the named entries
    python tests/mutants/run.py --list

Exits non-zero when an entry's old text is missing from, or not unique
in, its file, or when an entry's verdict does not hold.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from tests.mutants.catalogue import MUTANTS, Mutant  # noqa: E402

#: pytest's exit code when tests ran and at least one failed.  Anything
#: else (a collection error, no tests selected) proves nothing.
TESTS_FAILED = 1

PER_MUTANT_TIMEOUT_S = 600


def apply(mutant: Mutant, src: Path) -> None:
    path = src / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def check(mutant: Mutant) -> str:
    """Empty when the verdict holds, else what went wrong."""
    if mutant.verdict not in ("killed", "equivalent"):
        return f"unknown verdict {mutant.verdict!r}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        src = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns(
            "__pycache__", "*.egg-info"))
        try:
            apply(mutant, src)
        except ValueError as exc:
            return str(exc)
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", *mutant.selection],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=PER_MUTANT_TIMEOUT_S)
    if mutant.verdict == "killed" and run.returncode != TESTS_FAILED:
        return f"survived (pytest exit {run.returncode})\n{run.stdout[-2000:]}"
    if mutant.verdict == "equivalent" and run.returncode != 0:
        return f"selection failed (pytest exit {run.returncode})\n" \
               f"{run.stdout[-2000:]}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="entries to run "
                        "(default: all)")
    parser.add_argument("--list", action="store_true",
                        help="print the entries and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if len(by_name) != len(MUTANTS):
        print("duplicate mutant names in the catalogue")
        return 2
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name:45} {m.verdict:10} {m.file}")
        return 0
    failures = 0
    for m in chosen:
        begun = time.monotonic()
        problem = check(m)
        status = "FAIL" if problem else "ok"
        print(f"{status:4} {m.name:45} {m.verdict:10} "
              f"{time.monotonic() - begun:6.1f}s", flush=True)
        if problem:
            failures += 1
            print("     " + problem.replace("\n", "\n     "), flush=True)
    print(f"{len(chosen) - failures}/{len(chosen)} verdicts hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
