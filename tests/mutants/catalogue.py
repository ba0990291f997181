"""Mutants the oracles must kill: a committed record that they bite.

Each entry breaks one line of ``src/`` the way a plausible bug would,
names the tests that must notice, and says whether they do
(``killed``) or why no test can (``equivalent``).  ``run.py`` applies
each entry to a scratch copy of ``src/`` and checks the verdict.

``old`` must occur exactly once in ``file``: when a refactor moves the
code, the entry fails until it is re-homed onto the new code, which is
the proof the new code is still guarded.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    #: Path under ``src/``.
    file: str
    old: str
    new: str
    #: pytest arguments, relative to the repository root.
    selection: Tuple[str, ...]
    #: ``killed`` or ``equivalent``.
    verdict: str
    #: Why an equivalent mutant cannot be told apart ("" if killed).
    reason: str = ""


DIGEST = "repro/runtime/digest.py"
DIGEST_PINS = "tests/replication/test_digest_pins.py"
WIRE = "repro/replication/wire.py"
CHECKPOINT = "repro/replication/checkpoint.py"
BULK = "tests/replication/test_bulk_arrays.py"
HOSTILE = "tests/replication/test_checkpoint_hostile.py"
LIFETIMES = "tests/integration/test_lifetimes.py"

MUTANTS = (
    Mutant(
        "digest-frames-not-hashed", DIGEST,
        '        ("frames", _combine(frame_items)),\n',
        '        ("frames", _combine([])),\n',
        (DIGEST_PINS,), "killed"),
    Mutant(
        "digest-reuse-without-child-vid-check", DIGEST,
        "                if ref_id(child) != child_vid:\n",
        "                if ref_id(child) != child_vid and False:\n",
        (DIGEST_PINS, "tests/replication/test_digest.py"), "killed"),
    Mutant(
        "digest-stateless-walk-bumps-era", DIGEST,
        "    return walk_state(jvm, env if include_env else None, {}, 0)[0]\n",
        "    jvm.heap.bump_era()\n"
        "    return walk_state(jvm, env if include_env else None, {}, 0)[0]\n",
        ("tests/runtime/test_state_digest.py",), "killed"),
    Mutant(
        "digest-class-locks-dropped", DIGEST,
        "    for class_name in sorted(jvm._class_locks):\n",
        "    for class_name in sorted(jvm._class_locks)[:0]:\n",
        (DIGEST_PINS,), "killed"),
    Mutant(
        "digest-scalar-token-isinstance-int", DIGEST,
        '    if type(value) is int:\n        return f"i{value}"\n'
        "    if value is None:\n",
        '    if isinstance(value, int):\n        return f"i{value}"\n'
        "    if value is None:\n",
        ("tests/replication/test_codec_pins.py::"
         "test_scalar_tokens_keep_types_apart", DIGEST_PINS), "equivalent",
        "a bool that skips the int branch falls through to the last "
        "branch, which renders it as the same i{value} token"),
    Mutant(
        "jvm-state-digest-statics-only", "repro/runtime/jvm.py",
        '        return f"{compute_state_digest(self).fingerprint():032x}"\n',
        '        return __import__("hashlib").sha256(\n'
        "            repr(sorted(self.statics.items())).encode()).hexdigest()\n",
        ("tests/runtime/test_state_digest.py",
         "tests/integration/test_divergence.py"), "killed"),
    Mutant(
        "verifier-final-digest-compares-env-only",
        "repro/replication/digest.py",
        "        names = LOCKSTEP_COMPONENTS + ((\"env\",) if self._env",
        "        names = ((\"env\",) if self._env",
        ("tests/integration/test_divergence.py",), "killed"),
    Mutant(
        "wire-svarint-without-sign-fold", "repro/replication/wire.py",
        "        return self.uvarint((value << 1) ^ (value >> 63) if value >= 0\n",
        "        return self.uvarint((value << 1) if value >= 0\n",
        ("tests/replication/test_codec_pins.py",
         "tests/replication/test_wire.py"), "killed"),
    Mutant(
        "checkpoint-value-isinstance-int", "repro/replication/checkpoint.py",
        "    if type(v) is int:\n        w.uvarint(_V_INT).svarint(v)\n",
        "    if isinstance(v, int):\n        w.uvarint(_V_INT).svarint(v)\n",
        ("tests/replication/test_codec_pins.py",), "killed"),
    Mutant(
        "wire-reader-varint-length", "repro/replication/wire.py",
        "                if shift > 63:\n",
        "                if shift > 70:\n",
        ("tests/replication/test_wire.py",
         "tests/replication/test_wire_fuzz.py"), "killed"),
    Mutant(
        "wire-reader-one-byte-path", "repro/replication/wire.py",
        "            if byte < 0x80:\n"
        "                self._pos = pos + 1\n"
        "                return byte\n",
        "            if byte <= 0x80:\n"
        "                self._pos = pos + 1\n"
        "                return byte\n",
        ("tests/replication/test_wire.py",), "killed"),
    Mutant(
        "commit-envelope-epoch-off-by-one", "repro/replication/commit.py",
        "        out.append(Writer().uvarint(KIND_EPOCH).uvarint(epoch)\n",
        "        out.append(Writer().uvarint(KIND_EPOCH)"
        ".uvarint(epoch + 1)\n",
        ("tests/replication/test_codec_pins.py",), "killed"),
    Mutant(
        "wire-short-ints-two-byte-shift", WIRE,
        "            raw |= varint[1] << 7\n",
        "            raw |= varint[1] << 8\n",
        (BULK,), "killed"),
    Mutant(
        "wire-short-ints-consume-before-fallback", WIRE,
        "        if len(varints) != n:\n            return None\n",
        "        if len(varints) != n:\n            self._pos = end\n"
        "            return None\n",
        (BULK,), "killed"),
    Mutant(
        "checkpoint-bulk-writer-admits-bool", CHECKPOINT,
        "        if INT_ONLY.issuperset(map(type, data)):\n",
        "        if INT_ONLY.union((bool,)).issuperset(map(type, data)):\n",
        (BULK,), "killed"),
    Mutant(
        "digest-bulk-token-admits-bool", DIGEST,
        "            if INT_ONLY.issuperset(map(type, data)):\n",
        "            if INT_ONLY.union((bool,))"
        ".issuperset(map(type, data)):\n",
        (BULK,), "killed"),
    Mutant(
        "checkpoint-nonheap-oid-unresolved", CHECKPOINT,
        "    oid = r.uvarint()\n    resolve(oid)\n    return oid\n",
        "    oid = r.uvarint()\n    return oid\n",
        (HOSTILE,), "killed"),
    Mutant(
        "checkpoint-class-lock-table-unchecked", CHECKPOINT,
        "    _check_class_locks(jvm, s)\n",
        "",
        (HOSTILE,), "killed"),
    Mutant(
        "irem-sign-of-divisor", "repro/runtime/optable.py",
        '        "if {r} and ({a} < 0) != ({b} < 0): {r} -= {b}"],\n',
        '        "if {r} and ({a} < 0) == ({b} < 0): {r} -= {b}"],\n',
        ("tests/runtime/test_interpreter_ops.py",), "killed"),
    Mutant(
        "lifetime-collector-holds-its-jvm", "repro/runtime/gc.py",
        "        self._jvm = weakref.ref(jvm)\n",
        "        self._jvm = lambda: jvm\n",
        (LIFETIMES,), "killed"),
    Mutant(
        "lifetime-semantics-holds-its-jvm", "repro/runtime/interpreter.py",
        "        self._jvm = weakref.ref(jvm)\n        self._registry = "
        "jvm.registry\n        self._heap = jvm.heap\n        self._sync",
        "        self._jvm = lambda: jvm\n        self._registry = "
        "jvm.registry\n        self._heap = jvm.heap\n        self._sync",
        (LIFETIMES,), "killed"),
    Mutant(
        "lifetime-scratch-restore-kept", "repro/replication/core.py",
        "            ).discard()\n",
        "            )\n",
        (LIFETIMES,), "killed"),
    Mutant(
        "lifetime-close-skips-followers", "repro/replication/voting.py",
        "        for follower in self._followers.values():\n"
        "            yield follower.jvm",
        "        for follower in ():\n"
        "            yield follower.jvm",
        (LIFETIMES,), "killed"),
)
