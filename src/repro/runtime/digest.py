"""The state digest: one walk over a JVM's replicated state.

Every digest check in the project runs this walk: the replication
layer's lockstep and end-of-run comparisons
(:mod:`repro.replication.digest`), checkpoint verification, voting
ballots, and :meth:`~repro.runtime.jvm.JVM.state_digest`, which is the
fingerprint of the walk without the environment.

Digest structure
----------------
A :class:`StateDigest` is a set of independent 128-bit component
digests, each an *order-insensitive* combination (sum mod 2**128) of
per-item hashes, so the result does not depend on heap allocation
order, thread registration order, or visit order:

* ``heap``     — every static, and every object/array reachable from
  the statics and the live threads (Thread objects, frame locals and
  operand stacks, held and synchronized-method monitors, pending
  exceptions), hashed by content with references named by
  deterministic visit ids (never by replica-local oids);
* ``frames``   — per-thread call stacks: method, pc, operand stack,
  locals, held monitors and the synchronized-method receiver;
* ``monitors`` — monitor tables of all reachable objects and the class
  locks: acquisition counts, owner, recursion, entry queue, wait set;
* ``sched``    — per-thread scheduler-visible progress: ``br_cnt``,
  ``mon_cnt``, ``t_asn``, instruction count, terminated-or-live, plus
  uncaught exceptions;
* ``env``      — the stable environment snapshot
  (:meth:`~repro.env.environment.Environment.stable_digest`), present
  only when an environment is given.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.runtime.values import INT_ONLY, IntMemo, JArray, JObject

_MASK = (1 << 128) - 1

#: Component names, in canonical (wire and report) order.
COMPONENTS = ("heap", "frames", "monitors", "sched", "env")

#: Components compared during mid-run (lockstep) epochs; ``env`` is
#: final-only (see :mod:`repro.replication.digest`).
LOCKSTEP_COMPONENTS = ("heap", "frames", "monitors", "sched")


def _h(token: str) -> int:
    """128-bit hash of one item token."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8", "surrogatepass")).digest()[:16],
        "big",
    )


def _combine(hashes: Iterable[int]) -> int:
    """Order-insensitive combination of item hashes."""
    total = 0
    for value in hashes:
        total = (total + value) & _MASK
    return total


@dataclass(frozen=True)
class StateDigest:
    """Component digests of one replica's state at one epoch."""

    components: Tuple[Tuple[str, int], ...]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.components)

    def hex(self) -> Dict[str, str]:
        return {name: f"{value:032x}" for name, value in self.components}

    def diff(self, other: "StateDigest",
             names: Tuple[str, ...] = COMPONENTS) -> List[str]:
        """Names of components present in both digests that differ."""
        mine, theirs = self.as_dict(), other.as_dict()
        return [
            name for name in names
            if name in mine and name in theirs and mine[name] != theirs[name]
        ]

    def fingerprint(self, names: Tuple[str, ...] = COMPONENTS) -> int:
        """A single 128-bit value summarizing the selected components.

        Voting members ballot on this scalar rather than the full
        component tuple: it is stable across replicas in equivalent
        states (component digests are), order-independent of ``names``
        permutations is *not* required (names come from one canonical
        constant), and any single-component difference changes it."""
        mine = self.as_dict()
        w = "|".join(f"{name}={mine[name]:032x}" for name in names
                     if name in mine)
        return _h("fp:" + w)


#: A plain int's token; the ints from -1024 to 1023 are kept.
_INT_TOKENS = IntMemo(lambda v: f"i{v}", -1024, 1024)


def _scalar_token(value: Any, ref_id: Callable[[Any], int]) -> str:
    # Ints first (``type`` test: a bool falls through to ``i{value}``
    # below, as it always has).
    if type(value) is int:
        return f"i{value}"
    if value is None:
        return "null"
    if isinstance(value, (JObject, JArray)):
        return f"@{ref_id(value)}"
    if isinstance(value, float):
        return f"f{value!r}"
    if isinstance(value, str):
        return f"s{value!r}"
    return f"i{value}"


def _monitor_token(label: str, monitor) -> str:
    owner = (monitor.owner.vid if monitor.owner is not None
             and not monitor.owner.is_system else "-")
    entry = ",".join(str(t.vid) for t in monitor.entry_queue)
    waiters = ",".join(str(t.vid) for t in monitor.wait_set)
    return (
        f"{label}:asn={monitor.l_asn}:owner={owner}"
        f":rec={monitor.recursion}:entry=[{entry}]:wait=[{waiters}]"
    )


def compute_state_digest(jvm, env=None, *,
                         include_env: bool = True) -> StateDigest:
    """Digest all replication-relevant state of one JVM instance.

    Stateless: runs :func:`walk_state` with an empty cache and keeps
    none, so it never touches the heap's mutation clock."""
    return walk_state(jvm, env if include_env else None, {}, 0)[0]


def walk_state(jvm, env, cache: Dict[int, tuple],
               clean_below: int) -> Tuple[StateDigest, Dict[int, tuple], int]:
    """The state walk.  Returns the digest, the cache of this pass and
    the number of objects hashed (the rest reused a cached hash).

    Reachability starts from the statics (sorted) and the live thread
    stacks (sorted by vid), so visit ids — the replica-independent
    names for heap references — are identical on any replica in an
    equivalent state, regardless of allocation order or oids.

    ``cache`` maps ``id(obj)`` to ``(obj, vid, deps, obj_hash,
    mon_hash|None)`` from an earlier pass, where ``deps`` is
    ``((child, child_vid), ...)`` in tokenization order.  An object
    whose ``mut_era`` is below ``clean_below``, whose visit id is
    unchanged and whose children keep their visit ids contributes
    exactly its cached item hashes, so it skips tokenizing and sha256.
    The returned cache holds strong references to every object visited,
    so a cached ``id()`` cannot be recycled while its entry survives.
    """
    visit_ids: Dict[int, int] = {}
    pending: List[Any] = []
    new_cache: Dict[int, tuple] = {}
    hashed = 0

    def ref_id(obj: Any) -> int:
        key = id(obj)
        vid = visit_ids.get(key)
        if vid is None:
            vid = visit_ids[key] = len(visit_ids)
            pending.append(obj)
        return vid

    deps: List[tuple] = []

    def token(value: Any) -> str:
        if type(value) is int:
            return f"i{value}"
        if isinstance(value, (JObject, JArray)):
            vid = ref_id(value)
            deps.append((value, vid))
            return f"@{vid}"
        return _scalar_token(value, ref_id)

    heap_items: List[int] = []
    frame_items: List[int] = []
    monitor_items: List[int] = []
    sched_items: List[int] = []

    # --- roots: statics (sorted), then threads (sorted by vid) --------
    for (class_name, field_name) in sorted(jvm.statics):
        value = jvm.statics[(class_name, field_name)]
        heap_items.append(
            _h(f"static:{class_name}.{field_name}={token(value)}")
        )

    threads = sorted(
        (t for t in jvm.scheduler.threads if not t.is_system),
        key=lambda t: t.vid,
    )
    for thread in threads:
        alive = "live" if thread.alive else "terminated"
        sched_items.append(_h(
            f"thread:{thread.vid}:{alive}:br={thread.br_cnt}"
            f":mon={thread.mon_cnt}:asn={thread.t_asn}"
            f":instr={thread.instructions}"
        ))
        if thread.thread_object is not None:
            ref_id(thread.thread_object)
        for depth, frame in enumerate(thread.frames):
            locals_tok = ",".join(token(v) for v in frame.locals)
            stack_tok = ",".join(token(v) for v in frame.stack)
            held = ",".join(f"@{ref_id(o)}" for o in frame.held_monitors)
            sync = (f"@{ref_id(frame.sync_object)}"
                    if frame.sync_object is not None else "-")
            frame_items.append(_h(
                f"frame:{thread.vid}:{depth}:{frame.method.signature}"
                f":pc={frame.pc}"
                f":L[{locals_tok}]:S[{stack_tok}]:H[{held}]:sync={sync}"
            ))
        if thread.pending_exception is not None:
            ref_id(thread.pending_exception)

    for vid_str, class_name, message in jvm.uncaught:
        sched_items.append(_h(f"uncaught:{vid_str}:{class_name}:{message}"))

    # --- breadth-first expansion over reachable objects ---------------
    # ``pending[i]`` has visit id ``i``; the list grows as it is walked.
    for my_id, obj in enumerate(pending):
        entry = cache.get(id(obj))
        if (entry is not None and entry[0] is obj
                and obj.mut_era < clean_below and entry[1] == my_id):
            # Clean object: the children's vids must also match —
            # ref_id'ing them here performs exactly the enqueueing
            # the tokenizer would (deps are in tokenization order,
            # and a clean object's references are unchanged).
            for child, child_vid in entry[2]:
                if ref_id(child) != child_vid:
                    break
            else:
                heap_items.append(entry[3])
                if entry[4] is not None:
                    monitor_items.append(entry[4])
                new_cache[id(obj)] = entry
                continue
        deps = []
        if isinstance(obj, JArray):
            data = obj.data
            if INT_ONLY.issuperset(map(type, data)):
                body = ",".join(map(_INT_TOKENS.__getitem__, data))
            else:
                body = ",".join(token(v) for v in data)
            obj_hash = _h(f"array:@{my_id}:{obj.elem_type}:[{body}]")
        else:
            body = ",".join(
                f"{name}={token(obj.fields[name])}"
                for name in sorted(obj.fields)
            )
            obj_hash = _h(f"object:@{my_id}:{obj.class_name}:{{{body}}}")
        heap_items.append(obj_hash)
        mon_hash = None
        monitor = obj.monitor
        if monitor is not None and monitor.l_asn > 0:
            mon_hash = _h(_monitor_token(f"monitor:@{my_id}", monitor))
            monitor_items.append(mon_hash)
        new_cache[id(obj)] = (obj, my_id, tuple(deps), obj_hash, mon_hash)
        hashed += 1

    # Class locks are reachable by name, not by reference; their
    # monitors carry static-synchronized state.
    for class_name in sorted(jvm._class_locks):
        monitor = jvm._class_locks[class_name].monitor
        if monitor is not None and monitor.l_asn > 0:
            monitor_items.append(
                _h(_monitor_token(f"classlock:{class_name}", monitor))
            )

    components = [
        ("heap", _combine(heap_items)),
        ("frames", _combine(frame_items)),
        ("monitors", _combine(monitor_items)),
        ("sched", _combine(sched_items)),
    ]
    if env is not None:
        components.append(("env", _h("env:" + env.stable_digest())))
    return StateDigest(tuple(components)), new_cache, hashed
