"""Mark-sweep garbage collection with soft/weak references and finalizers.

The paper (§4.3) identifies asynchronous garbage collection as a source
of non-deterministic read sets through two channels — soft references
and finalizer methods — and adopts two mitigations we reproduce:

* **soft references are treated as strong** (never collected), so cache
  hits cannot differ between primary and backup.  Setting
  ``soft_refs_strong=False`` in the JVM config restores the dangerous
  behaviour; the test suite uses that switch to *demonstrate* the
  divergence the paper warns about.
* **finalizers must be deterministic and local**: they run in a
  detached system execution context whose counters do not perturb any
  application thread's ``br_cnt``/``mon_cnt`` (so GC timing differences
  between replicas remain invisible), and they are forbidden from
  blocking, performing I/O, or touching monitors —
  :class:`~repro.errors.RestrictionViolation` otherwise.

Collections are synchronous and stop-the-world, triggered at safe
points when allocation crosses the heap threshold or via ``System.gc``.
An optional *asynchronous* collector thread (jittered period, never
replicated — it models the paper's system threads) can be enabled in
the config; because of the two mitigations its timing is harmless.
"""

from __future__ import annotations

import weakref
from typing import Any, List

from repro.errors import RestrictionViolation
from repro.runtime.values import JArray, JObject

SOFT_REF_CLASS = "SoftReference"
WEAK_REF_CLASS = "WeakReference"
_REFERENT_FIELD = "referent"


class GCStats:
    """Counters exported to metrics and tests."""

    def __init__(self) -> None:
        self.collections = 0
        self.objects_freed = 0
        self.cells_freed = 0
        self.finalizers_run = 0
        self.soft_refs_cleared = 0
        self.weak_refs_cleared = 0


class Collector:
    """Mark-sweep collector bound to one JVM."""

    def __init__(self, jvm) -> None:
        #: Weak: the JVM owns its collector, not the reverse.
        self._jvm = weakref.ref(jvm)
        self.stats = GCStats()

    # ------------------------------------------------------------------
    def collect(self) -> int:
        """Run one stop-the-world collection; returns cells freed."""
        jvm = self._jvm()
        heap = jvm.heap
        strong_soft = jvm.config.soft_refs_strong

        marked: List[Any] = []
        stack = list(jvm.gc_roots())
        while stack:
            value = stack.pop()
            if not isinstance(value, (JObject, JArray)) or value.gc_mark:
                continue
            value.gc_mark = True
            marked.append(value)
            if isinstance(value, JArray):
                if value.elem_type == "ref":
                    stack.extend(v for v in value.data if v is not None)
                continue
            is_soft = value.class_name == SOFT_REF_CLASS
            is_weak = value.class_name == WEAK_REF_CLASS
            for name, field_value in value.fields.items():
                if field_value is None:
                    continue
                if name == _REFERENT_FIELD and (is_weak or (is_soft and not strong_soft)):
                    continue  # referent reachable only weakly
                if isinstance(field_value, (JObject, JArray)):
                    stack.append(field_value)

        # Clear dangling soft/weak referents before sweeping.
        for obj in marked:
            if isinstance(obj, JObject) and obj.class_name in (
                SOFT_REF_CLASS, WEAK_REF_CLASS
            ):
                referent = obj.fields.get(_REFERENT_FIELD)
                if referent is not None and not referent.gc_mark:
                    obj.fields[_REFERENT_FIELD] = None
                    obj.mut_era = heap.era
                    if obj.class_name == SOFT_REF_CLASS:
                        self.stats.soft_refs_cleared += 1
                    else:
                        self.stats.weak_refs_cleared += 1

        live: List[Any] = []
        live_cells = 0
        freed_objects = 0
        for obj in heap.objects:
            if obj.gc_mark:
                obj.gc_mark = False
                live.append(obj)
                live_cells += heap.cells_of(obj)
            else:
                freed_objects += 1
                self._run_finalizer(obj)

        freed_cells = heap.replace_live(live, live_cells)
        self.stats.collections += 1
        self.stats.objects_freed += freed_objects
        self.stats.cells_freed += freed_cells
        return freed_cells

    # ------------------------------------------------------------------
    def _run_finalizer(self, obj: Any) -> None:
        """Execute ``finalize()`` on a dead object, if declared.

        Runs in a detached system context (its own counters); bounded;
        forbidden from blocking or doing I/O.  Resurrection is not
        supported — the object is freed regardless (documented
        deviation; the paper's restriction makes resurrection useless
        anyway).
        """
        if not isinstance(obj, JObject):
            return
        jvm = self._jvm()
        registry = jvm.registry
        try:
            method = registry.lookup_method(obj.class_name, "finalize", 0)
        except Exception:
            return
        if method.declaring_class.name == "Object":
            return
        self.stats.finalizers_run += 1
        jvm.run_detached(
            method,
            [obj],
            budget=jvm.config.finalizer_budget,
            forbid_sync=True,
            what=f"finalizer of {obj.class_name}",
        )


def check_finalizer_restriction(what: str, action: str) -> None:
    """Raise the paper's finalizer restriction violation."""
    raise RestrictionViolation(
        "finalizer-determinism",
        f"{what} attempted to {action}; finalizers must only perform "
        f"deterministic actions on local memory (paper §4.3)",
    )
