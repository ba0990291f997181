"""One workload's result, and how it is printed."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from spec import DIAGNOSTIC, END_TO_END, PER_LAYER, Metric


@dataclass
class Result:
    workload: str
    seed: int
    traced: bool
    #: End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printed beside the metrics, never gated.
    diagnostics: Dict[str, float] = field(default_factory=dict)
    #: Responses or program checks offered, and how many of them were
    #: lost, wrong or duplicated.
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Free-form lines (per-program tables, largest self times).
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lines(values: Dict[str, float], order: Sequence[Metric]) -> List[str]:
    return [f"  {m.name:<32} {values[m.name]:>16.6g} {m.unit}"
            for m in order if m.name in values]


def render(result: Result) -> str:
    """Every metric by name with its unit, then the checks' verdict."""
    kind = "per-layer (traced)" if result.traced else "end-to-end"
    out = [f"{result.workload}  seed={result.seed}  {kind}"]
    out += _lines(result.metrics, PER_LAYER if result.traced else END_TO_END)
    if result.diagnostics:
        out.append("  -- diagnostic, not gated --")
        out += _lines(result.diagnostics, DIAGNOSTIC)
    out += [f"  {note}" for note in result.notes]
    out.append(f"  checks: {result.attempted} attempted, "
               f"{result.failed} failed"
               + "".join(f"\n  PROBLEM: {p}" for p in result.problems))
    return "\n".join(out)


def contract_line(result: Result) -> str:
    """The last line of standard output the driver parses."""
    order = PER_LAYER if result.traced else END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m.name: {"value": result.metrics[m.name],
                             "unit": m.unit} for m in order},
    })


def as_dict(result: Result) -> Dict[str, object]:
    return {
        "workload": result.workload, "seed": result.seed,
        "traced": result.traced, "correct": result.correct,
        "attempted": result.attempted, "failed": result.failed,
        "problems": result.problems, "metrics": result.metrics,
        "diagnostics": result.diagnostics,
    }
