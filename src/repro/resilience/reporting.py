"""Completeness reports over a run journal.

"SoK: The Faults in our Graph Benchmarks" documents how silently missing
grid cells corrupt empirical graph studies: a figure rendered from a
partially completed grid looks exactly like a finished one.  The
completeness report makes the difference loud — every journaled run ends
by stating how many cells completed, which degraded (and why), and how
much of the run was replayed from the journal versus computed fresh.
The summary also surfaces this process's degradation counters
(:mod:`repro.resilience.degrade` — disabled native kernels, cache-write
failures, quarantined entries), so an execution-substrate downgrade is as
loud as a missing cell.
"""

from __future__ import annotations

import dataclasses

from . import degrade
from .journal import RunJournal

__all__ = ["CompletenessReport", "completeness", "format_report"]


@dataclasses.dataclass(frozen=True)
class CompletenessReport:
    """A summary of one journaled run's cell outcomes."""

    run_id: str
    total: int
    ok: int
    degraded: tuple[dict, ...]
    replayed: int
    computed: int

    @property
    def complete(self) -> bool:
        """Whether every journaled cell finished without degrading."""
        return not self.degraded


def completeness(journal: RunJournal) -> CompletenessReport:
    """Build the completeness report for ``journal``."""
    entries = journal.entries()
    ordered = [entries[key] for key in sorted(entries)]
    degraded = tuple(
        entry for entry in ordered if entry.get("status") == "degraded"
    )
    ok = sum(1 for entry in ordered if entry.get("status") == "ok")
    return CompletenessReport(
        run_id=journal.run_id,
        total=len(ordered),
        ok=ok,
        degraded=degraded,
        replayed=journal.replayed,
        computed=journal.computed,
    )


def format_report(report: CompletenessReport) -> str:
    """Render a completeness report as the run's closing summary."""
    lines = [
        f"[run {report.run_id}: {report.total} cells journaled, "
        f"{report.ok} ok, {len(report.degraded)} degraded; "
        f"replayed={report.replayed} computed={report.computed}]"
    ]
    for entry in report.degraded:
        label = entry.get("label") or entry.get("key")
        error = entry.get("error") or "unknown failure"
        attempts = entry.get("attempts", "?")
        lines.append(
            f"[degraded] {label}: {error} (after {attempts} attempts)"
        )
    if report.degraded:
        lines.append(
            "[warning] degraded cells are missing from this run's "
            "figures; rerun with --resume to retry them"
        )
    for key, count in degrade.counters().items():
        lines.append(f"[degrade] {key}: {count}")
    return "\n".join(lines)
