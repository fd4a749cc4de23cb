"""Resilient experiment execution: supervision, journaling, fault injection.

The paper's results are wide experiment grids — 34 inputs x 11 schemes x
gap measures x two application workloads — and a single crashed worker,
torn cache write, or interrupted run must not silently corrupt or discard
them.  This package is the execution substrate that makes the bench
pipeline survive such failures *and* prove it under injected faults:

:mod:`~repro.resilience.supervisor`
    A supervised process pool replacing bare ``Pool.map``: per-cell
    timeouts, bounded retries with deterministic (seeded) backoff,
    worker-death detection and respawn, and a structured
    :class:`~repro.resilience.supervisor.CellResult` so a failed cell
    degrades to a recorded failure instead of aborting the grid.
:mod:`~repro.resilience.journal`
    An append-only JSONL run journal keyed by cell content-hash, giving
    checkpoint/resume semantics to ``python -m repro.bench`` — an
    interrupted figure run replays only missing cells.
:mod:`~repro.resilience.faults`
    Deterministic fault injection (``REPRO_FAULTS``): the same spec and
    seed always reproduce the same fault schedule, so recovery paths are
    property-tested, not hoped for.
:mod:`~repro.resilience.reporting`
    Completeness reports over a run journal (ok / degraded / replayed).
:mod:`~repro.resilience.degrade`
    The process-wide degradation record: named counters for every
    fallback the run absorbs — a native kernel disabled after a build
    or runtime fault, disk-full cache writes, quarantined entries — and
    the run-level health report behind ``python -m repro.bench --health``.
:mod:`~repro.resilience.store`
    The file mechanics every on-disk cache shares: atomic writes,
    quarantine of damaged entries, disk-full degrade, and the fault
    seams that keep those paths tested.

See ``docs/robustness.md`` for the fault model, the journal schema, and
the resume semantics.
"""

from __future__ import annotations

from .degrade import format_health, health_report
from .faults import (
    ENV_FAULTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RunAborted,
    active_plan,
    parse_spec,
)
from .journal import (
    RunJournal,
    activate,
    active_journal,
    cell_key,
    deactivate,
    using_run,
)
from .reporting import CompletenessReport, completeness, format_report
from .supervisor import CellResult, run_supervised

__all__ = [
    "CellResult",
    "run_supervised",
    "RunJournal",
    "activate",
    "deactivate",
    "active_journal",
    "using_run",
    "cell_key",
    "CompletenessReport",
    "completeness",
    "format_report",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RunAborted",
    "active_plan",
    "parse_spec",
    "ENV_FAULTS",
    "health_report",
    "format_health",
]
