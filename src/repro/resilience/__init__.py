"""Resilient experiment execution: supervision, fault injection, degradation.

The paper's results are wide experiment grids — 34 inputs x 11 schemes x
gap measures x two application workloads — and a single crashed worker,
torn cache write, or interrupted run must not silently corrupt or discard
them.  This package is the execution substrate that makes the bench
pipeline survive such failures *and* prove it under injected faults:

:mod:`~repro.resilience.supervisor`
    A supervised process pool replacing bare ``Pool.map``: per-cell
    timeouts, bounded retries, worker-death detection and respawn, and
    a structured :class:`~repro.resilience.supervisor.CellResult` so a
    failed cell degrades to a recorded failure instead of aborting the
    grid.
:mod:`~repro.resilience.faults`
    Deterministic fault injection (``REPRO_FAULTS``): the same spec and
    seed always reproduce the same fault schedule, so recovery paths are
    property-tested, not hoped for.
:mod:`~repro.resilience.degrade`
    The process-wide degradation record: named counters for every
    fallback the run absorbs — a native kernel disabled after a build
    or runtime fault, disk-full cache writes, quarantined entries — and
    the run-level health report behind ``python -m repro.bench --health``.
:mod:`~repro.resilience.store`
    The file mechanics every on-disk cache shares: atomic writes,
    quarantine of damaged entries, disk-full degrade, and the fault
    seams that keep those paths tested.

There is no separate resume mechanism: every cell's result is a pure
function of (graph content, scheme, seed) and lands in a
content-addressed store, so re-running a killed command serves its
finished cells as store hits.  See ``docs/robustness.md`` for the fault
model and the kill-and-rerun check that pins this.
"""

from __future__ import annotations

from .degrade import format_health, health_report
from .faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    parse_spec,
)
from .supervisor import CellResult, run_supervised

__all__ = [
    "CellResult",
    "run_supervised",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "parse_spec",
    "health_report",
    "format_health",
]
