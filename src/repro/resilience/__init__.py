"""Resilient experiment execution: supervision, fault injection, degradation.

The paper's results are wide experiment grids — 34 inputs x 11 schemes x
gap measures x two application workloads — and a single crashed worker,
torn cache write, or interrupted run must not silently corrupt or discard
them.  This package is the execution substrate that makes the bench
pipeline survive such failures *and* prove it under injected faults:

:mod:`~repro.resilience.supervisor`
    A supervised process pool replacing bare ``Pool.map``: per-cell
    timeouts, worker-death detection and respawn, bounded retries of
    deaths and timeouts (never of a cell that raised: it would raise
    again), and a structured
    :class:`~repro.resilience.supervisor.CellResult` so a failed cell
    degrades to a recorded failure instead of aborting the grid.
:mod:`~repro.resilience.faults`
    Deterministic fault injection (``REPRO_FAULTS``): the same spec and
    seed always reproduce the same fault schedule, so recovery paths are
    property-tested, not hoped for.
:mod:`~repro.resilience.degrade`
    The process-wide degradation record: named counters for every
    fallback the run absorbs — a native kernel whose build failed,
    disk-full cache writes, quarantined entries — and
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

The names below load on first access, so importing one submodule (a
kernel's build records its failures in :mod:`.degrade`) does not start
the supervisor's :mod:`multiprocessing` import.
"""

from __future__ import annotations

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


def __getattr__(name: str):
    """Import an ``__all__`` name on its first access (PEP 562)."""
    if name in ("health_report", "format_health"):
        from . import degrade as home
    elif name in ("CellResult", "run_supervised"):
        from . import supervisor as home
    elif name in __all__:
        from . import faults as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
