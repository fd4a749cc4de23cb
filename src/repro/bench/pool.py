"""Process-pool fan-out over independent experiment cells.

The figure experiments are grids of independent (dataset, scheme) cells:
each cell loads a graph, computes or reuses an ordering, and replays a
simulated region.  ``map_cells`` runs such a grid through the supervised
pool (:mod:`repro.resilience.supervisor`) while keeping results
deterministic:

* results are returned in input order regardless of completion order;
* workers are plain module-level functions over picklable cell tuples,
  so the fan-out composes with the fork start method (workers inherit
  the parent's warmed caches) as well as spawn;
* ``jobs=1`` (the default) with no timeout and no active fault plan
  bypasses the supervisor entirely — bit-identical to the sequential
  path and the mode the equivalence tests pin;
* a crashed or hung worker is detected, respawned, and its cell
  retried at once; a cell that raised fails on that attempt, since the
  same input raises again.  ``map_cells`` raises
  :class:`CellFailedError` for a failed cell, while
  :func:`map_cells_detailed` returns the structured per-cell outcomes
  so supervised grids can degrade instead of aborting.

``python -m repro.bench --jobs N [--timeout S] [--retries K]`` sets the
process-wide defaults.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

from ..resilience import faults
from ..resilience.supervisor import CellResult, run_supervised

__all__ = [
    "map_cells",
    "map_cells_detailed",
    "CellFailedError",
    "set_default_jobs",
    "default_jobs",
    "set_default_timeout",
    "default_timeout",
    "set_default_retries",
    "default_retries",
    "chunk_evenly",
]

T = TypeVar("T")
R = TypeVar("R")

_default_jobs = 1
_default_timeout: float | None = None
_default_retries = 2


class CellFailedError(RuntimeError):
    """A grid cell failed under strict ``map_cells``.

    ``results`` holds the full per-cell outcome list so callers can
    still inspect (or salvage) the cells that did complete.
    """

    def __init__(self, failures: list[tuple[int, str]],
                 results: list[CellResult]) -> None:
        self.failures = failures
        self.results = results
        detail = "; ".join(
            f"cell {index}: {error}" for index, error in failures[:5]
        )
        more = len(failures) - min(len(failures), 5)
        if more > 0:
            detail += f"; ... {more} more"
        super().__init__(
            f"{len(failures)} of {len(results)} cells failed ({detail})"
        )


def set_default_jobs(jobs: int) -> None:
    """Set the pool width used when ``map_cells`` is called without one."""
    global _default_jobs
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _default_jobs = jobs


def default_jobs() -> int:
    """The process-wide default pool width."""
    return _default_jobs


def set_default_timeout(timeout: float | None) -> None:
    """Set the per-cell deadline (seconds) used without an explicit one."""
    global _default_timeout
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive (or None)")
    _default_timeout = timeout


def default_timeout() -> float | None:
    """The process-wide default per-cell timeout (``None`` = unbounded)."""
    return _default_timeout


def set_default_retries(retries: int) -> None:
    """Set how many times a dead or timed-out cell is retried by default."""
    global _default_retries
    if retries < 0:
        raise ValueError("retries must be >= 0")
    _default_retries = retries


def default_retries() -> int:
    """The process-wide default per-cell retry budget."""
    return _default_retries


def chunk_evenly(count: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous spans.

    Returns ``(start, stop)`` pairs covering the range in order, sized as
    evenly as possible (the first ``count % parts`` spans get one extra
    element).  This is how the batched RRR sampler shards a sample-index
    range across pool workers: contiguous spans keep each worker's
    visited-array epochs dense, and concatenating the per-span results in
    order reproduces the sequential output exactly.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if count <= 0:
        return []
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def map_cells_detailed(
    worker: Callable[[T], R],
    cells: Iterable[T],
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[CellResult]:
    """Supervised ``map``: one :class:`CellResult` per cell, input order.

    A cell that crashes its worker or times out is retried up to
    ``retries`` times; one that raises is not.  A cell that fails
    degrades to ``ok=False`` with the error recorded — the grid always
    completes.
    """
    width = jobs if jobs is not None else _default_jobs
    if width < 1:
        raise ValueError("jobs must be >= 1")
    return run_supervised(
        worker,
        cells,
        jobs=width,
        timeout=timeout if timeout is not None else _default_timeout,
        retries=retries if retries is not None else _default_retries,
    )


def map_cells(
    worker: Callable[[T], R],
    cells: Iterable[T],
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[R]:
    """``[worker(c) for c in cells]``, fanned out over processes.

    Results preserve input order, so a parallel run produces exactly the
    rows a sequential run would.  The pool width is capped by the cell
    count; with one job or one cell (and no timeout or active fault
    plan) the work runs in the calling process as a plain loop,
    preserving exception semantics exactly.  Under fan-out, worker death
    and hangs are supervised and retried; a cell that raised, or
    exhausted its retries, raises :class:`CellFailedError`.
    """
    cell_list: Sequence[T] = list(cells)
    width = jobs if jobs is not None else _default_jobs
    if width < 1:
        raise ValueError("jobs must be >= 1")
    if not cell_list:
        return []
    width = min(width, len(cell_list))
    if (
        width <= 1
        and faults.active_plan() is None
        and (timeout if timeout is not None else _default_timeout) is None
    ):
        return [worker(c) for c in cell_list]
    results = map_cells_detailed(
        worker, cell_list, jobs=width, timeout=timeout, retries=retries
    )
    failures = [
        (index, result.error or "unknown failure")
        for index, result in enumerate(results)
        if not result.ok
    ]
    if failures:
        raise CellFailedError(failures, results)
    return [result.value for result in results]  # type: ignore[misc]
