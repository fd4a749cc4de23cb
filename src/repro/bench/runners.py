"""Shared machinery for running schemes over datasets with caching.

Computing an ordering can be expensive (Gorder, METIS, ND on the larger
surrogates), and several experiments need the same (scheme, dataset)
ordering.  The runner memoises orderings per process so Figures 1, 5, 6a,
6b and 8 share the work.

The caches are explicit dictionaries rather than ``lru_cache`` so that
parallel fan-out can *seed* them: ``warm_orderings``/``warm_measures``
compute missing cells through :func:`repro.bench.pool.map_cells` and
install the results, after which the sequential accessors are pure cache
hits in the parent process.

Resilience wiring (:mod:`repro.resilience`): a *supervised* warm (fault
plan active, or a default timeout set) fans out through
:func:`map_cells_detailed`: a cell that raises, or crashes or hangs past
its retries, lands in :func:`degraded_cells` with its last error and
attempt count instead of aborting the grid, and
``collect_scores``/``collect_costs`` emit NaN for it.  Resuming needs no
wiring here: orderings persist in the content-addressed store, so a
re-run after a kill serves them as store hits.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from ..datasets.registry import load
from ..graph.csr import CSRGraph
from ..measures.gaps import GapMeasures, gap_measures
from ..ordering.base import Ordering, get_scheme
from ..ordering.store import cached_order
from ..resilience import faults
from .pool import (
    default_jobs,
    default_timeout,
    map_cells,
    map_cells_detailed,
)

__all__ = [
    "ordering_for",
    "measures_for",
    "warm_orderings",
    "warm_measures",
    "collect_scores",
    "collect_costs",
    "degraded_cells",
    "reset_degraded",
    "reset_caches",
]

_ordering_cache: dict[tuple[str, str], Ordering] = {}
_measures_cache: dict[tuple[str, str], GapMeasures] = {}

#: (scheme, dataset) -> (last error, attempts) of the cells that
#: failed this process.
_degraded: dict[tuple[str, str], tuple[str, int]] = {}


def degraded_cells() -> dict[tuple[str, str], tuple[str, int]]:
    """The cells degraded so far, sorted by (scheme, dataset)."""
    return dict(sorted(_degraded.items()))


def reset_degraded() -> None:
    """Forget recorded degradations (tests and fresh runs)."""
    _degraded.clear()


def reset_caches() -> None:
    """Clear the in-process ordering/measures memos (tests).

    The bit-identity fault tests run the same grid twice in one process
    (faulted vs clean) and must not serve the second run from the first
    run's memo.
    """
    _ordering_cache.clear()
    _measures_cache.clear()


def _supervised() -> bool:
    """Whether warms should degrade instead of raising.

    True under an injected fault plan or when the CLI installed a
    per-cell timeout — exactly the modes where a grid must complete with
    holes rather than abort.  Plain library use keeps strict exception
    propagation.
    """
    return faults.active_plan() is not None or default_timeout() is not None


def ordering_for(scheme: str, dataset: str) -> Ordering:
    """The (memoised) ordering of ``scheme`` on ``dataset``.

    Misses in the in-process memo fall through to the persistent
    content-addressed store (:mod:`repro.ordering.store`), so repeated
    runs — and pool workers, which call this in their own process — skip
    recomputation entirely once an entry exists on disk.
    """
    key = (scheme, dataset)
    ordering = _ordering_cache.get(key)
    if ordering is None:
        ordering = cached_order(load(dataset), get_scheme(scheme))
        _ordering_cache[key] = ordering
    return ordering


def measures_for(scheme: str, dataset: str) -> GapMeasures:
    """The (memoised) gap measures of ``scheme`` on ``dataset``."""
    key = (scheme, dataset)
    measures = _measures_cache.get(key)
    if measures is None:
        graph = load(dataset)
        ordering = ordering_for(scheme, dataset)
        measures = gap_measures(graph, ordering.permutation)
        _measures_cache[key] = measures
    return measures


def _ordering_cell(cell: tuple[str, str]) -> Ordering:
    """Pool worker: compute one (scheme, dataset) ordering."""
    return ordering_for(*cell)


def _load_for_fan_out(
    missing: list[tuple[str, str]], jobs: int | None
) -> None:
    """Load every dataset of ``missing`` before a fan-out of width > 1.

    Pool workers are forked, so they inherit the parent's loaded graphs:
    a cold run builds (and stores) each graph once, not once per worker.
    The parent usually needs the graphs afterwards anyway (gap measures).
    """
    width = jobs if jobs is not None else default_jobs()
    if min(width, len(missing)) > 1:
        for dataset in dict.fromkeys(ds for _scheme, ds in missing):
            load(dataset)


def _measures_cell(cell: tuple[str, str]) -> GapMeasures:
    """Pool worker: compute one (scheme, dataset) gap-measure set."""
    return measures_for(*cell)


def _warm_supervised(
    missing: list[tuple[str, str]], *, kind: str, jobs: int | None
) -> None:
    """Degrading warm: supervise the missing cells.

    A cell that fails every attempt is added to :func:`degraded_cells`
    with its last error and attempt count — the grid always completes.
    """
    if kind == "measures":
        worker: Callable = _measures_cell
        cache: dict = _measures_cache
    else:
        worker = _ordering_cell
        cache = _ordering_cache
    dispatch = [pair for pair in missing if pair not in _degraded]
    if not dispatch:
        return
    _load_for_fan_out(dispatch, jobs)
    for pair, result in zip(
        dispatch, map_cells_detailed(worker, dispatch, jobs=jobs)
    ):
        if result.ok:
            cache[pair] = result.value
        else:
            _degraded[pair] = (
                result.error or "unknown failure", result.attempts
            )


def warm_orderings(
    pairs: Iterable[tuple[str, str]], *, jobs: int | None = None
) -> None:
    """Fill the ordering cache for ``pairs``, fanning out when missing.

    Deterministic: results are installed in input order, and each cell's
    value is identical to what the sequential accessor would compute.
    In supervised mode (faults or timeout active) failed cells degrade
    instead of raising.
    """
    missing = [
        p for p in dict.fromkeys(pairs) if p not in _ordering_cache
    ]
    if not missing:
        return
    if _supervised():
        _warm_supervised(missing, kind="ordering", jobs=jobs)
        return
    _load_for_fan_out(missing, jobs)
    for pair, ordering in zip(
        missing, map_cells(_ordering_cell, missing, jobs=jobs)
    ):
        _ordering_cache[pair] = ordering


def warm_measures(
    pairs: Iterable[tuple[str, str]], *, jobs: int | None = None
) -> None:
    """Fill the measures cache (and seed orderings) for ``pairs``."""
    missing = [
        p for p in dict.fromkeys(pairs) if p not in _measures_cache
    ]
    if not missing:
        return
    if _supervised():
        _warm_supervised(missing, kind="measures", jobs=jobs)
        return
    _load_for_fan_out(missing, jobs)
    for pair, measures in zip(
        missing, map_cells(_measures_cell, missing, jobs=jobs)
    ):
        _measures_cache[pair] = measures


def collect_scores(
    schemes: Iterable[str],
    datasets: Iterable[str],
    metric: Callable[[GapMeasures], float],
) -> dict[str, dict[str, float]]:
    """``scores[scheme][dataset]`` for a gap metric (profile input).

    Degraded cells (supervised runs only) come back as NaN so the grid
    renders with visible holes instead of aborting; the CLI names them
    on stderr.
    """
    schemes = list(schemes)
    datasets = list(datasets)
    warm_measures((s, ds) for s in schemes for ds in datasets)
    scores: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        row: dict[str, float] = {}
        for ds in datasets:
            if (scheme, ds) in _degraded:
                row[ds] = float("nan")
            else:
                row[ds] = float(metric(measures_for(scheme, ds)))
        scores[scheme] = row
    return scores


def collect_costs(
    schemes: Iterable[str],
    datasets: Iterable[str],
) -> dict[str, dict[str, float]]:
    """``costs[scheme][dataset]``: reordering operation counts (Fig. 4)."""
    schemes = list(schemes)
    datasets = list(datasets)
    warm_orderings((s, ds) for s in schemes for ds in datasets)
    costs: dict[str, dict[str, float]] = {}
    for scheme in schemes:
        row: dict[str, float] = {}
        for ds in datasets:
            if (scheme, ds) in _degraded:
                row[ds] = float("nan")
            else:
                row[ds] = float(max(1, ordering_for(scheme, ds).cost))
        costs[scheme] = row
    return costs


def relabelled_graph(scheme: str, dataset: str) -> CSRGraph:
    """The dataset graph relabelled under a scheme's ordering."""
    graph = load(dataset)
    return ordering_for(scheme, dataset).apply(graph)


def permutation_for(scheme: str, dataset: str) -> np.ndarray:
    """Just the permutation array of a memoised ordering."""
    return ordering_for(scheme, dataset).permutation
