"""Vertex separators for nested dissection.

Nested dissection needs *vertex* separators; our multilevel partitioner
produces *edge* bisections.  The standard conversion picks a vertex cover
of the cut edges — removing those vertices disconnects the two sides.  We
use the greedy cover that repeatedly takes the endpoint covering the most
uncovered cut edges (a 2-approximation in cut size, matching what METIS's
``onmetis`` derives from its edge bisections).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import fm as _native_fm
from ..graph.csr import CSRGraph
from ..graph.subgraph import induced_subgraph
from .initial import GROW_TRIALS
from .multilevel import COARSEST_SIZE, bisect
from .refine import MAX_NEGATIVE_MOVES, MAX_PASSES

__all__ = ["Separation", "vertex_separator", "dissect_native"]

#: target fraction and imbalance of the edge bisection under a separator.
BISECT_FRACTION = 0.5
BISECT_IMBALANCE = 0.1


@dataclass(frozen=True)
class Separation:
    """A vertex separator split: left / right / separator vertex sets.

    ``engine`` is the tier of the underlying edge bisection
    (:attr:`repro.partition.multilevel.PartitionResult.engine`).
    """

    left: np.ndarray
    right: np.ndarray
    separator: np.ndarray
    engine: str


def vertex_separator(
    graph: CSRGraph,
    *,
    seed: int | np.random.Generator | None = 0,
) -> Separation:
    """Split ``graph`` into (left, right, separator).

    The separator is a greedy vertex cover of the edge bisection's cut.
    Every vertex lands in exactly one of the three sets.
    """
    n = graph.num_vertices
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return Separation(empty, empty, empty, "scalar")
    result = bisect(
        graph,
        target_fraction=BISECT_FRACTION,
        imbalance=BISECT_IMBALANCE,
        seed=seed,
    )
    part = result.assignment

    in_separator = _greedy_cover_scalar(graph, part)
    left = np.flatnonzero((part == 0) & ~in_separator)
    right = np.flatnonzero((part == 1) & ~in_separator)
    separator = np.flatnonzero(in_separator)
    return Separation(left, right, separator, result.engine)


def dissect_native(
    graph: CSRGraph, rng: np.random.Generator, leaf_size: int
) -> tuple[np.ndarray, int, int] | None:
    """A whole nested dissection of ``graph`` in one kernel call.

    Returns ``(sequence, max_depth, edge_ops)`` of the recursion in
    :class:`repro.ordering.nested_dissection.NestedDissectionOrder`,
    every separator a :func:`vertex_separator`, or None when the
    ``dissect_tree`` kernel declines (before any draw).  The kernel
    starts from the root that recursion builds first.
    """
    n = graph.num_vertices
    root = induced_subgraph(
        graph, np.arange(n, dtype=np.int64), keep_weights=False
    ).graph
    return _native_fm.dissect_tree(
        root.indptr,
        root.indices,
        graph.degrees(),
        rng,
        leaf_size=leaf_size,
        target_fraction=BISECT_FRACTION,
        imbalance=BISECT_IMBALANCE,
        trials=GROW_TRIALS,
        coarsest_size=COARSEST_SIZE,
        max_negative_moves=MAX_NEGATIVE_MOVES,
        max_passes=MAX_PASSES,
    )


def _greedy_cover_scalar(
    graph: CSRGraph, part: np.ndarray
) -> np.ndarray:
    """Greedy cover of the cut edges, one full max-rescan per pick.

    Takes the endpoint with the most uncovered cut edges, the lower id
    on a tie.  The ``dissect_tree`` kernel's lazy max-heap pops the
    same sequence (a vertex's count only falls).
    """
    n = graph.num_vertices
    # Collect cut edges.
    cut_edges: list[tuple[int, int]] = []
    for u in range(n):
        for v in graph.neighbors(u):
            v = int(v)
            if v > u and part[u] != part[v]:
                cut_edges.append((u, v))

    in_separator = np.zeros(n, dtype=bool)
    if cut_edges:
        # Greedy cover: count incidence on uncovered cut edges.
        incidence: dict[int, set[int]] = {}
        for idx, (u, v) in enumerate(cut_edges):
            incidence.setdefault(u, set()).add(idx)
            incidence.setdefault(v, set()).add(idx)
        uncovered = set(range(len(cut_edges)))
        while uncovered:
            best = max(
                incidence,
                key=lambda x: (len(incidence[x] & uncovered), -x),
            )
            covering = incidence.pop(best) & uncovered
            if not covering:
                break
            in_separator[best] = True
            uncovered -= covering
    return in_separator
