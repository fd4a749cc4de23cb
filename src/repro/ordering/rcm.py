"""Reverse Cuthill–McKee ordering (paper Section III-E).

RCM is the classic bandwidth-reducing fill ordering: starting from a vertex
of small degree (we use the George–Liu pseudo-peripheral finder), vertices
are numbered in BFS discovery order with neighbours visited in
non-decreasing degree order, and the final sequence is reversed.  Multiple
components are handled by restarting from the unvisited vertex of smallest
degree.

The paper finds RCM the clear winner on graph bandwidth (Figure 6a) and
competitive on the average gap profile (Figure 5).

Both BFS primitives here run on the frontier-at-a-time vector tier by
default (whole levels expanded with one CSR gather) with the original
per-vertex queue loops retained as the scalar ground truth; see
:mod:`repro.engine` for the contract and the switch.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..engine import gather_neighbors, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme

__all__ = ["RCMOrder", "pseudo_peripheral_vertex", "cuthill_mckee_sequence"]


def pseudo_peripheral_vertex(
    graph: CSRGraph,
    start: int,
    counter: OperationCounter | None = None,
) -> int:
    """Find a pseudo-peripheral vertex of ``start``'s component.

    George–Liu iteration: repeatedly BFS from the current candidate and hop
    to a minimum-degree vertex in the last (deepest) level, until the
    eccentricity stops growing.  The BFS is the scalar queue loop under
    the scalar engine and frontier-at-a-time otherwise.
    """
    levels_of = (
        _bfs_levels_scalar if resolve_engine() == "scalar" else _bfs_levels
    )
    return _george_liu(graph, start, counter, levels_of)


def _george_liu(
    graph: CSRGraph,
    start: int,
    counter: OperationCounter | None,
    levels_of: Callable[..., np.ndarray],
) -> int:
    """:func:`pseudo_peripheral_vertex` with the BFS tier ``levels_of``."""
    degrees = graph.degrees()
    current = start
    current_depth = -1
    while True:
        levels = levels_of(graph, current, counter)
        depth = levels.max(initial=0)
        if depth <= current_depth:
            return current
        current_depth = depth
        last_level = np.flatnonzero(levels == depth)
        current = int(last_level[np.argmin(degrees[last_level])])


def _bfs_levels(
    graph: CSRGraph, start: int, counter: OperationCounter | None
) -> np.ndarray:
    """BFS levels within ``start``'s component; other vertices get -1.

    Frontier-at-a-time: each level is one CSR gather.
    """
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    indptr, indices = graph.indptr, graph.indices
    degrees = graph.degrees()
    frontier = np.asarray([start], dtype=np.int64)
    depth = 0
    edge_ops = 0
    while frontier.size:
        edge_ops += int(degrees[frontier].sum())
        targets, _ = gather_neighbors(indptr, indices, frontier)
        fresh = np.unique(targets[levels[targets] == -1])
        if fresh.size == 0:
            break
        depth += 1
        levels[fresh] = depth
        frontier = fresh
    if counter is not None:
        counter.count_edges(edge_ops)
    return levels


def _bfs_levels_scalar(
    graph: CSRGraph, start: int, counter: OperationCounter | None
) -> np.ndarray:
    """Scalar reference for :func:`_bfs_levels` (per-vertex queue loop)."""
    n = graph.num_vertices
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    queue = deque([start])
    edge_ops = 0
    while queue:
        u = queue.popleft()
        lu = levels[u]
        nbrs = graph.neighbors(u)
        edge_ops += nbrs.size
        for v in nbrs:
            if levels[v] == -1:
                levels[v] = lu + 1
                queue.append(int(v))
    if counter is not None:
        counter.count_edges(edge_ops)
    # Mask levels of other components back to -1 semantics: they stay -1.
    return levels


def cuthill_mckee_sequence(
    graph: CSRGraph, counter: OperationCounter | None = None
) -> np.ndarray:
    """The (un-reversed) Cuthill–McKee visit sequence over all components."""
    if resolve_engine() == "scalar":
        return _cuthill_mckee_scalar(graph, counter)
    n = graph.num_vertices
    degrees = graph.degrees()
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(n, dtype=bool)
    chunks: list[np.ndarray] = []
    # Process component starts in non-decreasing degree order, matching the
    # "resume with another unvisited vertex of the smallest degree" rule.
    order_by_degree = np.argsort(degrees, kind="stable")
    if counter is not None:
        counter.count_sort(n)
    for candidate in order_by_degree:
        if visited[candidate]:
            continue
        root = _george_liu(graph, int(candidate), counter, _bfs_levels)
        visited[root] = True
        chunks.append(np.asarray([root], dtype=np.int64))
        frontier = chunks[-1]
        edge_ops = 0
        while frontier.size:
            edge_ops += int(degrees[frontier].sum())
            targets, slots = gather_neighbors(indptr, indices, frontier)
            keep = ~visited[targets]
            children, parents = targets[keep], slots[keep]
            if children.size == 0:
                break
            # Each child is claimed by its earliest parent in queue order —
            # stable sort by (child, parent slot), keep first occurrence.
            claim = np.lexsort((parents, children))
            children, parents = children[claim], parents[claim]
            first = np.ones(children.size, dtype=bool)
            first[1:] = children[1:] != children[:-1]
            children, parents = children[first], parents[first]
            if counter is not None:
                # One degree-sort per parent over its claimed children.
                counter.count_sort_batch(
                    np.bincount(parents, minlength=frontier.size)
                )
            # Queue order: parents in frontier order, each parent's
            # children by (degree, id) — exactly the scalar visit rule.
            level = children[
                np.lexsort((children, degrees[children], parents))
            ]
            visited[level] = True
            chunks.append(level)
            frontier = level
        if counter is not None:
            counter.count_edges(edge_ops)
    if not chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(chunks)


def _cuthill_mckee_scalar(
    graph: CSRGraph,
    counter: OperationCounter | None = None,
) -> np.ndarray:
    """Scalar reference for :func:`cuthill_mckee_sequence`."""
    n = graph.num_vertices
    degrees = graph.degrees()
    visited = np.zeros(n, dtype=bool)
    sequence: list[int] = []
    order_by_degree = np.argsort(degrees, kind="stable")
    if counter is not None:
        counter.count_sort(n)
    for candidate in order_by_degree:
        if visited[candidate]:
            continue
        root = _george_liu(
            graph, int(candidate), counter, _bfs_levels_scalar
        )
        visited[root] = True
        sequence.append(root)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            nbrs = graph.neighbors(u)
            if counter is not None:
                counter.count_edges(nbrs.size)
            fresh = [int(v) for v in nbrs if not visited[v]]
            fresh.sort(key=lambda v: (int(degrees[v]), v))
            if counter is not None:
                counter.count_sort(len(fresh))
            for v in fresh:
                if not visited[v]:
                    visited[v] = True
                    sequence.append(v)
                    queue.append(v)
    return np.asarray(sequence, dtype=np.int64)


class RCMOrder(OrderingScheme):
    """Reverse Cuthill–McKee."""

    name = "rcm"
    category = "fill_reducing"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        counter.count_vertices(graph.num_vertices)
        sequence = cuthill_mckee_sequence(graph, counter)
        reversed_sequence = sequence[::-1].copy()
        return ordering_from_sequence(reversed_sequence), {}
