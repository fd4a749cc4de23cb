"""Traversal-based orderings: BFS, DFS, and Children-DFS.

These are not part of the paper's 11-scheme study, but footnote 1 of
Section III-E singles out the *Children Depth-First Search* method of
Banerjee et al. as a relaxation of Cuthill–McKee "where the renumbering of
unvisited neighbours follows an arbitrary order at every level".  They are
provided as additional registry schemes (``bfs``, ``dfs``, ``cdfs``) and
used by the hybrid-engine ablation.

* **BFS order** — plain breadth-first discovery order from a
  pseudo-peripheral root per component.
* **DFS order** — depth-first discovery order (iterative, neighbours in
  natural order).
* **CDFS order** — Banerjee et al.'s Children-DFS: visit a vertex, then
  number *all* its unvisited children (in natural order) before descending
  into the first child's subtree — a level-relaxed Cuthill–McKee without
  the degree sort.

BFS runs frontier-at-a-time on the vector tier; the depth-first orders
are inherently sequential, so their vector paths batch each vertex's
neighbour filtering into array operations instead.  The original loops are
retained as the scalar ground truth (:mod:`repro.engine`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..engine import gather_neighbors, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme
from .rcm import _bfs_levels, _bfs_levels_scalar, _george_liu

__all__ = ["BFSOrder", "DFSOrder", "ChildrenDFSOrder"]


def _component_roots(
    graph: CSRGraph, counter: OperationCounter
) -> list[int]:
    """One pseudo-peripheral root per connected component, by min id."""
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    visited = np.zeros(n, dtype=bool)
    roots: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        root = _george_liu(graph, start, counter, _bfs_levels)
        roots.append(root)
        # mark the whole component visited so the scan skips it
        visited[root] = True
        frontier = np.asarray([root], dtype=np.int64)
        while frontier.size:
            targets, _ = gather_neighbors(indptr, indices, frontier)
            fresh = np.unique(targets[~visited[targets]])
            if fresh.size == 0:
                break
            visited[fresh] = True
            frontier = fresh
    return roots


def _component_roots_scalar(
    graph: CSRGraph, counter: OperationCounter
) -> list[int]:
    """Scalar reference for :func:`_component_roots`."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    roots: list[int] = []
    for start in range(n):
        if visited[start]:
            continue
        root = _george_liu(graph, start, counter, _bfs_levels_scalar)
        roots.append(root)
        visited[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    queue.append(int(v))
    return roots


class BFSOrder(OrderingScheme):
    """Breadth-first discovery order from pseudo-peripheral roots."""

    name = "bfs"
    category = "fill_reducing"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        if resolve_engine() == "scalar":
            return self._compute_scalar(graph, counter)
        n = graph.num_vertices
        indptr, indices = graph.indptr, graph.indices
        degrees = graph.degrees()
        visited = np.zeros(n, dtype=bool)
        chunks: list[np.ndarray] = []
        for root in _component_roots(graph, counter):
            if visited[root]:
                continue
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
                # Earliest parent claims each child (stable by child then
                # parent slot), then queue order: parent slot, child id.
                claim = np.lexsort((parents, children))
                children, parents = children[claim], parents[claim]
                first = np.ones(children.size, dtype=bool)
                first[1:] = children[1:] != children[:-1]
                children, parents = children[first], parents[first]
                level = children[np.lexsort((children, parents))]
                visited[level] = True
                chunks.append(level)
                frontier = level
            counter.count_edges(edge_ops)
        counter.count_vertices(n)
        sequence = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
        )
        return ordering_from_sequence(sequence), {}

    def _compute_scalar(
        self, graph: CSRGraph, counter: OperationCounter
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        visited = np.zeros(n, dtype=bool)
        sequence: list[int] = []
        for root in _component_roots_scalar(graph, counter):
            if visited[root]:
                continue
            visited[root] = True
            sequence.append(root)
            queue = deque([root])
            while queue:
                u = queue.popleft()
                nbrs = graph.neighbors(u)
                counter.count_edges(nbrs.size)
                for v in nbrs:
                    if not visited[v]:
                        visited[v] = True
                        sequence.append(int(v))
                        queue.append(int(v))
        counter.count_vertices(n)
        return ordering_from_sequence(
            np.asarray(sequence, dtype=np.int64)
        ), {}


class DFSOrder(OrderingScheme):
    """Depth-first discovery order (iterative)."""

    name = "dfs"
    category = "fill_reducing"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        if resolve_engine() == "scalar":
            return self._compute_scalar(graph, counter)
        n = graph.num_vertices
        indptr = graph.indptr
        indices = graph.indices
        visited = np.zeros(n, dtype=bool)
        sequence: list[int] = []
        edge_ops = 0
        for root in _component_roots(graph, counter):
            if visited[root]:
                continue
            stack = [root]
            while stack:
                u = stack.pop()
                if visited[u]:
                    continue
                visited[u] = True
                sequence.append(u)
                nbrs = indices[indptr[u]: indptr[u + 1]]
                edge_ops += nbrs.size
                # reversed so the lowest-id neighbour is explored first
                stack.extend(nbrs[~visited[nbrs]][::-1].tolist())
        counter.count_edges(edge_ops)
        counter.count_vertices(n)
        return ordering_from_sequence(
            np.asarray(sequence, dtype=np.int64)
        ), {}

    def _compute_scalar(
        self, graph: CSRGraph, counter: OperationCounter
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        visited = np.zeros(n, dtype=bool)
        sequence: list[int] = []
        for root in _component_roots_scalar(graph, counter):
            if visited[root]:
                continue
            stack = [root]
            while stack:
                u = stack.pop()
                if visited[u]:
                    continue
                visited[u] = True
                sequence.append(u)
                nbrs = graph.neighbors(u)
                counter.count_edges(nbrs.size)
                # reversed so the lowest-id neighbour is explored first
                for v in nbrs[::-1]:
                    if not visited[v]:
                        stack.append(int(v))
        counter.count_vertices(n)
        return ordering_from_sequence(
            np.asarray(sequence, dtype=np.int64)
        ), {}


class ChildrenDFSOrder(OrderingScheme):
    """Children-DFS (Banerjee et al. 1988).

    Number a vertex's unvisited children consecutively (arbitrary — here
    natural — order), then recurse into each child's subtree in turn.
    This keeps sibling groups contiguous like Cuthill–McKee but skips the
    per-level degree sort.
    """

    name = "cdfs"
    category = "fill_reducing"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        if resolve_engine() == "scalar":
            return self._compute_scalar(graph, counter)
        n = graph.num_vertices
        indptr = graph.indptr
        indices = graph.indices
        visited = np.zeros(n, dtype=bool)
        sequence: list[int] = []
        edge_ops = 0
        for root in _component_roots(graph, counter):
            if visited[root]:
                continue
            visited[root] = True
            sequence.append(root)
            stack = [root]
            while stack:
                u = stack.pop()
                nbrs = indices[indptr[u]: indptr[u + 1]]
                edge_ops += nbrs.size
                children = nbrs[~visited[nbrs]]
                visited[children] = True
                sequence.extend(children.tolist())
                # descend into children, first child's subtree first
                stack.extend(children[::-1].tolist())
        counter.count_edges(edge_ops)
        counter.count_vertices(n)
        return ordering_from_sequence(
            np.asarray(sequence, dtype=np.int64)
        ), {}

    def _compute_scalar(
        self, graph: CSRGraph, counter: OperationCounter
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        visited = np.zeros(n, dtype=bool)
        sequence: list[int] = []

        def expand(root: int) -> None:
            # Iterative version of: number children, then recurse.
            stack: list[int] = [root]
            while stack:
                u = stack.pop()
                children: list[int] = []
                nbrs = graph.neighbors(u)
                counter.count_edges(nbrs.size)
                for v in nbrs:
                    v = int(v)
                    if not visited[v]:
                        visited[v] = True
                        sequence.append(v)
                        children.append(v)
                # descend into children, first child's subtree first
                stack.extend(reversed(children))

        for root in _component_roots_scalar(graph, counter):
            if visited[root]:
                continue
            visited[root] = True
            sequence.append(root)
            expand(root)
        counter.count_vertices(n)
        return ordering_from_sequence(
            np.asarray(sequence, dtype=np.int64)
        ), {}
