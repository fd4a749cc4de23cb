"""Multilevel minimum linear arrangement (Safro, Ron & Brandt; ref [34]).

The paper's Section III-A cites multilevel algorithms for linear ordering
problems as the serious way to attack MinLA.  This scheme implements the
classic V-cycle:

1. **Coarsen** — heavy-edge matching collapses vertex pairs (reusing the
   partitioner's matching/coarsening machinery) until the graph is small.
2. **Solve** — the coarsest graph is ordered directly (Cuthill–McKee
   sequence: cheap and gap-aware).
3. **Uncoarsen** — each coarse vertex expands into its fine members at
   adjacent positions, then *adjacent-swap refinement* sweeps the sequence,
   swapping neighbouring positions whenever that lowers the total linear
   arrangement gap (an O(deg) incremental test per swap).

The result is a dedicated gap-based scheme that is far cheaper than
annealing at comparable quality, completing Figure 3's taxonomy.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..partition.coarsen import coarsen_graph
from ..partition.matching import heavy_edge_matching, matching_to_coarse_map
from .base import OperationCounter, OrderingScheme
from .minla import swap_delta
from .rcm import cuthill_mckee_sequence

__all__ = ["MultilevelMinLA", "adjacent_swap_refine"]

#: solve directly below this size.
BASE_SIZE = 24


def adjacent_swap_refine(
    graph: CSRGraph,
    pi: np.ndarray,
    *,
    passes: int = 3,
    counter: OperationCounter | None = None,
) -> np.ndarray:
    """Greedy adjacent-position swaps until no improving swap (bounded).

    One pass walks the sequence once; swapping positions ``r`` and
    ``r + 1`` changes only the gaps of edges incident to the two vertices
    involved, evaluated incrementally via :func:`swap_delta`.
    """
    pi = pi.copy()
    sequence = np.argsort(pi, kind="stable")
    for _ in range(max(0, passes)):
        improved = False
        for r in range(sequence.size - 1):
            u, v = int(sequence[r]), int(sequence[r + 1])
            delta = swap_delta(graph, pi, u, v)
            if counter is not None:
                counter.count_edges(
                    graph.degree(u) + graph.degree(v)
                )
            if delta < 0:
                pi[u], pi[v] = pi[v], pi[u]
                sequence[r], sequence[r + 1] = v, u
                improved = True
        if not improved:
            break
    return pi


class MultilevelMinLA(OrderingScheme):
    """V-cycle multilevel ordering for the average-gap objective."""

    name = "minla_multilevel"
    category = "gap_based"

    def __init__(
        self,
        *,
        base_size: int = BASE_SIZE,
        refinement_passes: int = 3,
        seed: int | None = 0,
    ) -> None:
        super().__init__(seed=seed)
        if base_size < 2:
            raise ValueError("base_size must be at least 2")
        self._base_size = base_size
        self._refinement_passes = refinement_passes

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        levels = 0
        pi = self._solve(graph, counter, rng, depth=0)
        return pi, {"base_size": self._base_size, "levels": levels}

    # ------------------------------------------------------------------
    def _solve(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
        depth: int,
    ) -> np.ndarray:
        n = graph.num_vertices
        counter.count_vertices(n)
        if n <= self._base_size or depth > 40:
            sequence = cuthill_mckee_sequence(graph, counter)
            pi = np.empty(n, dtype=np.int64)
            pi[sequence] = np.arange(n, dtype=np.int64)
            return adjacent_swap_refine(
                graph, pi, passes=self._refinement_passes, counter=counter
            )

        match = heavy_edge_matching(graph, rng)
        coarse_map, num_coarse = matching_to_coarse_map(match)
        counter.count_edges(graph.num_directed_edges)
        if num_coarse >= n:
            # matching made no progress (edgeless residue): direct solve
            sequence = cuthill_mckee_sequence(graph, counter)
            pi = np.empty(n, dtype=np.int64)
            pi[sequence] = np.arange(n, dtype=np.int64)
            return pi

        level = coarsen_graph(graph, coarse_map, num_coarse)
        coarse_pi = self._solve(level.graph, counter, rng, depth + 1)

        # Interpolate: fine members of each coarse vertex take adjacent
        # ranks, coarse vertices in coarse-rank order.
        members: list[list[int]] = [[] for _ in range(num_coarse)]
        for v in range(n):
            members[int(coarse_map[v])].append(v)
        pi = np.empty(n, dtype=np.int64)
        rank = 0
        for coarse_vertex in np.argsort(coarse_pi, kind="stable"):
            for v in members[int(coarse_vertex)]:
                pi[v] = rank
                rank += 1
        return adjacent_swap_refine(
            graph, pi, passes=self._refinement_passes, counter=counter
        )
