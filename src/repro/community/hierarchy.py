"""Community hierarchies (dendrograms) across Louvain phases.

Rabbit-Order maps the *hierarchical* community structure onto the cache
hierarchy; Grappolo-RCM orders the *coarse community graph* with RCM.  Both
need the multi-level view this module provides: the chain of community
assignments produced by successive Louvain phases, plus helpers to project
any level back to the original vertices and to extract the coarse graph at
a level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..partition.coarsen import contract_by_labels
from .louvain import louvain_one_phase

__all__ = ["CommunityHierarchy", "build_hierarchy"]


@dataclass(frozen=True)
class CommunityHierarchy:
    """The ladder of community assignments from repeated compaction.

    ``levels[i]`` maps the vertices of level ``i``'s graph to the vertices
    of level ``i + 1``'s graph; ``graphs[i]`` is the graph at level ``i``
    (``graphs[0]`` is the input).
    """

    graphs: tuple[CSRGraph, ...]
    levels: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        """Number of compaction levels."""
        return len(self.levels)

    def project_to_finest(self, level: int) -> np.ndarray:
        """Map original vertices to their community at ``level``.

        ``level = 0`` returns each vertex's first-phase community;
        ``level = depth - 1`` the coarsest communities.
        """
        if not 0 <= level < self.depth:
            raise IndexError(f"level {level} out of range [0, {self.depth})")
        mapping = self.levels[0]
        for i in range(1, level + 1):
            mapping = self.levels[i][mapping]
        return mapping

    def finest_communities(self) -> np.ndarray:
        """First-phase community of every original vertex."""
        return self.project_to_finest(0)

    def coarsest_communities(self) -> np.ndarray:
        """Top-level community of every original vertex."""
        return self.project_to_finest(self.depth - 1)


def build_hierarchy(
    graph: CSRGraph,
    *,
    max_levels: int = 8,
    threshold: float = 1e-4,
) -> CommunityHierarchy:
    """Run Louvain phases, recording every level of the dendrogram."""
    graphs: list[CSRGraph] = [graph]
    levels: list[np.ndarray] = []
    current = graph
    loops = np.zeros(graph.num_vertices, dtype=np.float64)
    for _ in range(max_levels):
        communities, stats = louvain_one_phase(
            current, self_loops=loops, threshold=threshold
        )
        num_comms = int(communities.max()) + 1 if communities.size else 0
        if num_comms >= current.num_vertices:
            break
        levels.append(communities)
        level = contract_by_labels(
            current, communities, vertex_weights=loops, keep_self_loops=True
        )
        current, loops = level.graph, level.vertex_weights
        graphs.append(current)
        if current.num_vertices <= 1:
            break
        if stats.iteration_count == 1 and stats.iterations[0].moves == 0:
            break
    if not levels:
        # Degenerate: no compaction happened; a single identity level keeps
        # the invariants (depth >= 1) for callers.
        levels.append(np.arange(graph.num_vertices, dtype=np.int64))
        graphs.append(graph)
    return CommunityHierarchy(graphs=tuple(graphs), levels=tuple(levels))
