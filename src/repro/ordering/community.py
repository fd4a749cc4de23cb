"""Community-detection-based orderings: Grappolo and Grappolo-RCM.

These are the two schemes the paper *introduces* (Section III-D):

* **Grappolo** — run (parallel) Louvain; relabel vertices so every
  community is contiguous, the relative order of communities arbitrary
  (we use ascending community id, i.e. discovery order).
* **Grappolo-RCM** — additionally build the coarse community graph (one
  vertex per community, edges = inter-community edges) and order the
  *communities* by RCM on that coarse graph, so nearby communities get
  nearby rank ranges.
"""

from __future__ import annotations

import numpy as np

from ..community.louvain import louvain
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from ..partition.coarsen import contract_by_labels
from .base import OperationCounter, OrderingScheme
from .rcm import cuthill_mckee_sequence

__all__ = ["GrappoloOrder", "GrappoloRcmOrder", "community_coarse_graph"]


def community_coarse_graph(
    graph: CSRGraph, communities: np.ndarray
) -> CSRGraph:
    """The coarse graph whose vertices are communities.

    Edge weights count the inter-community edges, whatever the input's
    weights (the contraction runs on the unweighted view); intra
    community edges are dropped (the coarse graph only routes the
    *relative* ordering of communities).
    """
    unweighted = CSRGraph(graph.indptr, graph.indices)
    return contract_by_labels(unweighted, communities).graph


def _sequence_by_community_rank(
    communities: np.ndarray, community_rank: np.ndarray
) -> np.ndarray:
    """Visit sequence: communities in rank order, members in natural order."""
    order = np.lexsort(
        (np.arange(communities.size), community_rank[communities])
    )
    return order.astype(np.int64)


class GrappoloOrder(OrderingScheme):
    """Louvain communities made contiguous; community order arbitrary."""

    name = "grappolo"
    category = "partitioning"

    def __init__(self, *, max_phases: int = 4, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        self._max_phases = max_phases

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        result = louvain(graph, max_phases=self._max_phases)
        communities = result.communities
        # Cost model: every iteration of every phase sweeps all edges.
        for phase in result.phases:
            per_iter = phase.num_edges * 2 + phase.num_vertices
            counter.count_edges(per_iter * phase.iteration_count)
        counter.count_sort(graph.num_vertices)

        num_comms = result.num_communities
        identity_rank = np.arange(max(num_comms, 1), dtype=np.int64)
        sequence = _sequence_by_community_rank(communities, identity_rank)
        return ordering_from_sequence(sequence), {
            "num_communities": num_comms,
            "modularity": result.modularity,
        }


class GrappoloRcmOrder(OrderingScheme):
    """Louvain communities ordered by RCM on the coarse community graph."""

    name = "grappolo_rcm"
    category = "partitioning"

    def __init__(self, *, max_phases: int = 4, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        self._max_phases = max_phases

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        result = louvain(graph, max_phases=self._max_phases)
        communities = result.communities
        for phase in result.phases:
            per_iter = phase.num_edges * 2 + phase.num_vertices
            counter.count_edges(per_iter * phase.iteration_count)

        coarse = community_coarse_graph(graph, communities)
        counter.count_edges(coarse.num_directed_edges)
        # RCM over communities: reverse of the Cuthill–McKee visit sequence.
        cm_sequence = cuthill_mckee_sequence(coarse, counter)
        rcm_sequence = cm_sequence[::-1].copy()
        community_rank = np.empty(coarse.num_vertices, dtype=np.int64)
        community_rank[rcm_sequence] = np.arange(
            coarse.num_vertices, dtype=np.int64
        )
        counter.count_sort(graph.num_vertices)
        sequence = _sequence_by_community_rank(communities, community_rank)
        return ordering_from_sequence(sequence), {
            "num_communities": result.num_communities,
            "modularity": result.modularity,
        }
