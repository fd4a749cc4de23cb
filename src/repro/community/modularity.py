"""Modularity: the quality function of Louvain/Grappolo (Newman 2006).

For an undirected weighted graph with total edge weight ``M`` and a
community assignment ``c``::

    Q = (1 / 2M) * sum_ij [A_ij - k_i * k_j / 2M] * delta(c_i, c_j)

computed here in the standard per-community closed form::

    Q = sum_c [ w_in(c) / M - (k(c) / 2M)^2 ]

where ``w_in(c)`` is the intra-community edge weight and ``k(c)`` the total
weighted degree of community ``c``.
"""

from __future__ import annotations

import numpy as np

from ..engine import resolve_engine
from ..graph.csr import CSRGraph

__all__ = [
    "modularity",
    "modularity_with_loops",
    "community_internal_weights",
    "community_degrees",
    "weighted_degrees",
]


def weighted_degrees(graph: CSRGraph) -> np.ndarray:
    """Weighted degree of every vertex (plain degree when unweighted).

    Memoised per graph: Louvain evaluates modularity after every sweep and
    this array never changes for a given (immutable) graph.
    """
    if graph.weights is None:
        return graph.degrees().astype(np.float64)
    cached = graph._weighted_degrees
    if cached is not None:
        return cached
    n = graph.num_vertices
    degrees = np.zeros(n, dtype=np.float64)
    indptr = graph.indptr
    for v in range(n):
        degrees[v] = graph.weights[indptr[v]: indptr[v + 1]].sum()
    degrees.setflags(write=False)
    graph._weighted_degrees = degrees
    return degrees


def community_internal_weights(
    graph: CSRGraph, communities: np.ndarray
) -> np.ndarray:
    """Intra-community edge weight ``w_in(c)`` for every community.

    The vector tier replaces the per-edge loop with one masked
    ``np.bincount``.  ``bincount`` accumulates its input sequentially, so
    each community's weights are summed in the same (edge-scan) order as
    the scalar loop — the result is bit-identical.
    """
    communities = np.asarray(communities, dtype=np.int64)
    num_comms = int(communities.max()) + 1 if communities.size else 0
    indptr, indices = graph.indptr, graph.indices
    weights = graph.weights
    if resolve_engine() != "scalar":
        srcs = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr)
        )
        intra = (indices > srcs) & (
            communities[indices] == communities[srcs]
        )
        ids = communities[srcs[intra]]
        if weights is None:
            counts = np.bincount(ids, minlength=num_comms)
            return counts.astype(np.float64)
        return np.bincount(
            ids, weights=weights[intra], minlength=num_comms
        ).astype(np.float64)
    w_in = np.zeros(num_comms, dtype=np.float64)
    for u in range(graph.num_vertices):
        cu = communities[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if v > u and communities[v] == cu:
                w_in[cu] += float(weights[k]) if weights is not None else 1.0
    return w_in


def community_degrees(
    graph: CSRGraph, communities: np.ndarray
) -> np.ndarray:
    """Total weighted degree ``k(c)`` of every community."""
    communities = np.asarray(communities, dtype=np.int64)
    num_comms = int(communities.max()) + 1 if communities.size else 0
    acc = np.zeros(num_comms, dtype=np.float64)
    np.add.at(acc, communities, weighted_degrees(graph))
    return acc


def modularity(graph: CSRGraph, communities: np.ndarray) -> float:
    """Modularity ``Q`` of an assignment; 0.0 for edgeless graphs.

    ``Q`` lies in ``[-0.5, 1)``; higher is better.
    """
    total = graph.total_weight()
    if total == 0:
        return 0.0
    w_in = community_internal_weights(graph, communities)
    k_c = community_degrees(graph, communities)
    return float((w_in / total).sum() - ((k_c / (2.0 * total)) ** 2).sum())


def modularity_with_loops(
    graph: CSRGraph,
    self_loops: np.ndarray,
    communities: np.ndarray,
) -> float:
    """Modularity of a *compacted* graph carrying self-loop weights.

    Louvain's between-phase compaction folds each community's internal
    weight into a coarse self-loop; that weight counts toward both the
    internal weight and the degree of whatever community the coarse vertex
    joins.  With zero ``self_loops`` this equals :func:`modularity` on the
    original graph under the projected assignment.
    """
    self_loops = np.asarray(self_loops, dtype=np.float64)
    communities = np.asarray(communities, dtype=np.int64)
    total = graph.total_weight() + float(self_loops.sum())
    if total == 0:
        return 0.0
    num_comms = int(communities.max()) + 1 if communities.size else 0
    w_in = community_internal_weights(graph, communities)
    if w_in.size < num_comms:
        w_in = np.pad(w_in, (0, num_comms - w_in.size))
    np.add.at(w_in, communities, self_loops)
    k_c = community_degrees(graph, communities)
    if k_c.size < num_comms:
        k_c = np.pad(k_c, (0, num_comms - k_c.size))
    loop_degrees = np.zeros(num_comms, dtype=np.float64)
    np.add.at(loop_degrees, communities, 2.0 * self_loops)
    k_c = k_c + loop_degrees
    return float((w_in / total).sum() - ((k_c / (2.0 * total)) ** 2).sum())
