"""Linear arrangement gap measures (paper Section II-A).

Given a graph ``G`` and an ordering ``pi``, the *gap* of an edge ``(i, j)``
is ``|pi(i) - pi(j)|``.  The module computes every measure the paper
defines:

* edge gaps ``xi`` and the full *gap profile*,
* the average gap profile (average linear arrangement gap) ``xi_hat``,
* per-vertex bandwidth ``beta_i`` (max gap to any neighbour),
* graph bandwidth ``beta`` (maximum linear arrangement gap),
* average graph bandwidth ``beta_hat``,

plus the log-gap objective of the MinLogA problem (Section III-A), which is
relevant to graph compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import validate_ordering

__all__ = [
    "edge_gaps",
    "average_gap",
    "vertex_bandwidths",
    "graph_bandwidth",
    "average_bandwidth",
    "log_gap_cost",
    "GapMeasures",
    "gap_measures",
]


def edge_gaps(graph: CSRGraph, pi: np.ndarray | None = None) -> np.ndarray:
    """Gap of every undirected edge: the graph's *gap profile*.

    Parameters
    ----------
    graph:
        The input graph.
    pi:
        Ordering (rank array).  ``None`` means the natural ordering.

    Returns
    -------
    An array of length ``m`` with one gap per undirected edge.
    """
    edges = graph.edge_array()
    if edges.size == 0:
        return np.zeros(0, dtype=np.int64)
    if pi is None:
        ranks_u = edges[:, 0]
        ranks_v = edges[:, 1]
    else:
        pi = validate_ordering(pi, graph.num_vertices)
        ranks_u = pi[edges[:, 0]]
        ranks_v = pi[edges[:, 1]]
    return np.abs(ranks_u - ranks_v)


def average_gap(graph: CSRGraph, pi: np.ndarray | None = None) -> float:
    """Average gap profile ``xi_hat(G, pi)`` — the MinLA objective.

    Returns 0.0 for edgeless graphs.
    """
    gaps = edge_gaps(graph, pi)
    if gaps.size == 0:
        return 0.0
    return float(gaps.mean())


def vertex_bandwidths(
    graph: CSRGraph,
    pi: np.ndarray | None = None,
) -> np.ndarray:
    """Per-vertex bandwidth ``beta_i``: max gap from ``i`` to a neighbour.

    Isolated vertices get bandwidth 0.  The vector tier reduces all
    per-edge gaps by adjacency segment in one ``np.maximum.reduceat``;
    the scalar loop is the retained reference.
    """
    n = graph.num_vertices
    if pi is None:
        ranks = np.arange(n, dtype=np.int64)
    else:
        ranks = validate_ordering(pi, n)
    beta = np.zeros(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    if resolve_engine() != "scalar":
        if indices.size == 0:
            return beta
        degrees = np.diff(indptr)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        gaps = np.abs(ranks[indices] - ranks[src])
        # reduceat segments run start-to-start; restricting starts to
        # non-isolated vertices makes each segment exactly one adjacency
        # span (empty spans contribute no positions in between).
        nonzero = np.flatnonzero(degrees > 0)
        beta[nonzero] = np.maximum.reduceat(gaps, indptr[nonzero])
        return beta
    for v in range(n):
        start, end = indptr[v], indptr[v + 1]
        if end > start:
            gaps = np.abs(ranks[indices[start:end]] - ranks[v])
            beta[v] = gaps.max()
    return beta


def graph_bandwidth(graph: CSRGraph, pi: np.ndarray | None = None) -> int:
    """Graph bandwidth ``beta``: the maximum linear arrangement gap."""
    gaps = edge_gaps(graph, pi)
    if gaps.size == 0:
        return 0
    return int(gaps.max())


def average_bandwidth(graph: CSRGraph, pi: np.ndarray | None = None) -> float:
    """Average graph bandwidth ``beta_hat``: mean of per-vertex bandwidths."""
    if graph.num_vertices == 0:
        return 0.0
    return float(vertex_bandwidths(graph, pi).mean())


def log_gap_cost(graph: CSRGraph, pi: np.ndarray | None = None) -> float:
    """MinLogA objective: mean of ``log2(1 + gap)`` over all edges.

    Motivated by gap-coded graph compression (Boldi–Vigna), where the cost
    of encoding a neighbour is logarithmic in its gap.
    """
    gaps = edge_gaps(graph, pi)
    if gaps.size == 0:
        return 0.0
    return float(np.log2(1.0 + gaps).mean())


@dataclass(frozen=True)
class GapMeasures:
    """All scalar gap measures for one (graph, ordering) pair."""

    average_gap: float
    bandwidth: int
    average_bandwidth: float
    log_gap: float

    def as_dict(self) -> dict[str, float]:
        """Measures keyed by their short names used in reports."""
        return {
            "avg_gap": self.average_gap,
            "bandwidth": float(self.bandwidth),
            "avg_bandwidth": self.average_bandwidth,
            "log_gap": self.log_gap,
        }


def gap_measures(graph: CSRGraph, pi: np.ndarray | None = None) -> GapMeasures:
    """Compute every scalar gap measure in one pass over the edges."""
    gaps = edge_gaps(graph, pi)
    if gaps.size == 0:
        return GapMeasures(0.0, 0, 0.0, 0.0)
    return GapMeasures(
        average_gap=float(gaps.mean()),
        bandwidth=int(gaps.max()),
        average_bandwidth=float(vertex_bandwidths(graph, pi).mean()),
        log_gap=float(np.log2(1.0 + gaps).mean()),
    )
