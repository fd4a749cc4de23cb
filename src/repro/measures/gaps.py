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

    Isolated vertices get bandwidth 0.  The vector tier is the
    chunked walk of :func:`_walk_gaps`; the scalar loop is the retained
    reference.
    """
    n = graph.num_vertices
    ranks = _ranks(pi, n)
    if resolve_engine() != "scalar":
        return _walk_gaps(graph, ranks)[1]
    beta = np.zeros(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    for v in range(n):
        start, end = indptr[v], indptr[v + 1]
        if end > start:
            gaps = np.abs(ranks[indices[start:end]] - ranks[v])
            beta[v] = gaps.max()
    return beta


#: adjacency slots per chunk of :func:`_walk_gaps`: each temporary
#: stays at 512 KiB whatever the graph's size (on a 1M-edge R-MAT
#: graph, 2**16 ran faster than 2**18 or one whole-graph chunk).
_CHUNK_SLOTS = 1 << 16


def _ranks(pi: np.ndarray | None, n: int) -> np.ndarray:
    if pi is None:
        return np.arange(n, dtype=np.int64)
    return validate_ordering(pi, n)


def _walk_gaps(
    graph: CSRGraph, ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(edge gaps, vertex bandwidths)`` in one walk over the CSR.

    The edge gaps are those of :func:`edge_gaps`, in ``edge_array``
    order (each ``u <= v`` slot, row by row), so every reduction over
    them sums the same array.  Rows go in chunks of about
    ``_CHUNK_SLOTS`` adjacency slots (a longer row is a chunk of its
    own), so no temporary spans all ``2m`` slots.
    """
    n = graph.num_vertices
    indptr, indices = graph.indptr, graph.indices
    beta = np.zeros(n, dtype=np.int64)
    pieces = [np.zeros(0, dtype=np.int64)]
    r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(
            indptr, indptr[r0] + _CHUNK_SLOTS, side="right"
        )) - 1
        r1 = max(r1, r0 + 1)
        lo = indptr[r0]
        degrees = np.diff(indptr[r0:r1 + 1])
        nbrs = indices[lo:indptr[r1]]
        gaps = np.abs(ranks[nbrs] - np.repeat(ranks[r0:r1], degrees))
        # reduceat segments run start-to-start; restricting starts to
        # non-isolated rows makes each segment exactly one adjacency
        # span (empty spans contribute no positions in between).
        rows = np.flatnonzero(degrees > 0)
        if rows.size:
            beta[r0 + rows] = np.maximum.reduceat(
                gaps, indptr[r0 + rows] - lo
            )
        src = np.repeat(np.arange(r0, r1, dtype=np.int64), degrees)
        pieces.append(gaps[src <= nbrs])
        r0 = r1
    return np.concatenate(pieces), beta


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
    gaps, beta = _walk_gaps(graph, _ranks(pi, graph.num_vertices))
    if gaps.size == 0:
        return GapMeasures(0.0, 0, 0.0, 0.0)
    return GapMeasures(
        average_gap=float(gaps.mean()),
        bandwidth=int(gaps.max()),
        average_bandwidth=float(beta.mean()),
        log_gap=float(np.log2(1.0 + gaps).mean()),
    )
