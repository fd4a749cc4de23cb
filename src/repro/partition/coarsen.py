"""Graph coarsening: collapse matched pairs into coarse vertices.

Edges between coarse vertices aggregate the fine edge weights; vertex
weights (number of original vertices represented) are summed.  Coarsening
is used by the multilevel partitioner, by Louvain's between-phase
compaction in :mod:`repro.community.louvain` and by the Grappolo-RCM
community graph in :mod:`repro.ordering.community`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import resolve_engine
from ..graph.builder import GraphBuilder
from ..graph.csr import CSRGraph

__all__ = ["CoarseLevel", "coarsen_graph", "contract_by_labels"]


@dataclass(frozen=True)
class CoarseLevel:
    """One level of the coarsening hierarchy."""

    graph: CSRGraph
    vertex_weights: np.ndarray
    #: fine vertex id -> coarse vertex id
    fine_to_coarse: np.ndarray


def contract_by_labels(
    graph: CSRGraph,
    labels: np.ndarray,
    *,
    vertex_weights: np.ndarray | None = None,
    keep_self_loops: bool = False,
) -> CoarseLevel:
    """Contract every label class into a single coarse vertex.

    Parameters
    ----------
    labels:
        Array mapping each fine vertex to a coarse id in ``[0, k)``; ids
        must be dense (every id below the max appears).
    vertex_weights:
        Fine vertex weights (defaults to all ones).
    keep_self_loops:
        Intra-class edge weight is dropped by default (partitioners do not
        need it).  When set, each class's intra-class edge weight is
        added to its coarse vertex weight, after the member weights and
        in edge-scan order: with member self-loop weights passed as
        ``vertex_weights`` this is Louvain's coarse self-loop weight.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = graph.num_vertices
    if labels.size != n:
        raise ValueError("labels must cover every vertex")
    if n and int(labels.min()) < 0:
        raise ValueError("labels must be non-negative")
    num_coarse = int(labels.max()) + 1 if n else 0
    if vertex_weights is None:
        vertex_weights = np.ones(n, dtype=np.float64)
    indptr, indices = graph.indptr, graph.indices
    weights = graph.weights

    if resolve_engine() != "scalar":
        # Vector path: every accumulation goes through np.bincount, whose
        # sequential input-order summation matches the scalar scan —
        # vertex weights first, then (when kept) intra-class edge weights
        # in edge-scan order.
        srcs = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        upper = indices >= srcs
        uu, vv = srcs[upper], indices[upper]
        w_up = (
            weights[upper]
            if weights is not None
            else np.ones(uu.size, dtype=np.float64)
        )
        cu, cv = labels[uu], labels[vv]
        same = cu == cv
        if keep_self_loops:
            vw_ids = np.concatenate((labels, cu[same]))
            vw_vals = np.concatenate((vertex_weights, w_up[same]))
        else:
            vw_ids, vw_vals = labels, vertex_weights
        coarse_vw = np.bincount(
            vw_ids, weights=vw_vals, minlength=max(num_coarse, 1)
        ).astype(np.float64)[:num_coarse]
        diff_m = ~same
        lo = np.minimum(cu[diff_m], cv[diff_m])
        hi = np.maximum(cu[diff_m], cv[diff_m])
        key = lo * np.int64(max(num_coarse, 1)) + hi
        uniq, inverse = np.unique(key, return_inverse=True)
        merged = np.bincount(
            inverse, weights=w_up[diff_m], minlength=uniq.size
        )
        builder = GraphBuilder(num_coarse)
        builder.add_edge_array(
            uniq // max(num_coarse, 1), uniq % max(num_coarse, 1), merged
        )
        coarse = builder.build(weighted=True)
        return CoarseLevel(
            graph=coarse, vertex_weights=coarse_vw, fine_to_coarse=labels
        )

    coarse_vw = np.zeros(num_coarse, dtype=np.float64)
    np.add.at(coarse_vw, labels, vertex_weights)

    # Aggregate inter-class edge weights.
    edge_acc: dict[tuple[int, int], float] = {}
    for u in range(n):
        cu = int(labels[u])
        for k in range(indptr[u], indptr[u + 1]):
            v = int(indices[k])
            if v < u:
                continue  # each undirected edge once
            cv = int(labels[v])
            if cu == cv:
                if keep_self_loops:
                    coarse_vw[cu] += (
                        weights[k] if weights is not None else 1.0
                    )
                continue
            key = (min(cu, cv), max(cu, cv))
            w = float(weights[k]) if weights is not None else 1.0
            edge_acc[key] = edge_acc.get(key, 0.0) + w

    builder = GraphBuilder(num_coarse)
    for (cu, cv), w in edge_acc.items():
        builder.add_edge(cu, cv, w)
    coarse = builder.build(weighted=True)
    return CoarseLevel(
        graph=coarse, vertex_weights=coarse_vw, fine_to_coarse=labels
    )


def coarsen_graph(
    graph: CSRGraph,
    fine_to_coarse: np.ndarray,
    num_coarse: int,
    vertex_weights: np.ndarray | None = None,
) -> CoarseLevel:
    """Coarsen along a matching-derived map (dense ids ``[0, num_coarse)``)."""
    fine_to_coarse = np.asarray(fine_to_coarse, dtype=np.int64)
    if fine_to_coarse.max(initial=-1) >= num_coarse:
        raise ValueError("fine_to_coarse ids exceed num_coarse")
    return contract_by_labels(
        graph, fine_to_coarse, vertex_weights=vertex_weights
    )
