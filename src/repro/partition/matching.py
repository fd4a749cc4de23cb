"""Heavy-edge matching for multilevel coarsening.

The first phase of a METIS-style multilevel partitioner pairs vertices
along heavy edges so that collapsing the pairs preserves as much edge
weight as possible inside coarse vertices.  We implement the standard
randomised heavy-edge matching (HEM): visit vertices in random order and
match each unmatched vertex with its unmatched neighbour of maximum edge
weight (ties broken by lower vertex id for determinism given the RNG).
"""

from __future__ import annotations

import numpy as np

from .._native import fm as _native_fm
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from .initial import check_vertex_weights

__all__ = ["heavy_edge_matching", "matching_to_coarse_map"]


def heavy_edge_matching(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    vertex_weights: np.ndarray | None = None,
    max_vertex_weight: float | None = None,
) -> np.ndarray:
    """Compute a heavy-edge matching.

    Parameters
    ----------
    graph:
        The (possibly weighted) graph to match.
    rng:
        Randomises the visit order — different seeds explore different
        coarsenings, as in METIS.
    vertex_weights / max_vertex_weight:
        When provided, a pair is only matched if the combined vertex weight
        stays at or below ``max_vertex_weight`` (prevents one coarse vertex
        from swallowing the graph on star-like inputs).

    Returns
    -------
    ``match`` array where ``match[v]`` is the partner of ``v`` (or ``v``
    itself when unmatched).
    """
    n = graph.num_vertices
    if vertex_weights is not None:
        vertex_weights = check_vertex_weights(
            vertex_weights, n, "heavy_edge_matching"
        )
    visit_order = rng.permutation(n)
    if resolve_engine() == "native":
        match = _native_fm.hem_match(
            graph.indptr,
            graph.indices,
            graph.weights,
            np.ascontiguousarray(visit_order, dtype=np.int64),
            vertex_weights,
            max_vertex_weight,
        )
        if match is not None:
            return match
    match = np.full(n, -1, dtype=np.int64)
    for u in visit_order:
        u = int(u)
        if match[u] != -1:
            continue
        nbrs = graph.neighbors(u)
        wts = graph.neighbor_weights(u)
        best = -1
        best_w = -1.0
        for v, w in zip(nbrs, wts):
            v = int(v)
            if v == u or match[v] != -1:
                continue
            if (
                vertex_weights is not None
                and max_vertex_weight is not None
                and vertex_weights[u] + vertex_weights[v] > max_vertex_weight
            ):
                continue
            if w > best_w or (w == best_w and v < best):
                best, best_w = v, float(w)
        if best == -1:
            match[u] = u
        else:
            match[u] = best
            match[best] = u
    return match


def matching_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Convert a matching into a fine-to-coarse vertex map.

    Returns ``(coarse_of, num_coarse)`` where matched pairs share a coarse
    id and unmatched vertices get their own.  Coarse ids are assigned in
    increasing order of the pair's lower fine id, so the map is
    deterministic given the matching.
    """
    n = match.size
    # the kernel writes coarse_of[match[v]]: a partner outside [0, n)
    # would land outside the map
    if n and (match.min() < 0 or match.max() >= n):
        raise ValueError(
            f"matching_to_coarse_map: partners must lie in [0, {n})"
        )
    if resolve_engine() == "native":
        mapped = _native_fm.coarse_map(
            np.ascontiguousarray(match, dtype=np.int64)
        )
        if mapped is not None:
            return mapped
    coarse_of = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        partner = int(match[v])
        coarse_of[v] = next_id
        if partner != v:
            coarse_of[partner] = next_id
        next_id += 1
    return coarse_of, next_id
