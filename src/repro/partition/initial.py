"""Initial bisection of the coarsest graph (graph-growing heuristic).

METIS computes the initial partition on the coarsest graph with greedy
graph growing (GGGP): grow a region by BFS from a random seed, always
absorbing the frontier vertex with the best cut gain, until half the total
vertex weight is inside.  Several trials are run and the best cut kept.
"""

from __future__ import annotations

import numpy as np

from .._native import fm as _native_fm
from ..engine import resolve_engine
from ..graph.csr import CSRGraph

__all__ = [
    "GROW_TRIALS",
    "check_vertex_weights",
    "greedy_bisection",
    "edge_cut",
    "partition_weights",
]

#: greedy-growing tries per initial bisection (the best cut is kept).
GROW_TRIALS = 4


def check_vertex_weights(
    vertex_weights: np.ndarray, n: int, where: str
) -> np.ndarray:
    """``vertex_weights`` as an array holding one weight per vertex.

    The partition kernels read ``vertex_weights[v]`` for every vertex
    ``v`` unchecked, so anything but a 1-D array of length ``n`` is
    rejected before a kernel runs.
    """
    weights = np.asarray(vertex_weights)
    if weights.shape != (n,):
        raise ValueError(
            f"{where}: vertex_weights must be 1-D with one weight per "
            f"vertex (n = {n}), got shape {weights.shape}"
        )
    return weights


def edge_cut(graph: CSRGraph, part: np.ndarray) -> float:
    """Total weight of edges crossing between parts.

    The vector path sums the crossing weights with ``cumsum`` (sequential
    accumulation, unlike ``np.sum``'s pairwise blocking) so the float
    result is bit-identical to the scalar scan.
    """
    indptr, indices = graph.indptr, graph.indices
    weights = graph.weights
    part = np.asarray(part)
    if resolve_engine() != "scalar":
        srcs = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(indptr)
        )
        crossing = (indices > srcs) & (part[indices] != part[srcs])
        if weights is None:
            return float(np.count_nonzero(crossing))
        sel = weights[crossing]
        return float(np.cumsum(sel)[-1]) if sel.size else 0.0
    cut = 0.0
    for u in range(graph.num_vertices):
        pu = part[u]
        for k in range(indptr[u], indptr[u + 1]):
            v = indices[k]
            if v > u and part[v] != pu:
                cut += float(weights[k]) if weights is not None else 1.0
    return cut


def partition_weights(
    part: np.ndarray,
    vertex_weights: np.ndarray,
    num_parts: int = 2,
) -> np.ndarray:
    """Total vertex weight per part."""
    acc = np.zeros(num_parts, dtype=np.float64)
    np.add.at(acc, part, vertex_weights)
    return acc


def greedy_bisection(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    *,
    target_fraction: float = 0.5,
    trials: int = GROW_TRIALS,
) -> np.ndarray:
    """Bisect into parts {0, 1} targeting ``target_fraction`` weight in 0.

    Returns the best (lowest-cut) assignment over ``trials`` random seeds.
    """
    n = graph.num_vertices
    vertex_weights = check_vertex_weights(
        vertex_weights, n, "greedy_bisection"
    )
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    total_weight = float(vertex_weights.sum())
    target = target_fraction * total_weight

    best_part: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(max(1, trials)):
        part = _grow_one(graph, vertex_weights, rng, target)
        cut = edge_cut(graph, part)
        if cut < best_cut:
            best_cut = cut
            best_part = part
    assert best_part is not None
    return best_part


def _grow_one(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    target: float,
) -> np.ndarray:
    """One graph-growing trial from a random seed vertex.

    The rng draws (seed pick, disconnected top-up) stay in Python so the
    random stream is identical across tiers; only the deterministic
    growth loop escalates to the C kernel under the native tier.
    """
    n = graph.num_vertices
    part = np.ones(n, dtype=np.int64)  # everything starts in part 1
    seed = int(rng.integers(n))
    grown: float | None = None
    if resolve_engine() == "native":
        grown = _native_fm.grow_region(
            graph.indptr,
            graph.indices,
            graph.weights,
            np.ascontiguousarray(vertex_weights, dtype=np.float64),
            seed,
            target,
            part,
        )
    if grown is None:
        grown = _grow_one_scalar(graph, vertex_weights, part, seed, target)
    if not (part == 0).any():
        # degenerate: put the seed alone in part 0
        part[seed] = 0
    elif grown == 0.0:
        part[seed] = 0
    # If we ran out of frontier before reaching target (disconnected coarse
    # graph), top up with arbitrary part-1 vertices.
    while grown < target:
        remaining = np.flatnonzero(part == 1)
        if remaining.size <= 1:
            break
        v = int(remaining[rng.integers(remaining.size)])
        part[v] = 0
        grown += float(vertex_weights[v])
    return part


def _grow_one_scalar(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    part: np.ndarray,
    seed: int,
    target: float,
) -> float:
    """The reference growth loop; mutates ``part``, returns grown weight."""
    in_zero = np.zeros(part.size, dtype=bool)
    # gain[v] = (weight to part 0) - (weight to part 1-side neighbours);
    # we track only the frontier lazily with a dict for simplicity at the
    # coarsest-graph scale (tens of vertices).
    grown = 0.0
    frontier: dict[int, float] = {seed: 0.0}
    while frontier and grown < target:
        # absorb the frontier vertex with max gain (ties: lowest id).
        v = max(frontier, key=lambda x: (frontier[x], -x))
        frontier.pop(v)
        if in_zero[v]:
            continue
        in_zero[v] = True
        part[v] = 0
        grown += float(vertex_weights[v])
        nbrs = graph.neighbors(v)
        wts = graph.neighbor_weights(v)
        for u, w in zip(nbrs, wts):
            u = int(u)
            if in_zero[u]:
                continue
            frontier[u] = frontier.get(u, 0.0) + float(w)
    return grown
