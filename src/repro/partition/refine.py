"""Fiduccia–Mattheyses boundary refinement for bisections.

After projecting a coarse bisection to a finer level, METIS improves it
with a boundary variant of FM: repeatedly move the boundary vertex with the
best cut gain to the other side, subject to a balance constraint, allowing
a bounded number of non-improving moves (hill climbing), and roll back to
the best prefix of moves seen.  One such pass is repeated until no
improvement.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._native import fm as _native_fm
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from .initial import check_vertex_weights, edge_cut, partition_weights

__all__ = ["MAX_NEGATIVE_MOVES", "MAX_PASSES", "fm_refine", "move_gains"]

#: full FM passes per refinement, at most.
MAX_PASSES = 4

#: non-improving moves a pass may make before it rolls back.
MAX_NEGATIVE_MOVES = 32


def move_gains(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Cut-gain of moving each vertex to the opposite part.

    ``gain[v] = external weight - internal weight`` with respect to ``v``'s
    current side, summed in row order; positive gain moves reduce the
    cut.
    """
    # Python lists: this loop runs about twice as slow indexing the
    # numpy arrays element by element
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    weights = None if graph.weights is None else graph.weights.tolist()
    part = np.asarray(part).tolist()
    gains = np.zeros(graph.num_vertices, dtype=np.float64)
    for u in range(graph.num_vertices):
        pu = part[u]
        g = 0.0
        for k in range(indptr[u], indptr[u + 1]):
            w = weights[k] if weights is not None else 1.0
            if part[indices[k]] == pu:
                g -= w
            else:
                g += w
        gains[u] = g
    return gains


def fm_refine(
    graph: CSRGraph,
    part: np.ndarray,
    vertex_weights: np.ndarray,
    *,
    target_fraction: float = 0.5,
    imbalance: float = 0.1,
    max_passes: int = MAX_PASSES,
    max_negative_moves: int = MAX_NEGATIVE_MOVES,
) -> np.ndarray:
    """Refine a bisection in place-style (returns a new array).

    Parameters
    ----------
    target_fraction:
        Desired share of total vertex weight in part 0.
    imbalance:
        Part 0 may hold at most ``(1 + imbalance) * target_fraction *
        total`` weight (and symmetrically for part 1), so uneven targets
        from recursive k-way bisection are preserved.
    max_passes:
        Upper bound on full FM passes.
    max_negative_moves:
        Hill-climbing budget within a pass before rolling back.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    n = graph.num_vertices
    # the kernel indexes part weights by label: anything but one 0/1
    # label per vertex would write outside them
    if part.shape != (n,) or (n and (part.min() < 0 or part.max() > 1)):
        raise ValueError(
            f"fm_refine: part must hold one 0/1 label per vertex "
            f"(n = {n})"
        )
    vertex_weights = check_vertex_weights(vertex_weights, n, "fm_refine")
    if n == 0:
        return part
    total = float(vertex_weights.sum())
    limits = (
        (1.0 + imbalance) * target_fraction * total,
        (1.0 + imbalance) * (1.0 - target_fraction) * total,
    )

    if resolve_engine() == "native":
        done = _native_fm.refine(
            graph.indptr,
            graph.indices,
            graph.weights,
            part,
            np.ascontiguousarray(vertex_weights, dtype=np.float64),
            limits,
            max_negative_moves,
            max_passes,
        )
        if done:
            return part

    for _ in range(max_passes):
        improved = _one_pass(
            graph, part, vertex_weights, limits, max_negative_moves
        )
        if not improved:
            break
    return part


def _one_pass(
    graph: CSRGraph,
    part: np.ndarray,
    vertex_weights: np.ndarray,
    limits: tuple[float, float],
    max_negative_moves: int,
) -> bool:
    """One FM pass; mutates ``part``; returns whether the cut improved.

    The scalar reference of the ``fm_refine`` kernel, which runs the
    whole pass loop in C.  Every engine but ``"native"`` runs this pass,
    and so does the native engine when the kernel cannot run.
    """
    n = graph.num_vertices
    gains = move_gains(graph, part)
    weights = partition_weights(part, vertex_weights)
    start_cut = edge_cut(graph, part)

    locked = np.zeros(n, dtype=bool)
    # Lazy max-heap over (-gain, v); only boundary vertices are useful but
    # seeding all is simpler and correct (stale entries skipped).
    heap = [(-gains[v], v) for v in range(n)]
    heapq.heapify(heap)

    moves: list[int] = []
    cut = start_cut
    best_cut = start_cut
    best_prefix = 0
    negatives = 0

    indptr, indices = graph.indptr, graph.indices
    edge_w = graph.weights

    while heap and negatives <= max_negative_moves:
        neg_gain, v = heapq.heappop(heap)
        if locked[v] or -neg_gain != gains[v]:
            continue
        src = int(part[v])
        dst = 1 - src
        vw = float(vertex_weights[v])
        if weights[dst] + vw > limits[dst]:
            continue  # would unbalance; skip this vertex this pass
        # Commit the move.
        locked[v] = True
        part[v] = dst
        weights[src] -= vw
        weights[dst] += vw
        cut -= gains[v]
        moves.append(v)
        if cut < best_cut - 1e-12:
            best_cut = cut
            best_prefix = len(moves)
            negatives = 0
        else:
            negatives += 1
        # Update neighbour gains.
        for k in range(indptr[v], indptr[v + 1]):
            u = int(indices[k])
            if locked[u]:
                continue
            w = float(edge_w[k]) if edge_w is not None else 1.0
            if part[u] == dst:
                gains[u] -= 2.0 * w
            else:
                gains[u] += 2.0 * w
            heapq.heappush(heap, (-gains[u], u))

    # Roll back moves after the best prefix.
    for v in moves[best_prefix:]:
        part[v] = 1 - part[v]
    return best_cut < start_cut - 1e-12

