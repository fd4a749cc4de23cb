"""Gorder: window-based greedy ordering (Wei et al.; paper Section III-C).

Gorder maximises, within a sliding window of width ``w`` over the output
sequence, the sum of pairwise scores ``S(i, j) = S_s(i, j) + S_n(i, j)``
where ``S_s`` counts common neighbours and ``S_n`` counts direct edges.
Maximising the score is NP-hard; the practical algorithm (GO) is a greedy
that repeatedly appends the unvisited vertex with the highest score against
the last ``w`` placed vertices, maintained incrementally with a lazy
max-priority queue.

The incremental update when vertex ``e`` enters the window:

* every neighbour ``u`` of ``e`` gains 1 (the ``S_n`` term),
* every 2-hop neighbour ``t`` of ``e`` (through any shared neighbour)
  gains 1 per shared neighbour (the ``S_s`` term),

and symmetric decrements apply when a vertex slides out of the window.
This costs ``O(sum of squared degrees)`` overall, matching the paper's
complexity statement.
"""

from __future__ import annotations

import heapq

import numpy as np

from .._native import gorder as _native_gorder
from ..engine import ENGINE_METADATA_KEY, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme

__all__ = ["GorderOrder", "window_gscore"]

DEFAULT_WINDOW = 5


def window_gscore(
    graph: CSRGraph, sequence: np.ndarray, window: int = DEFAULT_WINDOW
) -> int:
    """Total Gscore of a sequence: sum of S(i, j) over in-window pairs.

    Used by tests and the window-size ablation; the greedy itself never
    needs the global score.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    total = 0
    # Only the last ``window`` vertices' neighbour lists are live at any
    # point, so slice them lazily out of the CSR arrays instead of
    # materialising set adjacency for every vertex up front.
    in_window: list[tuple[int, np.ndarray]] = []
    for v in sequence.tolist():
        nbr_v = graph.neighbors(v)
        for u, nbr_u in in_window:
            s_n = 1 if np.any(nbr_v == u) else 0
            s_s = np.intersect1d(nbr_u, nbr_v).size
            total += s_n + s_s
        in_window.append((v, nbr_v))
        if len(in_window) > window:
            in_window.pop(0)
    return int(total)


class GorderOrder(OrderingScheme):
    """The GO greedy of Wei et al. with a lazy max-heap.

    Parameters
    ----------
    window:
        Window width ``w``; the Gorder paper (and ours) uses 5.
    """

    name = "gorder"
    category = "window"

    def __init__(self, *, window: int = DEFAULT_WINDOW, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        if window < 1:
            raise ValueError("window must be at least 1")
        self._window = window

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        if n and resolve_engine() == "native":
            # Whole-greedy C kernel (repro._native.gorder), its scalar
            # twin below: identical heap traffic, score updates, and
            # operation totals.
            native = _native_gorder.run(
                graph.indptr, graph.indices, graph.degrees(), self._window
            )
            if native is not None:
                sequence_arr, edge_ops, compare_ops = native
                counter.count_edges(edge_ops)
                counter.count_compares(compare_ops)
                counter.count_vertices(n)
                return ordering_from_sequence(sequence_arr), {
                    "window": self._window,
                    ENGINE_METADATA_KEY: "native",
                }
        return self._compute_scalar(graph, counter)

    def _compute_scalar(
        self, graph: CSRGraph, counter: OperationCounter
    ) -> tuple[np.ndarray, dict]:
        """Scalar reference: the per-vertex greedy over a lazy heap."""
        n = graph.num_vertices
        metadata = {"window": self._window, ENGINE_METADATA_KEY: "scalar"}
        if n == 0:
            return np.zeros(0, dtype=np.int64), metadata
        degrees = graph.degrees()
        placed = np.zeros(n, dtype=bool)
        key = np.zeros(n, dtype=np.int64)
        sequence: list[int] = []
        # Lazy max-heap of (-key, vertex); stale entries are skipped on pop.
        heap: list[tuple[int, int]] = []

        def adjust(vertex: int, delta: int) -> None:
            """Shift a vertex's score and (on increase) refresh the heap."""
            key[vertex] += delta
            if not placed[vertex] and delta > 0:
                heapq.heappush(heap, (-key[vertex], vertex))
                counter.count_compares()

        def update_for(entering: int, delta: int) -> None:
            """Apply the +/-1 score updates for a window entry/exit."""
            nbrs = graph.neighbors(entering)
            counter.count_edges(nbrs.size)
            for u in nbrs:
                u = int(u)
                adjust(u, delta)  # S_n term
                two_hop = graph.neighbors(u)
                counter.count_edges(two_hop.size)
                for t in two_hop:
                    t = int(t)
                    if t != entering:
                        adjust(t, delta)  # S_s term via shared neighbour u

        start = int(np.argmax(degrees))
        placed[start] = True
        sequence.append(start)
        update_for(start, +1)

        for _ in range(1, n):
            if len(sequence) > self._window:
                leaving = sequence[len(sequence) - self._window - 1]
                update_for(leaving, -1)
            chosen = -1
            while heap:
                neg_key, v = heapq.heappop(heap)
                counter.count_compares()
                if placed[v] or -neg_key != key[v]:
                    continue  # stale entry
                chosen = v
                break
            if chosen == -1:
                # Window has no unvisited 2-hop frontier (new component or
                # isolated region): fall back to the unvisited vertex of
                # maximum degree, as the reference implementation does.
                remaining = np.flatnonzero(~placed)
                chosen = int(remaining[np.argmax(degrees[remaining])])
            placed[chosen] = True
            sequence.append(chosen)
            update_for(chosen, +1)

        counter.count_vertices(n)
        return (
            ordering_from_sequence(np.asarray(sequence, dtype=np.int64)),
            metadata,
        )
