"""SlashBurn ordering (Kang & Faloutsos; paper Section III-B).

SlashBurn exploits the hub-and-spoke structure of real graphs:

1. *Slash*: remove the ``k`` highest-degree vertices (hubs) and assign them
   the lowest available ranks (front of the order).
2. *Burn*: the removal shatters the graph; every vertex outside the giant
   connected component (the "spokes") is assigned the highest available
   ranks (back of the order), grouped by component, small components last.
3. Recurse on the giant connected component.

The result concentrates the adjacency matrix near the top-left block plus
thin wings — "close to block-diagonal" as the paper puts it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..engine import gather_neighbors, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme

__all__ = ["SlashBurnOrder"]


class SlashBurnOrder(OrderingScheme):
    """SlashBurn hub-removal ordering.

    Parameters
    ----------
    k_ratio:
        The number of hubs removed per iteration, as a fraction of the
        *original* vertex count (the paper's implementation default is
        0.005; our smaller surrogates use 0.02 so iterations make
        progress).
    """

    name = "slashburn"
    category = "degree_hub"

    def __init__(self, *, k_ratio: float = 0.02, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        if not 0.0 < k_ratio <= 1.0:
            raise ValueError("k_ratio must be in (0, 1]")
        self._k_ratio = k_ratio

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        engine = resolve_engine()
        n = graph.num_vertices
        k = max(1, int(round(self._k_ratio * n)))
        alive = np.ones(n, dtype=bool)
        # degrees within the currently alive subgraph
        degrees = graph.degrees().astype(np.int64)
        front: list[int] = []
        back: list[int] = []
        iterations = 0

        while True:
            alive_count = int(alive.sum())
            if alive_count == 0:
                break
            if alive_count <= k:
                # Remaining vertices all become hubs in degree order.
                rest = np.flatnonzero(alive)
                counter.count_sort(rest.size)
                rest = rest[np.argsort(-degrees[rest], kind="stable")]
                front.extend(int(v) for v in rest)
                break
            iterations += 1
            # ---- Slash: remove k highest-degree alive vertices.
            alive_ids = np.flatnonzero(alive)
            counter.count_sort(alive_ids.size)
            top = alive_ids[
                np.argsort(-degrees[alive_ids], kind="stable")[:k]
            ]
            if engine == "scalar":
                for hub in top:
                    alive[hub] = False
                    for v in graph.neighbors(int(hub)):
                        if alive[v]:
                            degrees[v] -= 1
                    counter.count_edges(graph.degree(int(hub)))
            else:
                # Batched removal: decrements to other hubs in the same
                # batch are irrelevant (their degrees are never read
                # again), so killing all hubs first then decrementing
                # surviving neighbours — with multiplicity — matches the
                # sequential loop exactly.
                alive[top] = False
                hub_nbrs, _ = gather_neighbors(
                    graph.indptr, graph.indices, top
                )
                survivors = hub_nbrs[alive[hub_nbrs]]
                np.subtract.at(degrees, survivors, 1)
                counter.count_edges(int(hub_nbrs.size))
            front.extend(int(v) for v in top)

            # ---- Burn: find components of the remaining graph.
            components = (
                self._components_scalar if engine == "scalar"
                else self._components
            )
            comp_label, comp_sizes = components(graph, alive, counter)
            if not comp_sizes:
                continue
            giant = max(comp_sizes, key=comp_sizes.get)
            # Spokes (non-giant components): back of the order, smallest
            # components last (i.e. appended in decreasing size, reversed
            # semantics handled by extending `back` which is later reversed).
            spokes = sorted(
                (c for c in comp_sizes if c != giant),
                key=lambda c: (comp_sizes[c], c),
            )
            for comp in spokes:
                members = np.flatnonzero(
                    (comp_label == comp) & alive
                )
                counter.count_sort(members.size)
                members = members[
                    np.argsort(-degrees[members], kind="stable")
                ]
                back.extend(int(v) for v in members)
                alive[members] = False

        sequence = np.asarray(front + back[::-1], dtype=np.int64)
        counter.count_vertices(n)
        return ordering_from_sequence(sequence), {
            "iterations": iterations,
            "k": k,
        }

    @staticmethod
    def _components(
        graph: CSRGraph,
        alive: np.ndarray,
        counter: OperationCounter,
    ) -> tuple[np.ndarray, dict[int, int]]:
        """Connected components of the alive-induced subgraph."""
        n = graph.num_vertices
        indptr, indices = graph.indptr, graph.indices
        full_degrees = graph.degrees()
        label = np.full(n, -1, dtype=np.int64)
        sizes: dict[int, int] = {}
        current = 0
        edge_ops = 0
        for start in np.flatnonzero(alive):
            if label[start] != -1:
                continue
            label[start] = current
            size = 1
            frontier = np.asarray([start], dtype=np.int64)
            while frontier.size:
                edge_ops += int(full_degrees[frontier].sum())
                targets, _ = gather_neighbors(indptr, indices, frontier)
                fresh = np.unique(
                    targets[alive[targets] & (label[targets] == -1)]
                )
                if fresh.size == 0:
                    break
                label[fresh] = current
                size += int(fresh.size)
                frontier = fresh
            sizes[current] = size
            current += 1
        counter.count_edges(edge_ops)
        return label, sizes

    @staticmethod
    def _components_scalar(
        graph: CSRGraph,
        alive: np.ndarray,
        counter: OperationCounter,
    ) -> tuple[np.ndarray, dict[int, int]]:
        """Scalar reference for :meth:`_components`."""
        n = graph.num_vertices
        label = np.full(n, -1, dtype=np.int64)
        sizes: dict[int, int] = {}
        current = 0
        for start in np.flatnonzero(alive):
            if label[start] != -1:
                continue
            label[start] = current
            size = 1
            queue = deque([int(start)])
            while queue:
                u = queue.popleft()
                nbrs = graph.neighbors(u)
                counter.count_edges(nbrs.size)
                for v in nbrs:
                    if alive[v] and label[v] == -1:
                        label[v] = current
                        size += 1
                        queue.append(int(v))
            sizes[current] = size
            current += 1
        return label, sizes
