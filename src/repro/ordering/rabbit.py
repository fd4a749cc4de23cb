"""Rabbit-Order: hierarchical-community ordering (Arai et al. 2016).

Rabbit-Order builds communities by *incremental aggregation*: vertices are
scanned in increasing degree order and each is merged into the neighbouring
(super-)vertex giving the best modularity gain, building a merge forest as
it goes.  Both terms of the gain are edge weight (the aggregated degrees
start from the weighted degrees), so scaling every weight by a power of
two leaves the permutation unchanged; the scan order counts neighbours.
The final permutation is obtained by a depth-first traversal of the merge
trees, so vertices merged together early (deep in the dendrogram, i.e. the
tightest micro-communities) receive the closest ranks — mapping the
community hierarchy onto the cache hierarchy.

The aggregation is inherently sequential (every merge feeds the next).
Under the native engine it runs whole in the ``rabbit_aggregate`` C
kernel (:mod:`repro._native.rabbit`): one call loads the adjacency,
merges and emits the DFS sequence, bit-identical to the scalar
reference (same merges, same permutation, same operation counts).
Under the vector or scalar engine, or when the kernel cannot run, the
scalar reference loop runs and records ``engine: "scalar"``.
"""

from __future__ import annotations

import numpy as np

from .._native import rabbit as _native_rabbit
from ..community.modularity import weighted_degrees
from ..engine import ENGINE_METADATA_KEY, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme

__all__ = ["RabbitOrder"]


class RabbitOrder(OrderingScheme):
    """Incremental-aggregation community ordering."""

    name = "rabbit"
    category = "partitioning"
    #: v2: the aggregated degrees start from the weighted degrees.
    version = 2

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        if n and resolve_engine() == "native":
            # The whole aggregation (its scalar twin below) in one
            # rabbit_aggregate kernel call.
            done = _native_rabbit.aggregate(
                graph.indptr,
                graph.indices,
                graph.weights,
                weighted_degrees(graph),
                np.argsort(graph.degrees(), kind="stable"),
                graph.total_weight(),
            )
            if done is not None:
                sequence, merges, num_communities, consolidated = done
                counter.count_edges(graph.indices.size + consolidated)
                counter.count_sort(n)
                counter.count_vertices(n)
                return ordering_from_sequence(sequence), {
                    "merges": merges,
                    "num_communities": num_communities,
                    ENGINE_METADATA_KEY: "native",
                }
        return self._compute_scalar(graph, counter)

    def _compute_scalar(
        self, graph: CSRGraph, counter: OperationCounter
    ) -> tuple[np.ndarray, dict]:
        """Scalar reference: the original numpy-scalar aggregation loop."""
        n = graph.num_vertices
        if n == 0:
            return np.zeros(0, dtype=np.int64), {
                "merges": 0,
                "num_communities": 0,
                ENGINE_METADATA_KEY: "scalar",
            }
        total = graph.total_weight()

        # Union-find over super-vertices, with aggregated (weighted)
        # degree and lazily merged adjacency dictionaries
        # (small-into-large).
        parent = np.arange(n, dtype=np.int64)
        agg_degree = weighted_degrees(graph).copy()
        adjacency: list[dict[int, float]] = []
        for v in range(n):
            nbrs = graph.neighbors(v)
            wts = graph.neighbor_weights(v)
            counter.count_edges(nbrs.size)
            adjacency.append(
                {int(u): float(w) for u, w in zip(nbrs, wts) if int(u) != v}
            )
        children: list[list[int]] = [[] for _ in range(n)]

        def find(x: int) -> int:
            root = x
            while parent[root] != root:
                root = int(parent[root])
            while parent[x] != root:
                parent[x], x = root, int(parent[x])
            return root

        merges = 0
        # Scan vertices in increasing original degree (Rabbit's heuristic:
        # absorb leaves into hubs first).
        scan = np.argsort(graph.degrees(), kind="stable")
        counter.count_sort(n)
        for v in scan:
            v = int(v)
            rv = find(v)
            if rv != v:
                continue  # already absorbed into another super-vertex
            if total == 0:
                break
            # Best neighbouring super-vertex by modularity gain of merging:
            # dQ = w(v, u) / M - (deg(v) * deg(u)) / (2 M^2)
            best_u = -1
            best_gain = 0.0
            # Consolidate edges to current super-vertex roots.
            consolidated: dict[int, float] = {}
            for u, w in adjacency[v].items():
                ru = find(u)
                if ru != v:
                    consolidated[ru] = consolidated.get(ru, 0.0) + w
            adjacency[v] = consolidated
            counter.count_edges(len(consolidated))
            for ru, w in consolidated.items():
                gain = w / total - (
                    agg_degree[v] * agg_degree[ru]
                ) / (2.0 * total * total)
                if gain > best_gain or (
                    gain == best_gain and best_u != -1 and ru < best_u
                ):
                    best_u, best_gain = ru, gain
            if best_u == -1 or best_gain <= 0.0:
                continue  # v stays a top-level community
            # Merge v into best_u (v becomes a child in the dendrogram).
            parent[v] = best_u
            children[best_u].append(v)
            agg_degree[best_u] += agg_degree[v]
            # small-into-large adjacency merge
            if len(adjacency[v]) > len(adjacency[best_u]):
                adjacency[v], adjacency[best_u] = (
                    adjacency[best_u],
                    adjacency[v],
                )
            target = adjacency[best_u]
            for u, w in adjacency[v].items():
                if u != best_u:
                    target[u] = target.get(u, 0.0) + w
            target.pop(v, None)
            target.pop(best_u, None)
            adjacency[v] = {}
            merges += 1

        # DFS over merge trees: roots in ascending id, children in merge
        # order (earliest merges closest to the parent).
        sequence = np.empty(n, dtype=np.int64)
        pos = 0
        visited = np.zeros(n, dtype=bool)
        for root in range(n):
            if parent[root] != root or visited[root]:
                continue
            stack = [root]
            while stack:
                node = stack.pop()
                if visited[node]:
                    continue
                visited[node] = True
                sequence[pos] = node
                pos += 1
                # reversed so the first-merged child is visited first
                stack.extend(reversed(children[node]))
        counter.count_vertices(n)
        num_roots = int(np.count_nonzero(parent == np.arange(n)))
        return ordering_from_sequence(sequence), {
            "merges": merges,
            "num_communities": num_roots,
            ENGINE_METADATA_KEY: "scalar",
        }
