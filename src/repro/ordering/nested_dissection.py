"""Nested dissection ordering (George 1973; paper Section III-E).

ND recursively splits the graph with a small vertex separator and orders
``left ++ right ++ separator`` — separator vertices get the *highest* ranks
at every recursion level, which is what minimises fill in sparse
factorisation.  The paper includes ND as a representative fill-reducing
method even though it is not designed for traversal locality.

Separators come from :func:`repro.partition.separator.vertex_separator`
(greedy vertex cover over a multilevel edge bisection), mirroring how the
METIS ``onmetis`` ordering derives separators.
"""

from __future__ import annotations

import numpy as np

from ..engine import ENGINE_METADATA_KEY, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from ..graph.subgraph import induced_subgraph
from ..partition.multilevel import joint_tier
from ..partition.separator import dissect_native, vertex_separator
from .base import OperationCounter, OrderingScheme

__all__ = ["NestedDissectionOrder"]

#: subgraphs at or below this size are ordered directly (natural order).
LEAF_SIZE = 16


class NestedDissectionOrder(OrderingScheme):
    """Recursive vertex-separator ordering."""

    name = "nested_dissection"
    category = "fill_reducing"

    def __init__(self, *, leaf_size: int = LEAF_SIZE, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        if leaf_size < 1:
            raise ValueError("leaf_size must be positive")
        self._leaf_size = leaf_size

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        # The recursion state lives in this call, never on ``self``: a
        # scheme instance must be reusable and its cache_token must not
        # depend on what it ordered before.
        n = graph.num_vertices
        if n > self._leaf_size and resolve_engine() == "native":
            # The whole recursion below (its scalar twin) in one
            # dissect_tree kernel call.
            done = dissect_native(graph, rng, self._leaf_size)
            if done is not None:
                sequence, max_depth, edge_ops = done
                counter.count_edges(edge_ops)
                counter.count_vertices(n)
                return ordering_from_sequence(sequence), {
                    "max_depth": max_depth,
                    "leaf_size": self._leaf_size,
                    ENGINE_METADATA_KEY: "native",
                }
        sequence = np.empty(n, dtype=np.int64)
        pos = 0
        max_depth = 0
        tiers: set[str] = set()

        def emit(vertices: np.ndarray) -> None:
            nonlocal pos
            sequence[pos: pos + vertices.size] = vertices
            pos += vertices.size

        def dissect(vertices: np.ndarray, depth: int) -> None:
            """Order the subgraph induced by ``vertices`` (global ids)."""
            nonlocal max_depth
            max_depth = max(max_depth, depth)
            if vertices.size <= self._leaf_size:
                emit(vertices)
                return
            counter.count_edges(int(graph.degrees()[vertices].sum()))
            sub = induced_subgraph(graph, vertices, keep_weights=False).graph
            split = vertex_separator(sub, seed=rng)
            tiers.add(split.engine)
            if split.left.size == 0 or split.right.size == 0:
                # Separator failed to split (e.g. a clique): stop recursing.
                emit(vertices)
                return
            # Recurse into halves (global ids), separator last.
            dissect(vertices[split.left], depth + 1)
            dissect(vertices[split.right], depth + 1)
            emit(vertices[split.separator])

        dissect(np.arange(n, dtype=np.int64), 0)
        counter.count_vertices(n)
        return ordering_from_sequence(sequence), {
            "max_depth": max_depth,
            "leaf_size": self._leaf_size,
            ENGINE_METADATA_KEY: joint_tier(tiers),
        }
