"""The natural (input) ordering and the random baseline (Section V).

The paper includes both as controls: *natural* is the identity permutation
over the input labels, *random* is a uniform shuffle.  Natural often
carries latent locality (crawl order, generation order); random destroys
all of it and anchors the bad end of every measure.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .base import OperationCounter, OrderingScheme

__all__ = ["NaturalOrder", "RandomOrder"]


class NaturalOrder(OrderingScheme):
    """The identity permutation (keep the input order)."""

    name = "natural"
    category = "baseline"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        counter.count_vertices(graph.num_vertices)
        return np.arange(graph.num_vertices, dtype=np.int64), {}


class RandomOrder(OrderingScheme):
    """A uniformly random permutation of the vertex set."""

    name = "random"
    category = "baseline"

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        counter.count_vertices(n)
        return rng.permutation(n).astype(np.int64), {}
