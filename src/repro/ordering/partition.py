"""Partitioning-based ordering via the multilevel partitioner (METIS-style).

Paper Section III-D: partition ``V`` into ``p`` balanced parts minimising
the edge cut, then relabel vertices so each part occupies a contiguous rank
range, parts in recursive-bisection order.  Densely connected parts then
yield small gaps for most edges.  The paper sweeps the partition count and
finds 32 best at its scale (Figure 7); the count is a constructor
parameter here and the sweep is a benchmark.
"""

from __future__ import annotations

import numpy as np

from .._native import fm as _native_fm
from ..engine import ENGINE_METADATA_KEY, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from ..partition.multilevel import partition_graph
from .base import OperationCounter, OrderingScheme

__all__ = ["MetisOrder", "DEFAULT_NUM_PARTS"]

DEFAULT_NUM_PARTS = 32


class MetisOrder(OrderingScheme):
    """Order vertices by (part id, natural id within part).

    Parameters
    ----------
    num_parts:
        Number of partitions ``p``; the paper's best configuration is 32.
    imbalance:
        Allowed per-part weight imbalance passed to the partitioner.
    part_order:
        How the parts themselves are sequenced.  ``"shuffle"`` (default)
        permutes part ids randomly — faithful to the paper's use of METIS
        part vectors, which carry no locality guarantee between
        consecutive part ids, and the reason the paper's Figure 7 sweep
        has an interior optimum.  ``"hierarchical"`` keeps our recursive
        bisection ids, so adjacent parts stay adjacent in rank space (an
        ablation: with it, more parts monotonically help).
    """

    name = "metis"
    category = "partitioning"

    def __init__(
        self,
        *,
        num_parts: int = DEFAULT_NUM_PARTS,
        imbalance: float = 0.1,
        part_order: str = "shuffle",
        seed: int | None = 0,
    ) -> None:
        super().__init__(seed=seed)
        if num_parts < 1:
            raise ValueError("num_parts must be positive")
        if part_order not in ("shuffle", "hierarchical"):
            raise ValueError("part_order must be 'shuffle' or 'hierarchical'")
        self._num_parts = num_parts
        self._imbalance = imbalance
        self._part_order = part_order

    @property
    def num_parts(self) -> int:
        """The configured partition count."""
        return self._num_parts

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        num_parts = min(self._num_parts, max(1, n))
        result = partition_graph(
            graph,
            num_parts,
            imbalance=self._imbalance,
            seed=rng,
        )
        # Cost model: a multilevel partitioner traverses every edge at each
        # of ~log2(p) recursion levels, plus refinement passes.
        levels = max(1, int(np.ceil(np.log2(max(2, num_parts)))))
        counter.count_edges(graph.num_directed_edges * levels * 2)
        counter.count_vertices(n * levels)
        counter.count_sort(n)

        assignment = result.assignment
        if self._part_order == "shuffle":
            remap = rng.permutation(num_parts).astype(np.int64)
            assignment = remap[assignment]
        # Stable sort by part: contiguous parts, natural order within.
        sequence = np.argsort(assignment, kind="stable")
        engine = resolve_engine()
        if engine == "native" and _native_fm.KERNEL.lib() is None:
            engine = "vector"  # partition kernels unavailable/degraded: numpy ran
        return ordering_from_sequence(sequence), {
            "num_parts": num_parts,
            "edge_cut": result.cut,
            "part_order": self._part_order,
            ENGINE_METADATA_KEY: engine,
        }
