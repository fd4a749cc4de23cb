"""Multilevel graph partitioning (the METIS substitute).

The three classic phases:

1. **Coarsening** — heavy-edge matching collapses the graph until it is
   small (or stops shrinking).
2. **Initial partitioning** — greedy graph growing bisects the coarsest
   graph.
3. **Uncoarsening** — the bisection is projected level by level back to the
   original graph, refined at each level with boundary FM.

``k``-way partitions are produced by recursive bisection with proportional
weight targets, exactly the scheme METIS's ``pmetis`` path uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import fm as _native_fm
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from .coarsen import CoarseLevel, coarsen_graph
from .initial import (
    GROW_TRIALS,
    check_vertex_weights,
    edge_cut,
    greedy_bisection,
)
from .matching import heavy_edge_matching, matching_to_coarse_map
from .refine import MAX_NEGATIVE_MOVES, MAX_PASSES, fm_refine

__all__ = ["PartitionResult", "bisect", "partition_graph"]

#: stop coarsening once the graph is this small.
COARSEST_SIZE = 32


@dataclass(frozen=True)
class PartitionResult:
    """A k-way partition of a graph.

    ``engine`` is the tier that ran the bisections: ``"native"`` when
    the kernel ran them (the whole ``partition_tree`` of
    :func:`partition_graph`), ``"vector"`` or ``"scalar"`` when the
    Python pipeline ran (``"vector"`` under the native engine), and
    ``"scalar"`` when there was nothing to bisect.
    """

    assignment: np.ndarray
    num_parts: int
    cut: float
    engine: str

    def part_sizes(self) -> np.ndarray:
        """Number of vertices in each part."""
        return np.bincount(self.assignment, minlength=self.num_parts)


def _coarsening_hierarchy(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
) -> list[CoarseLevel]:
    """Build the coarsening ladder, finest (excluded) to coarsest."""
    levels: list[CoarseLevel] = []
    current = graph
    current_vw = vertex_weights
    max_vw = max(1.0, float(vertex_weights.sum()) / COARSEST_SIZE)
    while current.num_vertices > COARSEST_SIZE:
        match = heavy_edge_matching(
            current,
            rng,
            vertex_weights=current_vw,
            max_vertex_weight=max_vw,
        )
        coarse_map, num_coarse = matching_to_coarse_map(match)
        if num_coarse >= current.num_vertices * 0.95:
            break  # matching stalled; further coarsening is pointless
        level = coarsen_graph(current, coarse_map, num_coarse, current_vw)
        levels.append(level)
        current = level.graph
        current_vw = level.vertex_weights
    return levels


def bisect(
    graph: CSRGraph,
    *,
    vertex_weights: np.ndarray | None = None,
    target_fraction: float = 0.5,
    imbalance: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Multilevel bisection of ``graph`` into parts {0, 1}.

    Runs the Python pipeline :func:`_bisect_python` on every engine
    (its refining, growing and matching steps call their per-piece
    kernels under the native engine).  Whole recursions run in one C
    call instead: :func:`partition_graph` and nested dissection.
    """
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    n = graph.num_vertices
    if vertex_weights is None:
        vertex_weights = np.ones(n, dtype=np.float64)
    vertex_weights = check_vertex_weights(vertex_weights, n, "bisect")
    if n <= 1:
        return PartitionResult(np.zeros(n, dtype=np.int64), 2, 0.0, "scalar")
    part, cut = _bisect_python(
        graph, vertex_weights, target_fraction, imbalance, rng
    )
    engine = resolve_engine()
    return PartitionResult(
        part, 2, cut, "vector" if engine == "native" else engine
    )


def _bisect_python(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    target_fraction: float,
    imbalance: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """The multilevel pipeline in Python, returning ``(part, cut)``.

    The scalar twin of the ``partition_fm`` kernel, whose trees bisect
    every node this way: coarsen, grow, refine at the coarsest level,
    then project and refine at every level.
    """
    levels = _coarsening_hierarchy(graph, vertex_weights, rng)
    coarsest = levels[-1].graph if levels else graph
    coarsest_vw = levels[-1].vertex_weights if levels else vertex_weights

    part = greedy_bisection(
        coarsest, coarsest_vw, rng, target_fraction=target_fraction
    )
    part = fm_refine(
        coarsest, part, coarsest_vw,
        target_fraction=target_fraction, imbalance=imbalance,
    )

    # Project back through the hierarchy, refining at every level.
    for level_idx in range(len(levels) - 1, -1, -1):
        level = levels[level_idx]
        fine_graph = graph if level_idx == 0 else levels[level_idx - 1].graph
        fine_vw = (
            vertex_weights
            if level_idx == 0
            else levels[level_idx - 1].vertex_weights
        )
        part = part[level.fine_to_coarse]
        part = fm_refine(
            fine_graph, part, fine_vw,
            target_fraction=target_fraction, imbalance=imbalance,
        )

    return part, edge_cut(graph, part)


def partition_graph(
    graph: CSRGraph,
    num_parts: int,
    *,
    vertex_weights: np.ndarray | None = None,
    imbalance: float = 0.1,
    seed: int | np.random.Generator | None = 0,
) -> PartitionResult:
    """Recursive-bisection k-way partitioning.

    Parts are numbered so that part ids increase along the recursive
    splitting order, which is the property the METIS-based *ordering*
    exploits (contiguous ranks within a part, parts in id order).

    Under the native engine the whole recursion is one
    ``partition_tree`` kernel call (:func:`repro._native.fm.
    partition_tree`) drawing from the same generator; the recursion
    below is its scalar twin, with bit-identical parts and generator
    state.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be positive")
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    n = graph.num_vertices
    if vertex_weights is None:
        vertex_weights = np.ones(n, dtype=np.float64)
    vertex_weights = check_vertex_weights(
        vertex_weights, n, "partition_graph"
    )
    assignment = np.zeros(n, dtype=np.int64)
    if num_parts == 1 or n == 0:
        return PartitionResult(assignment, num_parts, 0.0, "scalar")
    if n >= 2 and resolve_engine() == "native":
        # The whole tree is one partition_tree call on the root the
        # recursion below builds first; every node subgraph is a row
        # filter of it.
        root, root_vw = _induced_subgraph(
            graph, np.arange(n, dtype=np.int64), vertex_weights
        )
        done = _native_fm.partition_tree(
            root.indptr,
            root.indices,
            root.weights,
            root_vw,
            rng,
            num_parts=num_parts,
            imbalance=imbalance,
            trials=GROW_TRIALS,
            coarsest_size=COARSEST_SIZE,
            max_negative_moves=MAX_NEGATIVE_MOVES,
            max_passes=MAX_PASSES,
        )
        if done is not None:
            return PartitionResult(
                done, num_parts, edge_cut(graph, done), "native"
            )
    tiers: set[str] = set()

    def recurse(
        vertices: np.ndarray, parts_lo: int, parts_hi: int
    ) -> None:
        """Assign parts [parts_lo, parts_hi) to the induced subgraph."""
        span = parts_hi - parts_lo
        if span == 1 or vertices.size == 0:
            assignment[vertices] = parts_lo
            return
        if vertices.size == 1:
            assignment[vertices] = parts_lo
            return
        left_parts = span // 2
        fraction = left_parts / span
        sub, local_vw = _induced_subgraph(graph, vertices, vertex_weights)
        result = bisect(
            sub,
            vertex_weights=local_vw,
            target_fraction=fraction,
            imbalance=imbalance,
            seed=rng,
        )
        tiers.add(result.engine)
        left = vertices[result.assignment == 0]
        right = vertices[result.assignment == 1]
        if left.size == 0 or right.size == 0:
            # Degenerate bisection: split arbitrarily to guarantee progress.
            half = max(1, int(round(vertices.size * fraction)))
            left, right = vertices[:half], vertices[half:]
        recurse(left, parts_lo, parts_lo + left_parts)
        recurse(right, parts_lo + left_parts, parts_hi)

    recurse(np.arange(n, dtype=np.int64), 0, num_parts)
    return PartitionResult(
        assignment, num_parts, edge_cut(graph, assignment),
        joint_tier(tiers),
    )


def joint_tier(tiers: set[str]) -> str:
    """The tier label for a run of bisections that reported ``tiers``.

    ``"native"`` only when every bisection ran in C; otherwise the
    Python tier that ran, and ``"scalar"`` when nothing was bisected.
    """
    if tiers == {"native"}:
        return "native"
    return "vector" if "vector" in tiers else "scalar"


def _induced_subgraph(
    graph: CSRGraph,
    vertices: np.ndarray,
    vertex_weights: np.ndarray,
) -> tuple[CSRGraph, np.ndarray]:
    """Weighted induced subgraph plus the matching vertex-weight slice."""
    from ..graph.subgraph import induced_subgraph

    view = induced_subgraph(graph, vertices)
    sub = view.graph
    if not sub.is_weighted:
        # Partition arithmetic expects explicit weights on every level.
        from ..graph.csr import CSRGraph as _CSR

        sub = _CSR(
            sub.indptr, sub.indices,
            np.ones(sub.num_directed_edges, dtype=np.float64),
        )
    return sub, vertex_weights[vertices].astype(np.float64)
