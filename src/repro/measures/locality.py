"""Locality analytics: packing factor, reuse distance, working sets.

Supporting analyses for the ordering study:

* **Packing factor** — Balaji & Lucia's criterion (cited in Section
  III-B) for when lightweight degree/hub reordering pays off: how densely
  the neighbourhoods of a graph pack into cache lines.  We compute, per
  vertex, the minimum number of lines its neighbour-data could occupy
  versus the number it actually touches; the graph-level factor is the
  ratio of touched to minimal lines (1.0 = perfectly packed, larger =
  more fragmentation for the ordering to claw back).
* **Reuse distance** — classic LRU stack distances of a cache-line trace;
  the full-associativity miss-rate curve falls out of its CDF.
* **Working set** — distinct lines per fixed-size trace window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import gather_ranges, resolve_engine
from ..graph.csr import CSRGraph

__all__ = [
    "packing_factor",
    "vertex_line_fragmentation",
    "reuse_distances",
    "miss_rate_curve",
    "working_set_sizes",
    "LocalityProfile",
    "locality_profile",
]

#: 8-byte vertex records on 64-byte lines.
ENTRIES_PER_LINE = 8


def vertex_line_fragmentation(
    graph: CSRGraph,
    pi: np.ndarray | None = None,
    *,
    entries_per_line: int = ENTRIES_PER_LINE,
) -> np.ndarray:
    """Per-vertex ratio of touched to minimal cache lines.

    For vertex ``v`` with degree ``d``, the neighbour ranks under ``pi``
    occupy some set of lines; a perfect layout needs ``ceil(d / L)``.
    Isolated vertices get ratio 1.0.  The vector tier counts distinct
    lines per vertex with one composite-key ``np.unique`` over all edges;
    the scalar loop is the retained reference.
    """
    n = graph.num_vertices
    ranks = (
        np.arange(n, dtype=np.int64) if pi is None
        else np.asarray(pi, dtype=np.int64)
    )
    out = np.ones(n, dtype=np.float64)
    indptr, indices = graph.indptr, graph.indices
    if resolve_engine() != "scalar":
        if indices.size == 0:
            return out
        degrees = np.asarray(
            indptr[1:] - indptr[:-1], dtype=np.int64
        )
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        lines = ranks[indices] // entries_per_line
        lo = lines.min()
        span = int(lines.max() - lo) + 1
        distinct = np.unique(src * span + (lines - lo))
        touched = np.bincount(distinct // span, minlength=n)
        nonzero = np.flatnonzero(degrees > 0)
        minimal = -(-degrees[nonzero] // entries_per_line)
        out[nonzero] = touched[nonzero] / minimal
        return out
    for v in range(n):
        start, end = int(indptr[v]), int(indptr[v + 1])
        degree = end - start
        if degree == 0:
            continue
        lines = np.unique(ranks[indices[start:end]] // entries_per_line)
        minimal = -(-degree // entries_per_line)  # ceil division
        out[v] = lines.size / minimal
    return out


def packing_factor(
    graph: CSRGraph,
    pi: np.ndarray | None = None,
    *,
    entries_per_line: int = ENTRIES_PER_LINE,
) -> float:
    """Graph-level packing factor: edge-weighted mean fragmentation.

    1.0 means every neighbourhood is perfectly line-packed; a natural
    order of a hub-heavy graph is typically far above 1, which is exactly
    the regime where Degree Sort / Hub Clustering help.
    """
    if graph.num_vertices == 0 or graph.num_edges == 0:
        return 1.0
    frag = vertex_line_fragmentation(
        graph, pi, entries_per_line=entries_per_line
    )
    degrees = graph.degrees().astype(np.float64)
    total = degrees.sum()
    if total == 0:
        return 1.0
    return float((frag * degrees).sum() / total)


def reuse_distances(trace: np.ndarray) -> np.ndarray:
    """LRU stack distance of each access; first touches get -1.

    O(T * D) with a plain recency list — adequate for the bounded traces
    the simulator produces.
    """
    trace = np.asarray(trace, dtype=np.int64)
    stack: list[int] = []
    position: dict[int, None] = {}
    out = np.empty(trace.size, dtype=np.int64)
    for i, line in enumerate(trace):
        line = int(line)
        try:
            depth = len(stack) - 1 - stack[::-1].index(line)
            out[i] = len(stack) - 1 - depth
            del stack[depth]
        except ValueError:
            out[i] = -1
        stack.append(line)
    return out


def miss_rate_curve(
    distances: np.ndarray, capacities: np.ndarray | list[int]
) -> np.ndarray:
    """Miss rate of a fully-associative LRU cache of each capacity.

    An access misses iff its reuse distance is ``>= capacity`` (cold
    accesses, distance -1, always miss).
    """
    distances = np.asarray(distances)
    total = max(1, distances.size)
    out = np.empty(len(capacities), dtype=np.float64)
    cold = int((distances < 0).sum())
    for i, capacity in enumerate(capacities):
        hits = int(((distances >= 0) & (distances < capacity)).sum())
        out[i] = (total - hits) / total
    assert cold <= total
    return out


def working_set_sizes(
    trace: np.ndarray, window: int
) -> np.ndarray:
    """Distinct lines in each non-overlapping window of the trace."""
    if window < 1:
        raise ValueError("window must be positive")
    trace = np.asarray(trace, dtype=np.int64)
    sizes = []
    for start in range(0, trace.size, window):
        sizes.append(np.unique(trace[start: start + window]).size)
    return np.asarray(sizes, dtype=np.int64)


@dataclass(frozen=True)
class LocalityProfile:
    """Bundle of locality analytics for one (graph, ordering) pair."""

    packing_factor: float
    mean_reuse_distance: float
    cold_fraction: float
    miss_rates: tuple[float, ...]
    capacities: tuple[int, ...]


def locality_profile(
    graph: CSRGraph,
    pi: np.ndarray | None = None,
    *,
    capacities: tuple[int, ...] = (16, 64, 256, 1024),
    max_trace: int = 200_000,
) -> LocalityProfile:
    """Full locality profile of a neighbourhood-sweep trace.

    The trace is the vertex-data access stream of one full sweep (for each
    vertex in rank order, the ranks of its neighbours), truncated to
    ``max_trace`` accesses.
    """
    n = graph.num_vertices
    ranks = (
        np.arange(n, dtype=np.int64) if pi is None
        else np.asarray(pi, dtype=np.int64)
    )
    order = np.argsort(ranks, kind="stable")
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    degrees = indptr[1:] - indptr[:-1]
    # Sweep vertices in rank order until the cumulative neighbour count
    # reaches max_trace (inclusive of the crossing vertex, which the
    # truncation below trims), then build the whole trace by gathering
    # the selected adjacency ranges at once.
    cumulative = np.cumsum(degrees[order])
    stop = int(np.searchsorted(cumulative, max_trace)) + 1
    selected = order[:stop].astype(np.int64)
    targets = gather_ranges(
        np.asarray(graph.indices, dtype=np.int64),
        indptr[selected],
        indptr[selected + 1],
    )
    trace = (ranks[targets] // ENTRIES_PER_LINE)[:max_trace]
    distances = reuse_distances(trace)
    warm = distances[distances >= 0]
    return LocalityProfile(
        packing_factor=packing_factor(graph, pi),
        mean_reuse_distance=(
            float(warm.mean()) if warm.size else 0.0
        ),
        cold_fraction=(
            float((distances < 0).mean()) if distances.size else 0.0
        ),
        miss_rates=tuple(miss_rate_curve(distances, list(capacities))),
        capacities=tuple(capacities),
    )
