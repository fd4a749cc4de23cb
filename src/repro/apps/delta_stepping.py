"""Delta-stepping SSSP (Meyer & Sanders): the parallel shortest-path kernel.

The Bellman–Ford rounds in :mod:`repro.apps.kernels` are the simplest
parallel SSSP; delta-stepping is the algorithm actual parallel frameworks
use, and its bucket structure gives it a different — coarser-grained —
memory profile.  Included for the kernel study's SSSP axis:

* distances are partitioned into buckets of width ``delta``;
* the smallest non-empty bucket is settled by repeated *light-edge*
  relaxations (weight ≤ delta) until it stabilises, then *heavy* edges
  are relaxed once;
* each bucket phase is a parallel region in the real algorithm, so the
  work items here are per-vertex relaxations grouped by phase.

Three engine-gated implementations (:mod:`repro.engine`): the scalar
reference keeps the original per-vertex sorted loops over dict-of-set
buckets; the vector engine runs *bucketed array* delta-stepping —
light/heavy edge partitions, trace lines, and per-scan relaxations are
all precomputed or applied as whole-array operations, with lazy-deleted
bucket membership chunks replacing the eager set bookkeeping; and the
native tier escalates the whole bucket loop to a compiled kernel
(:mod:`repro._native.delta`) that emits the scan stream from which the
work items are assembled.  All produce bit-identical distances and
work-item streams.
"""

from __future__ import annotations

import numpy as np

from .._native import delta as _native_delta
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from ..simulator.parallel import WorkItem
from ..simulator.trace import csr_layout

__all__ = ["delta_stepping"]

EDGE_COMPUTE_CYCLES = 5
VERTEX_COMPUTE_CYCLES = 8


def delta_stepping(
    graph: CSRGraph,
    source: int = 0,
    *,
    delta: float | None = None,
    max_buckets: int = 100_000,
    engine: str | None = None,
) -> tuple[np.ndarray, list[WorkItem]]:
    """Delta-stepping shortest paths with a replayable trace.

    Parameters
    ----------
    delta:
        Bucket width; defaults to the mean edge weight (1.0 for
        unweighted graphs, where delta-stepping degenerates to BFS-like
        level processing).
    engine:
        Explicit engine override (``"native"``/``"vector"``/``"scalar"``);
        defaults to the :func:`repro.engine.resolve_engine` resolution.

    Returns
    -------
    (distances, work_items) — one work item per vertex relaxation.
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    if n == 0:
        return dist, []
    if delta is None:
        if graph.is_weighted and graph.num_edges:
            delta = float(graph.weights.mean())
        else:
            delta = 1.0
    if delta <= 0:
        raise ValueError("delta must be positive")
    resolved = resolve_engine(engine)
    if resolved == "scalar":
        return _delta_stepping_scalar(graph, source, delta, max_buckets)
    if resolved == "native":
        result = _delta_stepping_native(graph, source, delta, max_buckets)
        if result is not None:
            return result
    return _delta_stepping_vector(graph, source, delta, max_buckets)


class _PhaseTable:
    """Precomputed per-vertex scan data for one edge class (light/heavy).

    For every vertex the scalar scan selects the adjacency offsets whose
    weight falls in the class, assembles the trace lines
    ``[indptr, (indices_k, vdata_k)...]`` and relaxes the selected
    targets.  This table materialises all of that once, as flat arrays:
    ``lines(v)`` is a zero-copy view identical to the scalar per-scan
    construction, and ``span(v)`` bounds the selected targets/weights.
    """

    __slots__ = ("_flat", "_off", "indptr", "targets", "weights")

    def __init__(
        self,
        mask: np.ndarray,
        src: np.ndarray,
        deg: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        indptr_lines: np.ndarray,
        edge_idx_lines: np.ndarray,
        edge_vdata_lines: np.ndarray,
    ) -> None:
        n = deg.size
        sel = np.flatnonzero(mask)
        sel_src = src[sel]
        counts = np.bincount(sel_src, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.targets = indices[sel]
        self.weights = weights[sel]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(1 + 2 * counts, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=np.int64)
        flat[offsets[:-1]] = indptr_lines
        if sel.size:
            pos = offsets[sel_src] + 1 + 2 * (
                np.arange(sel.size, dtype=np.int64) - self.indptr[sel_src]
            )
            flat[pos] = edge_idx_lines[sel]
            flat[pos + 1] = edge_vdata_lines[sel]
        flat.setflags(write=False)
        self._flat = flat
        self._off = offsets.tolist()

    def lines(self, v: int) -> np.ndarray:
        """The scan's trace-line stream for ``v`` (read-only view)."""
        return self._flat[self._off[v]: self._off[v + 1]]


def _build_phases(
    graph: CSRGraph, delta: float
) -> tuple[_PhaseTable, _PhaseTable, list[int], np.ndarray, bool]:
    """Light/heavy phase tables, per-vertex cycles, edge weights, and the
    parallel-edge flag shared by the vector and native engines."""
    n = graph.num_vertices
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = np.asarray(graph.indices, dtype=np.int64)
    m = indices.size
    weights = (
        np.asarray(graph.weights, dtype=np.float64)
        if graph.is_weighted
        else np.ones(m, dtype=np.float64)
    )
    deg = indptr[1:] - indptr[:-1]
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Parallel edges make per-scan relaxations order-sensitive; the
    # canonical builder dedupes, so the min-reduction slow path is rare.
    has_parallel_edges = bool(
        np.any((src[1:] == src[:-1]) & (indices[1:] == indices[:-1]))
    )

    layout = csr_layout(n, m)
    vertex_ids = np.arange(n, dtype=np.int64)
    indptr_lines = layout.lines("indptr", vertex_ids)
    edge_idx_lines = layout.lines(
        "indices", np.arange(m, dtype=np.int64)
    )
    edge_vdata_lines = layout.lines("vdata", indices)
    light_mask = weights <= delta
    light = _PhaseTable(
        light_mask, src, deg, indices, weights,
        indptr_lines, edge_idx_lines, edge_vdata_lines,
    )
    heavy = _PhaseTable(
        ~light_mask, src, deg, indices, weights,
        indptr_lines, edge_idx_lines, edge_vdata_lines,
    )
    cycles = (
        VERTEX_COMPUTE_CYCLES + EDGE_COMPUTE_CYCLES * deg
    ).tolist()
    return light, heavy, cycles, weights, has_parallel_edges


def _delta_stepping_native(
    graph: CSRGraph,
    source: int,
    delta: float,
    max_buckets: int,
) -> tuple[np.ndarray, list[WorkItem]] | None:
    """Native bucket loop; None when the kernel is unavailable/oversized.

    The kernel returns the distances and the ``(vertex, phase)`` scan
    stream in execution order; the work items are assembled here from
    the same phase tables the vector engine scans.
    """
    if _native_delta.KERNEL.lib() is None:
        return None
    n = graph.num_vertices
    light, heavy, cycles, weights, _ = _build_phases(graph, delta)
    wmax = float(weights.max()) if weights.size else 1.0
    result = _native_delta.run(
        light.indptr,
        light.targets,
        light.weights,
        heavy.indptr,
        heavy.targets,
        heavy.weights,
        n=n,
        source=source,
        delta=delta,
        max_buckets=max_buckets,
        wmax=wmax,
    )
    if result is None:
        return None
    dist, scan_vs, scan_phases = result
    tables = (light, heavy)
    items = [
        WorkItem(lines=tables[p].lines(v), compute_cycles=cycles[v])
        for v, p in zip(scan_vs.tolist(), scan_phases.tolist())
    ]
    return dist, items


def _delta_stepping_vector(
    graph: CSRGraph,
    source: int,
    delta: float,
    max_buckets: int,
) -> tuple[np.ndarray, list[WorkItem]]:
    """Bucketed-array engine: vectorized scans, lazy bucket membership.

    Bucket membership lives in ``bucket_of`` (the authoritative bucket of
    every vertex, ``-1`` when unreached/settled-stale) plus per-bucket
    lists of pending member chunks.  Insertions append whole arrays;
    deletions are lazy — a chunk entry counts only while ``bucket_of``
    still agrees — and ``np.unique`` both dedupes and yields the sorted
    frontier the scalar ``sorted(set)`` iteration produces.
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    light, heavy, cycles, _, has_parallel_edges = _build_phases(
        graph, delta
    )
    phases = {True: light, False: heavy}

    items: list[WorkItem] = []
    bucket_of = np.full(n, -1, dtype=np.int64)
    pending: dict[int, list[np.ndarray]] = {
        0: [np.asarray([source], dtype=np.int64)]
    }
    bucket_of[source] = 0
    dist[source] = 0.0

    def scan(v: int, table: _PhaseTable) -> None:
        items.append(WorkItem(
            lines=table.lines(v), compute_cycles=cycles[v]
        ))
        a, b = table.indptr[v], table.indptr[v + 1]
        if a == b:
            return
        targets = table.targets[a:b]
        candidates = dist[v] + table.weights[a:b]
        improving = candidates < dist[targets]
        if not improving.any():
            return
        t = targets[improving]
        c = candidates[improving]
        if has_parallel_edges and t.size > 1:
            # Keep the per-target minimum — the scalar sequential
            # relaxations' final state.
            order = np.lexsort((c, t))
            t, c = t[order], c[order]
            keep = np.ones(t.size, dtype=bool)
            keep[1:] = t[1:] != t[:-1]
            t, c = t[keep], c[keep]
        dist[t] = c
        new_buckets = (c / delta).astype(np.int64)
        bucket_of[t] = new_buckets
        for b_val in np.unique(new_buckets):
            pending.setdefault(int(b_val), []).append(
                t[new_buckets == b_val]
            )

    def valid_members(bucket: int) -> np.ndarray | None:
        """Pop ``bucket``'s chunks; sorted unique still-valid members."""
        chunks = pending.pop(bucket, None)
        if chunks is None:
            return None
        members = np.concatenate(chunks)
        members = members[bucket_of[members] == bucket]
        if members.size == 0:
            return None
        return np.unique(members)

    light, heavy = phases[True], phases[False]
    processed_buckets = 0
    while processed_buckets < max_buckets and pending:
        bucket_index = min(pending)
        frontier = valid_members(bucket_index)
        if frontier is None:
            continue  # every member moved on — never a live bucket
        settled_parts: list[np.ndarray] = []
        while frontier is not None:
            settled_parts.append(frontier)
            for v in frontier.tolist():
                scan(v, light)
            frontier = valid_members(bucket_index)
        settled = np.unique(np.concatenate(settled_parts))
        for v in settled.tolist():
            scan(v, heavy)
        processed_buckets += 1
    return dist, items


def _delta_stepping_scalar(
    graph: CSRGraph,
    source: int,
    delta: float,
    max_buckets: int,
) -> tuple[np.ndarray, list[WorkItem]]:
    """Scalar reference: per-vertex sorted loops over dict-of-set buckets."""
    n = graph.num_vertices
    dist = np.full(n, np.inf)

    layout = csr_layout(n, graph.num_directed_edges)
    indptr, indices = graph.indptr, graph.indices
    indptr_lines = layout.lines("indptr", np.arange(n, dtype=np.int64))
    edge_idx_lines = layout.lines(
        "indices", np.arange(graph.num_directed_edges, dtype=np.int64)
    )
    edge_vdata_lines = layout.lines("vdata", indices)
    items: list[WorkItem] = []

    buckets: dict[int, set[int]] = {0: {source}}
    dist[source] = 0.0

    def relax(v: int, candidate: float) -> None:
        if candidate < dist[v]:
            old_bucket = (
                int(dist[v] / delta) if np.isfinite(dist[v]) else None
            )
            if old_bucket is not None:
                buckets.get(old_bucket, set()).discard(v)
            dist[v] = candidate
            buckets.setdefault(int(candidate / delta), set()).add(v)

    def scan(v: int, light: bool) -> None:
        start, end = int(indptr[v]), int(indptr[v + 1])
        wts = graph.neighbor_weights(v)
        selected = np.flatnonzero((wts <= delta) == light)
        for offset in selected.tolist():
            u = int(indices[start + offset])
            relax(u, float(dist[v]) + float(wts[offset]))
        k_sel = start + selected
        lines = np.empty(1 + 2 * k_sel.size, dtype=np.int64)
        lines[0] = indptr_lines[v]
        lines[1::2] = edge_idx_lines[k_sel]
        lines[2::2] = edge_vdata_lines[k_sel]
        items.append(WorkItem(
            lines=lines,
            compute_cycles=(
                VERTEX_COMPUTE_CYCLES
                + EDGE_COMPUTE_CYCLES * (end - start)
            ),
        ))

    bucket_index = 0
    processed_buckets = 0
    while processed_buckets < max_buckets:
        # advance to the next non-empty bucket
        live = [b for b, members in buckets.items() if members]
        if not live:
            break
        bucket_index = min(live)
        settled: set[int] = set()
        # light-edge phase: iterate until the bucket stops refilling.
        # Re-inserted members (distance improved within the bucket) are
        # re-scanned — required for correctness; termination holds
        # because each re-insertion strictly decreases a distance.
        while buckets.get(bucket_index):
            frontier = buckets.pop(bucket_index)
            settled |= frontier
            for v in sorted(frontier):
                scan(v, light=True)
        # heavy-edge phase: once per settled vertex
        for v in sorted(settled):
            scan(v, light=False)
        processed_buckets += 1
    return dist, items
