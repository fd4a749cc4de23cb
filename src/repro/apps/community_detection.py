"""Instrumented parallel community detection (paper Section VI-B).

Reproduces the Figure 9 / Figure 10 apparatus: run Grappolo-style Louvain
on a reordered graph and measure, for the **first phase** (the only phase
whose memory behaviour reflects the input ordering):

* average phase time and time per iteration (simulated cycles → seconds at
  a nominal clock),
* iteration count and final modularity (from the actual Louvain run),
* parallel efficiency "Work%" (load balance across simulated threads),
* "Work/edge" — loads per edge in the hot routine, including the
  auxiliary community-map accesses the paper highlights,
* the VTune-style memory counters (average load latency, L1/L2/L3/DRAM
  bound).

The hot routine modelled is Grappolo's neighbourhood scan: for each vertex
``v`` (vertices statically partitioned over threads), read its CSR slice,
read the community id of every neighbour, and probe a thread-local map
once per neighbour plus once per *distinct* neighbouring community.  The
community-id reads are the ordering-sensitive accesses: their addresses
are the neighbour ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..community.louvain import louvain
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import apply_ordering
from ..ordering.base import Ordering
from ..simulator.counters import CounterReport
from ..simulator.hierarchy import HierarchyConfig
from ..simulator.parallel import (
    BlockTrace,
    ExecutionResult,
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
)
from ..simulator.trace import csr_layout

__all__ = [
    "CommunityDetectionReport",
    "run_community_detection",
    "build_sweep_items",
    "build_sweep_trace",
    "CLOCK_HZ",
]

#: nominal core clock for converting simulated cycles to seconds
#: (the paper's testbed runs at 2.2 GHz).
CLOCK_HZ = 2.2e9

#: per-vertex / per-neighbour core work in cycles (branchy scalar code).
VERTEX_COMPUTE_CYCLES = 10
EDGE_COMPUTE_CYCLES = 6

#: thread-local map scratch: entries live in a small per-thread region.
MAP_SLOTS = 512


@dataclass(frozen=True)
class CommunityDetectionReport:
    """One (graph, ordering) cell of Figures 9 and 10."""

    scheme: str
    num_threads: int
    phase_seconds: float
    iteration_seconds: float
    iteration_count: int
    modularity: float
    work_fraction: float
    work_per_edge: float
    counters: CounterReport
    execution: ExecutionResult

    def as_dict(self) -> dict[str, float]:
        """Flat metric dictionary for tabulation."""
        out = {
            "phase_s": self.phase_seconds,
            "iteration_s": self.iteration_seconds,
            "iterations": float(self.iteration_count),
            "modularity": self.modularity,
            "work_pct": self.work_fraction * 100.0,
            "work_per_edge": self.work_per_edge,
        }
        out.update(self.counters.as_dict())
        return out


def _build_sweep_items_scalar(
    graph: CSRGraph,
    communities: np.ndarray | None,
    line_bytes: int,
) -> list[WorkItem]:
    """Scalar ground truth for :func:`build_sweep_items`.

    Per vertex: one ``layout.line`` call per access — the indptr slot,
    then ``(indices, community id, map probe)`` per adjacency entry, then
    one tail map probe per distinct neighbouring community in ascending
    order (the ``sorted(set)`` second pass).
    """
    n = graph.num_vertices
    layout = csr_layout(
        n,
        graph.num_directed_edges,
        line_bytes=line_bytes,
        extra_vertex_arrays=("map_region",),
    )
    if communities is None:
        communities = np.arange(n, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    items: list[WorkItem] = []
    for v in range(n):
        start, end = int(indptr[v]), int(indptr[v + 1])
        lines = [layout.line("indptr", v)]
        neighbouring: set[int] = set()
        for k in range(start, end):
            u = int(indices[k])
            cu = int(communities[u])
            lines.append(layout.line("indices", k))
            lines.append(layout.line("vdata", u))
            lines.append(layout.line("map_region", cu % MAP_SLOTS))
            neighbouring.add(cu)
        for cu in sorted(neighbouring):
            lines.append(layout.line("map_region", cu % MAP_SLOTS))
        items.append(WorkItem(
            lines=np.asarray(lines, dtype=np.int64),
            compute_cycles=(
                VERTEX_COMPUTE_CYCLES
                + EDGE_COMPUTE_CYCLES * (end - start)
            ),
        ))
    return items


def build_sweep_items(
    graph: CSRGraph,
    communities: np.ndarray | None = None,
    *,
    line_bytes: int = 64,
) -> list[WorkItem]:
    """One work item per vertex: the hot-routine trace of one sweep.

    ``communities`` supplies the community id of each vertex at sweep time
    (defaults to singleton communities — the first iteration's state, where
    ``community[u] == u``, which is also the most ordering-sensitive
    configuration).  The vector tier cuts the items out of
    :func:`build_sweep_trace`'s flat table; the scalar reference
    (:func:`_build_sweep_items_scalar`) emits the same streams one
    ``layout.line`` call at a time.
    """
    if resolve_engine() == "scalar":
        return _build_sweep_items_scalar(graph, communities, line_bytes)
    return build_sweep_trace(
        graph, communities, line_bytes=line_bytes
    ).work_items()


def build_sweep_trace(
    graph: CSRGraph,
    communities: np.ndarray | None = None,
    *,
    line_bytes: int = 64,
) -> BlockTrace:
    """:func:`build_sweep_items` as one :class:`BlockTrace`.

    Block ``v`` is vertex ``v``'s stream and item ``v`` issues block
    ``v``; the table is assembled with whole-array layout conversions,
    so no per-vertex object is built.  Under the scalar engine the
    scalar builder's items are flattened instead.
    """
    if resolve_engine() == "scalar":
        return BlockTrace.from_items(
            _build_sweep_items_scalar(graph, communities, line_bytes)
        )
    n = graph.num_vertices
    layout = csr_layout(
        n,
        graph.num_directed_edges,
        line_bytes=line_bytes,
        extra_vertex_arrays=("map_region",),
    )
    if communities is None:
        communities = np.arange(n, dtype=np.int64)
    indptr = np.asarray(graph.indptr, dtype=np.int64)
    indices = np.asarray(graph.indices, dtype=np.int64)
    comm = np.asarray(communities, dtype=np.int64)
    m = indices.size
    deg = indptr[1:] - indptr[:-1]
    # Per-vertex block: [indptr, (indices_k, vdata_u, map probe)...] plus
    # a tail probe per *distinct* neighbouring community in ascending
    # order (== the scalar builder's sorted(set) second pass), built with
    # whole-array layout conversions instead of per-access line() calls.
    if m:
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        edge_comm = comm[indices]
        stride = int(comm.max()) + 1 if comm.size else 1
        distinct = np.unique(src * stride + edge_comm)
        tail_src = distinct // stride
        tail_comm = distinct - tail_src * stride
        tail_count = np.bincount(tail_src, minlength=n)
    else:
        tail_count = np.zeros(n, dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(1 + 3 * deg + tail_count, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    flat[offsets[:-1]] = layout.lines(
        "indptr", np.arange(n, dtype=np.int64)
    )
    if m:
        edge_pos = offsets[src] + 1 + 3 * (
            np.arange(m, dtype=np.int64) - indptr[src]
        )
        flat[edge_pos] = layout.lines(
            "indices", np.arange(m, dtype=np.int64)
        )
        # The ordering-sensitive load: neighbour's community id.
        flat[edge_pos + 1] = layout.lines("vdata", indices)
        # Map probe for the neighbour's community.
        flat[edge_pos + 2] = layout.lines(
            "map_region", edge_comm % MAP_SLOTS
        )
        tail_start = np.zeros(n, dtype=np.int64)
        np.cumsum(tail_count[:-1], out=tail_start[1:])
        tail_pos = offsets[tail_src] + 1 + 3 * deg[tail_src] + (
            np.arange(tail_src.size, dtype=np.int64)
            - tail_start[tail_src]
        )
        flat[tail_pos] = layout.lines(
            "map_region", tail_comm % MAP_SLOTS
        )
    flat.setflags(write=False)
    return BlockTrace(
        flat,
        offsets,
        np.arange(n, dtype=np.int64),
        np.arange(n + 1, dtype=np.int64),
        VERTEX_COMPUTE_CYCLES + EDGE_COMPUTE_CYCLES * deg,
    )


def _run_colored(
    relabelled: CSRGraph,
    trace: BlockTrace,
    machine: SimulatedMachine,
    num_threads: int,
):
    """Colour-class-by-colour-class execution with barriers.

    Each colour class is an independent parallel region; per-region
    makespans add up (the barrier cost Grappolo pays for race freedom).
    The returned result aggregates cycles and counters across regions.
    """
    from ..community.coloring import color_classes, greedy_coloring

    colors = greedy_coloring(relabelled)
    total_cycles = [0] * num_threads
    total_loads = [0] * num_threads
    makespan_sum = 0
    loads = 0
    latency_sum = 0.0
    level_cycles = [0, 0, 0, 0]
    total_all = 0
    memory_all = 0
    for batch in color_classes(colors):
        if not len(batch):
            continue
        region = machine.run_dynamic(trace.select(batch), chunk=8)
        makespan_sum += region.makespan
        for t in range(num_threads):
            total_cycles[t] += region.thread_cycles[t]
            total_loads[t] += region.thread_loads[t]
        loads += region.report.loads
        latency_sum += (
            region.report.average_latency * region.report.loads
        )
        for i in range(4):
            level_cycles[i] += int(
                region.report.bound[i] * region.report.total_cycles
            )
        total_all += region.report.total_cycles
        memory_all += region.report.memory_cycles
    bound = tuple(
        (c / total_all if total_all else 0.0) for c in level_cycles
    )
    report = CounterReport(
        loads=loads,
        average_latency=(latency_sum / loads if loads else 0.0),
        bound=bound,  # type: ignore[arg-type]
        total_cycles=total_all,
        memory_cycles=memory_all,
    )
    return ColoredExecutionResult(
        num_threads=num_threads,
        thread_cycles=tuple(total_cycles),
        thread_loads=tuple(total_loads),
        report=report,
        barrier_makespan=makespan_sum,
    )


@dataclass(frozen=True)
class ColoredExecutionResult(ExecutionResult):
    """Execution result whose makespan sums per-colour-class barriers."""

    barrier_makespan: int = 0

    @property
    def makespan(self) -> int:  # type: ignore[override]
        return self.barrier_makespan


def run_community_detection(
    graph: CSRGraph,
    ordering: Ordering,
    *,
    num_threads: int = 4,
    hierarchy: HierarchyConfig | None = None,
    threshold: float = 1e-4,
    max_phases: int = 4,
    schedule: str = "block",
) -> CommunityDetectionReport:
    """Run the full Figure 9/10 measurement for one (graph, ordering).

    The graph is relabelled under ``ordering`` — all arrays are laid out in
    rank order — then (a) real Louvain provides iteration count and
    modularity, and (b) the simulated machine replays the first-phase sweep
    to obtain time, Work% and memory counters.

    Parameters
    ----------
    schedule:
        ``"block"`` — vertices statically partitioned into contiguous
        blocks (the default sweep model).  ``"colored"`` — Grappolo's
        colouring-based parallelism: the graph is distance-1 coloured and
        colour classes are swept one after another with a barrier between
        them (race-free moves, extra synchronisation).
    """
    if schedule not in ("block", "colored"):
        raise ValueError("schedule must be 'block' or 'colored'")
    relabelled = apply_ordering(graph, ordering.permutation)
    result = louvain(
        relabelled, threshold=threshold, max_phases=max_phases
    )
    first_phase = result.phases[0]
    iteration_count = first_phase.iteration_count

    trace = build_sweep_trace(relabelled)
    machine = SimulatedMachine(num_threads, hierarchy)
    if schedule == "block":
        blocks = static_block_schedule(trace.num_items, num_threads)
        thread = np.repeat(
            np.arange(num_threads, dtype=np.int64),
            [idx.size for idx in blocks],
        )
        execution = machine.run(trace, item_thread=thread)
    else:
        execution = _run_colored(
            relabelled, trace, machine, num_threads
        )

    iteration_seconds = execution.makespan / CLOCK_HZ
    phase_seconds = iteration_seconds * iteration_count
    num_edges = max(1, relabelled.num_edges)
    # Work/edge, as in Figure 9: loads per edge in the hot routine —
    # data dependent through the community-map population, measured from
    # the real sweeps (3 loads per adjacency entry: index, community id,
    # map probe; plus one map load per distinct neighbouring community).
    hot_loads = sum(
        3 * it.edges_scanned + it.communities_scanned
        for it in first_phase.iterations
    )
    work_per_edge = hot_loads / (num_edges * max(1, iteration_count))

    return CommunityDetectionReport(
        scheme=ordering.scheme,
        num_threads=num_threads,
        phase_seconds=phase_seconds,
        iteration_seconds=iteration_seconds,
        iteration_count=iteration_count,
        modularity=result.modularity,
        work_fraction=execution.work_fraction,
        work_per_edge=work_per_edge,
        counters=execution.report,
        execution=execution,
    )
