"""Louvain community detection (the Grappolo substitute).

Grappolo (Lu, Halappanavar, Kalyanaraman 2015) is a multithreaded
parallelisation of the Louvain method (Blondel et al. 2008).  The structure
relevant to this reproduction is identical in both:

* **iterations** — full sweeps over the vertices, greedily moving each
  vertex into the neighbouring community with the best modularity gain,
  repeated until the modularity gain of a sweep drops below a threshold;
* **phases** — after the iterations converge, the graph is *compacted*:
  every community becomes a coarse vertex (intra-community weight becomes a
  self-loop) and the process restarts on the coarse graph.

The implementation keeps per-iteration and per-phase statistics because the
paper's Figure 9 reports exactly those (time per phase, time per iteration,
iteration count, final modularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._native import louvain as native_louvain
from ..engine import resolve_engine
from ..graph.csr import CSRGraph
from ..partition.coarsen import contract_by_labels
from .modularity import modularity_with_loops, weighted_degrees

__all__ = [
    "IterationStats",
    "PhaseStats",
    "LouvainResult",
    "louvain",
    "louvain_one_phase",
]

#: a sweep must improve modularity by at least this much to continue.
DEFAULT_THRESHOLD = 1e-4


@dataclass(frozen=True)
class IterationStats:
    """Statistics of one sweep over all vertices."""

    moves: int
    modularity: float
    #: distinct neighbouring communities inspected, summed over vertices —
    #: the data-dependent "auxiliary map" work of Grappolo's hot routine.
    communities_scanned: int
    #: adjacency entries traversed during the sweep.
    edges_scanned: int


@dataclass(frozen=True)
class PhaseStats:
    """Statistics of one phase (iterations on one compaction level)."""

    num_vertices: int
    num_edges: int
    iterations: tuple[IterationStats, ...]
    modularity: float

    @property
    def iteration_count(self) -> int:
        """Number of sweeps the phase ran."""
        return len(self.iterations)


@dataclass(frozen=True)
class LouvainResult:
    """Output of a full multi-phase Louvain run."""

    communities: np.ndarray
    modularity: float
    phases: tuple[PhaseStats, ...] = field(default=())

    @property
    def num_communities(self) -> int:
        """Number of communities in the final assignment."""
        if self.communities.size == 0:
            return 0
        return int(self.communities.max()) + 1

    @property
    def levels(self) -> int:
        """Number of phases executed."""
        return len(self.phases)


class _LouvainState:
    """Mutable state for sweeps on one compaction level."""

    def __init__(self, graph: CSRGraph, self_loops: np.ndarray) -> None:
        self.graph = graph
        self.self_loops = self_loops
        n = graph.num_vertices
        # k[v]: weighted degree including twice the self-loop.
        self.k = weighted_degrees(graph) + 2.0 * self_loops
        # Total weight M (edges once + self-loops).
        self.total = graph.total_weight() + float(self_loops.sum())
        self.community = np.arange(n, dtype=np.int64)
        self.comm_tot = self.k.copy()
        # Per-tier scratch, built lazily and reused across sweeps: the
        # vector tier's adjacency lists, the native tier's CSR arrays.
        self._adj: list[list[int]] | None = None
        self._adj_w: list[list[float]] | None = None
        self._csr: tuple[np.ndarray, ...] | None = None

    def sweep(
        self, order: np.ndarray
    ) -> tuple[int, int, int]:
        """One full vertex sweep; returns (moves, comms_scanned, edges).

        The native engine runs the whole sweep in C
        (:mod:`repro._native.louvain`); the vector engine runs the same
        greedy on native Python containers.  Both keep the scalar loop's
        accumulation order, candidate order and gain expression, so moves,
        gains, and community totals are bit-identical to it.
        """
        engine = resolve_engine()
        if engine == "scalar":
            return self._sweep_scalar(order)
        if self.total == 0:
            return 0, 0, 0
        if engine == "native":
            result = self._sweep_native(order)
            if result is not None:
                return result
        return self._sweep_vector(order)

    def _sweep_native(
        self, order: np.ndarray
    ) -> tuple[int, int, int] | None:
        """The compiled sweep; None when the kernel cannot run it."""
        graph = self.graph
        n = graph.num_vertices
        order = np.ascontiguousarray(order, dtype=np.int64)
        if order.size and (order.min() < 0 or order.max() >= n):
            return None  # leave out-of-range ids to the Python tiers
        if self._csr is None:
            weights = (
                graph.weights
                if graph.weights is not None
                else np.ones(graph.indices.size, dtype=np.float64)
            )
            self._csr = (
                np.ascontiguousarray(graph.indptr, dtype=np.int64),
                np.ascontiguousarray(graph.indices, dtype=np.int64),
                np.ascontiguousarray(weights, dtype=np.float64),
                np.zeros(n, dtype=np.float64),
                np.zeros(n, dtype=np.uint8),
                np.zeros(n, dtype=np.int64),
            )
        return native_louvain.sweep(
            self._csr, order, self.k, self.total,
            self.community, self.comm_tot,
        )

    def _sweep_vector(
        self, order: np.ndarray
    ) -> tuple[int, int, int]:
        """Vector tier of :meth:`sweep` (one bulk CSR conversion).

        Python float and numpy float64 arithmetic are the same IEEE
        operations, so this is bit-identical to the scalar loop.
        """
        graph = self.graph
        n = graph.num_vertices
        if self._adj is None:
            indptr = graph.indptr.tolist()
            flat = graph.indices.tolist()
            self._adj = [
                flat[indptr[v]: indptr[v + 1]] for v in range(n)
            ]
            flat_w = (
                graph.weights.tolist()
                if graph.weights is not None
                else [1.0] * len(flat)
            )
            self._adj_w = [
                flat_w[indptr[v]: indptr[v + 1]] for v in range(n)
            ]
        adj, adj_w = self._adj, self._adj_w
        community = self.community.tolist()
        comm_tot = self.comm_tot.tolist()
        k = self.k.tolist()
        m = self.total
        moves = 0
        comms_scanned = 0
        edges_scanned = 0
        for v in order.tolist():
            cv = community[v]
            nbrs = adj[v]
            edges_scanned += len(nbrs)
            # Weight from v to each neighbouring community.
            link: dict[int, float] = {cv: 0.0}
            for u, w in zip(nbrs, adj_w[v]):
                cu = community[u]
                link[cu] = link.get(cu, 0.0) + w
            comms_scanned += len(link)
            # Remove v from its community.
            kv = k[v]
            comm_tot[cv] -= kv
            base = link[cv] - comm_tot[cv] * kv / (2.0 * m)
            best_c, best_gain = cv, 0.0
            for c, w_vc in link.items():
                if c == cv:
                    continue
                gain = (w_vc - comm_tot[c] * kv / (2.0 * m)) - base
                if gain > best_gain + 1e-15 or (
                    abs(gain - best_gain) <= 1e-15 and c < best_c
                ):
                    best_c, best_gain = c, gain
            community[v] = best_c
            comm_tot[best_c] += kv
            if best_c != cv:
                moves += 1
        self.community = np.asarray(community, dtype=np.int64)
        self.comm_tot = np.asarray(comm_tot, dtype=np.float64)
        return moves, comms_scanned, edges_scanned

    def _sweep_scalar(
        self, order: np.ndarray
    ) -> tuple[int, int, int]:
        """Scalar reference for :meth:`sweep` (per-edge numpy loop)."""
        graph = self.graph
        community = self.community
        comm_tot = self.comm_tot
        k = self.k
        m = self.total
        moves = 0
        comms_scanned = 0
        edges_scanned = 0
        if m == 0:
            return 0, 0, 0
        for v in order:
            v = int(v)
            cv = int(community[v])
            nbrs = graph.neighbors(v)
            wts = graph.neighbor_weights(v)
            edges_scanned += nbrs.size
            # Weight from v to each neighbouring community.
            link: dict[int, float] = {cv: 0.0}
            for u, w in zip(nbrs, wts):
                cu = int(community[u])
                link[cu] = link.get(cu, 0.0) + float(w)
            comms_scanned += len(link)
            # Remove v from its community.
            comm_tot[cv] -= k[v]
            base = link[cv] - comm_tot[cv] * k[v] / (2.0 * m)
            best_c, best_gain = cv, 0.0
            for c, w_vc in link.items():
                if c == cv:
                    continue
                gain = (
                    w_vc - comm_tot[c] * k[v] / (2.0 * m)
                ) - base
                if gain > best_gain + 1e-15 or (
                    abs(gain - best_gain) <= 1e-15 and c < best_c
                ):
                    best_c, best_gain = c, gain
            community[v] = best_c
            comm_tot[best_c] += k[v]
            if best_c != cv:
                moves += 1
        return moves, comms_scanned, edges_scanned


def _renumber(labels: np.ndarray) -> np.ndarray:
    """Relabel community ids to a dense ``[0, k)`` range, order-preserving."""
    _, dense = np.unique(labels, return_inverse=True)
    return dense.astype(np.int64)


def louvain_one_phase(
    graph: CSRGraph,
    *,
    self_loops: np.ndarray | None = None,
    threshold: float = DEFAULT_THRESHOLD,
    max_iterations: int = 64,
    vertex_order: np.ndarray | None = None,
) -> tuple[np.ndarray, PhaseStats]:
    """Run the iterative sweeps of one phase.

    Parameters
    ----------
    vertex_order:
        The order in which vertices are visited within a sweep.  Natural
        order by default; the application study passes the order induced by
        a reordering scheme, because that is exactly the mechanism by which
        vertex ordering affects Grappolo.

    Returns
    -------
    (communities, stats) — ``communities`` uses dense ids.
    """
    n = graph.num_vertices
    if self_loops is None:
        self_loops = np.zeros(n, dtype=np.float64)
    state = _LouvainState(graph, self_loops)
    order = (
        np.arange(n, dtype=np.int64)
        if vertex_order is None
        else np.asarray(vertex_order, dtype=np.int64)
    )
    iterations: list[IterationStats] = []
    prev_q = (
        modularity_with_loops(graph, self_loops, state.community)
        if n
        else 0.0
    )
    for _ in range(max_iterations):
        moves, comms, edges = state.sweep(order)
        q = modularity_with_loops(
            graph, self_loops, _renumber(state.community)
        )
        iterations.append(
            IterationStats(
                moves=moves,
                modularity=q,
                communities_scanned=comms,
                edges_scanned=edges,
            )
        )
        if moves == 0 or q - prev_q < threshold:
            break
        prev_q = q
    communities = _renumber(state.community)
    final_q = iterations[-1].modularity if iterations else 0.0
    stats = PhaseStats(
        num_vertices=n,
        num_edges=graph.num_edges,
        iterations=tuple(iterations),
        modularity=final_q,
    )
    return communities, stats


def louvain(
    graph: CSRGraph,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    max_phases: int = 16,
    max_iterations: int = 64,
    vertex_order: np.ndarray | None = None,
) -> LouvainResult:
    """Full multi-phase Louvain.

    ``vertex_order`` applies to the *first* phase only: subsequent phases
    run on compacted graphs whose labelling, as the paper notes, "may have
    little relationship to the input ordering".
    """
    n = graph.num_vertices
    mapping = np.arange(n, dtype=np.int64)
    current = graph
    loops = np.zeros(n, dtype=np.float64)
    phases: list[PhaseStats] = []
    final_q = 0.0
    order = vertex_order
    for phase_idx in range(max_phases):
        communities, stats = louvain_one_phase(
            current,
            self_loops=loops,
            threshold=threshold,
            max_iterations=max_iterations,
            vertex_order=order,
        )
        order = None  # only the first phase sees the input ordering
        phases.append(stats)
        final_q = stats.modularity
        num_comms = int(communities.max()) + 1 if communities.size else 0
        if num_comms >= current.num_vertices:
            mapping = communities[mapping]
            break
        mapping = communities[mapping]
        level = contract_by_labels(
            current, communities, vertex_weights=loops, keep_self_loops=True
        )
        current, loops = level.graph, level.vertex_weights
        if current.num_vertices <= 1:
            break
        # Converged when the last phase made no moves beyond the first sweep.
        if stats.iteration_count == 1 and stats.iterations[0].moves == 0:
            break
    return LouvainResult(
        communities=_renumber(mapping),
        modularity=final_q,
        phases=tuple(phases),
    )
