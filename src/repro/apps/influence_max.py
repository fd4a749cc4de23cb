"""Influence maximization via IMM / Ripples (paper Section VI-C).

Implements the full pipeline the paper benchmarks:

* **RRR sampling** — reverse-reachability sets under the Independent
  Cascade (IC) and Linear Threshold (LT) diffusion models, generated by
  probabilistic reverse BFS (the Ripples hot-spot);
* **IMM martingale machinery** (Tang et al. 2015) — the OPT lower-bound
  estimation loop and the resulting sample-count ``theta``;
* **greedy seed selection** — lazy max-coverage over the RRR collection;
* **instrumentation** — the sampling procedure is replayed on the
  simulated machine (dynamic scheduling: Ripples runs many randomized
  BFSs concurrently) yielding sampling throughput, total time and the
  Figure 12 memory counters.

Sample counts are capped (``max_samples``) because true IMM thetas target
cluster-scale machines; the cap preserves steady-state cache behaviour,
which is what the ordering study measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..engine import gather_neighbors, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import apply_ordering
from ..ordering.base import Ordering
from ..simulator.counters import CounterReport
from ..simulator.hierarchy import HierarchyConfig
from ..simulator.parallel import BlockTrace, ExecutionResult, SimulatedMachine
from ..simulator.trace import csr_layout
from .community_detection import CLOCK_HZ
from .tracegen import SweepBlockTable

__all__ = [
    "RRRSet",
    "RRRSets",
    "sample_rrr_ic",
    "sample_rrr_ic_pinned",
    "sample_rrr_lt",
    "greedy_seed_selection",
    "imm_theta",
    "InfluenceMaxReport",
    "run_influence_maximization",
]

#: per-edge core work during a probabilistic BFS (RNG + branch).
EDGE_COMPUTE_CYCLES = 8
VERTEX_COMPUTE_CYCLES = 12


@dataclass(frozen=True)
class RRRSet:
    """One reverse-reachability sample: root plus reached vertices."""

    root: int
    vertices: np.ndarray
    edges_examined: int


@dataclass(frozen=True, eq=False)
class RRRSets:
    """A collection of RRR sets as one CSR.

    Set ``i`` reached ``members[offsets[i]:offsets[i + 1]]`` (root
    first, then discovery order) after examining ``edges[i]`` edges.
    The IMM runner keeps its samples in this form from the sampler's
    arena through seed selection and the line-budget cut to the
    simulated replay.  Indexing and iteration yield :class:`RRRSet`
    views (root = first member, -1 for an empty set), so the scalar
    references accept a collection as a list.
    """

    members: np.ndarray
    offsets: np.ndarray
    edges: np.ndarray

    @classmethod
    def from_sets(cls, sets) -> "RRRSets":
        """The CSR of a sequence of :class:`RRRSet`."""
        sizes = np.fromiter(
            (rrr.vertices.size for rrr in sets), np.int64, len(sets)
        )
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = (
            np.concatenate(
                [np.asarray(rrr.vertices, dtype=np.int64) for rrr in sets]
            )
            if len(sets) else np.zeros(0, dtype=np.int64)
        )
        edges = np.fromiter(
            (rrr.edges_examined for rrr in sets), np.int64, len(sets)
        )
        return cls(members, offsets, edges)

    @classmethod
    def concat(cls, parts) -> "RRRSets":
        """The sets of ``parts``, one collection after another."""
        parts = [part for part in parts if len(part)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.from_sets([])
        starts = np.cumsum([0] + [part.members.size for part in parts])
        return cls(
            np.concatenate([part.members for part in parts]),
            np.concatenate(
                [np.zeros(1, dtype=np.int64)]
                + [part.offsets[1:] + start
                   for part, start in zip(parts, starts.tolist())]
            ),
            np.concatenate([part.edges for part in parts]),
        )

    def __len__(self) -> int:
        return self.edges.size

    def __getitem__(self, i: int) -> RRRSet:
        if not 0 <= i < len(self):
            raise IndexError(i)
        vertices = self.members[self.offsets[i]: self.offsets[i + 1]]
        return RRRSet(
            root=int(vertices[0]) if vertices.size else -1,
            vertices=vertices,
            edges_examined=int(self.edges[i]),
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def head(self, count: int) -> "RRRSets":
        """The first ``count`` sets."""
        count = min(count, len(self))
        return RRRSets(
            self.members[: self.offsets[count]],
            self.offsets[: count + 1],
            self.edges[:count],
        )


def _edge_coins(
    orig_u: int,
    orig_v: np.ndarray,
    sample_index: int,
    seed: int,
) -> np.ndarray:
    """Deterministic per-edge uniforms keyed on original edge identity.

    A splitmix64-style mix of (min id, max id, sample, seed) gives every
    undirected edge one coin per sample, *independent of the vertex
    ordering* — so the cascade realisations of two differently-ordered
    copies of the same graph are identical and only memory behaviour can
    differ between them.
    """
    mask = (1 << 64) - 1
    salt = (
        sample_index * 0x94D049BB133111EB + seed * 0xD6E8FEB86659FD93
    ) & mask
    a = np.minimum(orig_v, orig_u).astype(np.uint64)
    b = np.maximum(orig_v, orig_u).astype(np.uint64)
    with np.errstate(over="ignore"):
        x = (
            a * np.uint64(0x9E3779B97F4A7C15)
            + b * np.uint64(0xBF58476D1CE4E5B9)
            + np.uint64(salt)
        )
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2 ** 64)


def sample_rrr_ic_pinned(
    graph: CSRGraph,
    probability: float,
    root: int,
    original_of: np.ndarray,
    sample_index: int,
    seed: int,
) -> RRRSet:
    """IC RRR set with hash-pinned coins (ordering-invariant cascades).

    ``original_of[x]`` maps a (possibly relabelled) vertex back to its
    original identity, which keys the per-edge coins.  ``root`` must be
    a vertex of ``[0, n)`` (``ValueError`` otherwise).  Under the native
    engine the cascade is drawn through the batch sampler
    (:mod:`repro.apps.batch`, the ``rrr_sample`` kernel when it can
    run); :func:`_sample_rrr_ic_pinned_scalar` is the retained ground
    truth.
    """
    if not 0 <= root < graph.num_vertices:
        raise ValueError(
            f"root {root} is not a vertex of [0, {graph.num_vertices})"
        )
    if resolve_engine() != "scalar":
        from .batch import sample_rrr_ic_pinned_batch

        return sample_rrr_ic_pinned_batch(
            graph, probability, [root], original_of, [sample_index],
            seed, jobs=1,
        )[0]
    return _sample_rrr_ic_pinned_scalar(
        graph, probability, root, original_of, sample_index, seed
    )


def _sample_rrr_ic_pinned_scalar(
    graph: CSRGraph,
    probability: float,
    root: int,
    original_of: np.ndarray,
    sample_index: int,
    seed: int,
) -> RRRSet:
    """Scalar reference for :func:`sample_rrr_ic_pinned` (BFS loop)."""
    visited = {root}
    frontier = [root]
    order = [root]
    edges = 0
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            nbrs = graph.neighbors(u)
            edges += nbrs.size
            if nbrs.size == 0:
                continue
            coins = _edge_coins(
                int(original_of[u]),
                original_of[nbrs],
                sample_index,
                seed,
            )
            for v in nbrs[coins < probability]:
                v = int(v)
                if v not in visited:
                    visited.add(v)
                    next_frontier.append(v)
                    order.append(v)
        frontier = next_frontier
    return RRRSet(
        root=root,
        vertices=np.asarray(order, dtype=np.int64),
        edges_examined=edges,
    )


def _sample_rrr_ic_vector(
    graph: CSRGraph,
    probability: float,
    rng: np.random.Generator,
    root: int,
) -> RRRSet:
    """Frontier-at-a-time IC sampler, bit-identical to the scalar BFS.

    One bulk ``rng.random`` per level consumes exactly the same PCG64
    stream as the scalar per-vertex draws (``Generator.random`` fills
    sequentially), so coins — and therefore the cascade — are identical.
    """
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    visited[root] = True
    frontier = np.asarray([root], dtype=np.int64)
    levels = [frontier]
    degrees = graph.degrees()
    edges = 0
    while frontier.size:
        edges += int(degrees[frontier].sum())
        targets, _ = gather_neighbors(
            graph.indptr, graph.indices, frontier
        )
        live = targets[rng.random(targets.size) < probability]
        live = live[~visited[live]]
        if live.size:
            _, first = np.unique(live, return_index=True)
            first.sort()
            live = live[first]
            visited[live] = True
        frontier = live
        levels.append(frontier)
    return RRRSet(
        root=root,
        vertices=np.concatenate(levels),
        edges_examined=edges,
    )


def sample_rrr_ic(
    graph: CSRGraph,
    probability: float,
    rng: np.random.Generator,
    *,
    root: int | None = None,
) -> RRRSet:
    """One RRR set under the Independent Cascade model.

    Reverse BFS from a (uniform) random root; each incident edge is live
    independently with ``probability``.  On an undirected graph forward and
    reverse traversal coincide.
    """
    n = graph.num_vertices
    if root is None:
        root = int(rng.integers(n))
    if resolve_engine() != "scalar":
        return _sample_rrr_ic_vector(graph, probability, rng, root)
    visited = {root}
    frontier = [root]
    order = [root]
    edges = 0
    while frontier:
        next_frontier: list[int] = []
        for u in frontier:
            nbrs = graph.neighbors(u)
            edges += nbrs.size
            if nbrs.size == 0:
                continue
            live = rng.random(nbrs.size) < probability
            for v in nbrs[live]:
                v = int(v)
                if v not in visited:
                    visited.add(v)
                    next_frontier.append(v)
                    order.append(v)
        frontier = next_frontier
    return RRRSet(
        root=root,
        vertices=np.asarray(order, dtype=np.int64),
        edges_examined=edges,
    )


def sample_rrr_lt(
    graph: CSRGraph,
    rng: np.random.Generator,
    *,
    root: int | None = None,
) -> RRRSet:
    """One RRR set under the Linear Threshold model (uniform weights).

    In the live-edge view of LT each vertex keeps exactly one uniformly
    random incoming edge, so the reverse reachable set is a single random
    walk that stops on revisiting a vertex (or reaching an isolate).
    """
    n = graph.num_vertices
    if root is None:
        root = int(rng.integers(n))
    visited = {root}
    order = [root]
    current = root
    edges = 0
    while True:
        nbrs = graph.neighbors(current)
        if nbrs.size == 0:
            break
        edges += 1
        current = int(nbrs[rng.integers(nbrs.size)])
        if current in visited:
            break
        visited.add(current)
        order.append(current)
    return RRRSet(
        root=root,
        vertices=np.asarray(order, dtype=np.int64),
        edges_examined=edges,
    )


def greedy_seed_selection(
    rrr_sets: list[RRRSet],
    num_vertices: int,
    k: int,
) -> tuple[list[int], float, int]:
    """Greedy max-coverage seed selection.

    Returns ``(seeds, covered_fraction, operations)`` where
    ``covered_fraction`` is the fraction of RRR sets hit by the seeds (the
    IMM spread estimate is ``n * covered_fraction``) and ``operations``
    counts the work for the cost model.  Under the native engine the
    selection runs on CSR-encoded set membership
    (:func:`repro.apps.batch.greedy_seed_selection_vector`); the loop
    below is the retained scalar ground truth.
    """
    if resolve_engine() != "scalar":
        from .batch import greedy_seed_selection_vector

        return greedy_seed_selection_vector(rrr_sets, num_vertices, k)
    coverage: list[list[int]] = [[] for _ in range(num_vertices)]
    for idx, rrr in enumerate(rrr_sets):
        for v in rrr.vertices:
            coverage[int(v)].append(idx)
    counts = np.asarray([len(c) for c in coverage], dtype=np.int64)
    covered = np.zeros(len(rrr_sets), dtype=bool)
    seeds: list[int] = []
    operations = int(counts.sum())
    for _ in range(min(k, num_vertices)):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        seeds.append(best)
        # Mark this seed's sets covered and discount other vertices.
        for idx in coverage[best]:
            if covered[idx]:
                continue
            covered[idx] = True
            for v in rrr_sets[idx].vertices:
                counts[int(v)] -= 1
                operations += 1
        counts[best] = -1
    fraction = float(covered.mean()) if len(rrr_sets) else 0.0
    return seeds, fraction, operations


def _log_binomial(n: int, k: int) -> float:
    """log(C(n, k)) via lgamma."""
    if k < 0 or k > n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def imm_theta(
    num_vertices: int,
    k: int,
    *,
    epsilon: float = 0.5,
    ell: float = 1.0,
    opt_lower_bound: float | None = None,
) -> int:
    """The IMM sample count ``theta = lambda* / LB`` (Tang et al., eq. 6).

    With ``opt_lower_bound`` unset, the trivial bound ``LB = k`` is used
    (the estimation loop in :func:`run_influence_maximization` refines it).
    """
    n = num_vertices
    if n < 2:
        return 1
    log_nk = _log_binomial(n, k)
    alpha = math.sqrt(ell * math.log(n) + math.log(2))
    beta = math.sqrt(
        (1.0 - 1.0 / math.e) * (log_nk + ell * math.log(n) + math.log(2))
    )
    lam_star = (
        2.0 * n * ((1.0 - 1.0 / math.e) * alpha + beta) ** 2
    ) / (epsilon ** 2)
    lb = opt_lower_bound if opt_lower_bound else float(max(1, k))
    return max(1, int(math.ceil(lam_star / lb)))


def _sampling_trace(
    graph: CSRGraph,
    rrr_sets: RRRSets,
    *,
    line_budget: int = 1_000_000,
) -> tuple[BlockTrace, int]:
    """Replayable memory trace of the sampling hot-spot.

    Each RRR set's generation reads, per visited vertex: its ``indptr``
    slot, the CSR ``indices`` span, and the visited-flag of every examined
    neighbour (vertex-indexed — the ordering-sensitive stream).  That is
    the vertex's block of a :class:`SweepBlockTable`, so item ``i`` of
    the trace is set ``i``'s member list over the table.

    The replay is steady-state: sets are traced until ``line_budget``
    total lines have been emitted (the set crossing it included), and
    the caller extrapolates wall time from the traced prefix.  Returns
    ``(trace, sets_traced)``.
    """
    layout = csr_layout(graph.num_vertices, graph.num_directed_edges)
    table = SweepBlockTable(graph, layout)
    members, offsets = rrr_sets.members, rrr_sets.offsets
    emitted = np.zeros(members.size + 1, dtype=np.int64)
    np.cumsum(table.block_lengths[members], out=emitted[1:])
    traced = min(
        len(rrr_sets),
        int(np.searchsorted(emitted[offsets[1:]], line_budget)) + 1,
    )
    sizes = offsets[1: traced + 1] - offsets[:traced]
    compute = (
        VERTEX_COMPUTE_CYCLES * sizes
        + EDGE_COMPUTE_CYCLES * rrr_sets.edges[:traced]
    )
    return (
        table.trace(
            members[: offsets[traced]], offsets[: traced + 1], compute
        ),
        traced,
    )


@dataclass(frozen=True)
class InfluenceMaxReport:
    """One (graph, ordering) cell of Figures 11 and 12."""

    scheme: str
    model: str
    num_threads: int
    num_samples: int
    seeds: tuple[int, ...]
    estimated_spread: float
    sampling_seconds: float
    selection_seconds: float
    sampling_throughput: float  # RRR sets per second
    counters: CounterReport
    execution: ExecutionResult

    @property
    def total_seconds(self) -> float:
        """End-to-end application time (Figure 11's 'Total')."""
        return self.sampling_seconds + self.selection_seconds


def run_influence_maximization(
    graph: CSRGraph,
    ordering: Ordering,
    *,
    k: int = 16,
    probability: float = 0.25,
    model: str = "ic",
    epsilon: float = 0.5,
    num_threads: int = 4,
    max_samples: int = 3000,
    hierarchy: HierarchyConfig | None = None,
    seed: int = 7,
    jobs: int | None = None,
) -> InfluenceMaxReport:
    """Full IMM run with instrumentation for one (graph, ordering).

    The IMM estimation loop halves the OPT guess until the greedy coverage
    certifies a lower bound, then ``theta`` samples are drawn (both stages
    capped at ``max_samples``), seeds selected, and the sampling trace
    replayed on the simulated machine.  Under the native and vector
    engines the IC samples are drawn through the batch sampler (the
    ``rrr_sample`` kernel when it can run); ``jobs > 1``
    additionally fans sample blocks out across pool workers
    (bit-identical either way — pinned cascades are deterministic per
    sample index).
    """
    if model not in ("ic", "lt"):
        raise ValueError("model must be 'ic' or 'lt'")
    relabelled = apply_ordering(graph, ordering.permutation)
    rng = np.random.default_rng(seed)
    # Roots are drawn in *original* vertex identity from a dedicated
    # stream, then mapped through the permutation — every ordering scheme
    # therefore samples the same cascade roots, and throughput differences
    # reflect layout, not sampling luck.
    root_rng = np.random.default_rng(seed + 1)
    n = relabelled.num_vertices
    perm = ordering.permutation
    from ..graph.permute import invert_ordering

    original_of = invert_ordering(perm)

    batch = resolve_engine() != "scalar"

    def draw(count: int, existing: RRRSets) -> RRRSets:
        # Roots come off the dedicated stream in one call (the same
        # values and stream state as one scalar call per root), then
        # the whole block of pending sample indices is cascaded at once.
        start = len(existing)
        if count <= start:
            return existing
        roots = (
            perm[root_rng.integers(n, size=count - start)] if n
            else np.zeros(count - start, dtype=np.int64)
        )
        if model == "ic":
            # Hash-pinned coins: the cascade realisation is identical
            # under every ordering of the same graph.
            from .batch import sample_rrr_ic_pinned_sets

            fresh = sample_rrr_ic_pinned_sets(
                relabelled, probability, roots, original_of,
                np.arange(start, count, dtype=np.int64), seed,
                jobs=jobs if batch else 1,
            )
        else:
            fresh = RRRSets.from_sets([
                sample_rrr_lt(relabelled, rng, root=root)
                for root in roots.tolist()
            ])
        return RRRSets.concat([existing, fresh])

    # ---- IMM estimation loop (Algorithm 2, with the sample cap).
    rrr_sets = RRRSets.from_sets([])
    eps_prime = math.sqrt(2.0) * epsilon
    lb = float(max(1, k))
    log_n = math.log(max(2, n))
    lam_prime = (
        (2.0 + 2.0 * eps_prime / 3.0)
        * (_log_binomial(n, k) + log_n + math.log(max(2, math.log2(n))))
        * n
        / (eps_prime ** 2)
    )
    max_rounds = max(1, int(math.log2(max(2, n))) - 1)
    for i in range(1, max_rounds + 1):
        x = n / (2.0 ** i)
        theta_i = min(max_samples, max(1, int(math.ceil(lam_prime / x))))
        rrr_sets = draw(theta_i, rrr_sets)
        _, fraction, _ = greedy_seed_selection(rrr_sets, n, k)
        if n * fraction >= (1.0 + eps_prime) * x:
            lb = n * fraction / (1.0 + eps_prime)
            break
        if theta_i >= max_samples:
            lb = max(lb, n * fraction / (1.0 + eps_prime))
            break

    theta = min(max_samples, imm_theta(
        n, k, epsilon=epsilon, opt_lower_bound=lb
    ))
    rrr_sets = draw(theta, rrr_sets).head(max(theta, 1))

    seeds, fraction, select_ops = greedy_seed_selection(rrr_sets, n, k)
    estimated_spread = n * fraction

    # ---- Replay the sampling hot-spot on the simulated machine.
    trace, traced = _sampling_trace(relabelled, rrr_sets)
    machine = SimulatedMachine(num_threads, hierarchy)
    execution = machine.run_dynamic(trace, chunk=4)
    # Extrapolate from the traced prefix when the line budget truncated
    # the replay (steady-state cache behaviour is reached long before).
    scale = len(rrr_sets) / max(1, traced)
    sampling_seconds = execution.makespan * scale / CLOCK_HZ
    # Selection is bandwidth-light scalar work; cost-model it at 4 cycles
    # per operation on one thread of the 32-thread selection pool.
    selection_seconds = (select_ops * 4.0 / 32.0) / CLOCK_HZ
    throughput = (
        len(rrr_sets) / sampling_seconds if sampling_seconds > 0 else 0.0
    )

    return InfluenceMaxReport(
        scheme=ordering.scheme,
        model=model,
        num_threads=num_threads,
        num_samples=len(rrr_sets),
        seeds=tuple(seeds),
        estimated_spread=estimated_spread,
        sampling_seconds=sampling_seconds,
        selection_seconds=selection_seconds,
        sampling_throughput=throughput,
        counters=execution.report,
        execution=execution,
    )
