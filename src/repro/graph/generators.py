"""Synthetic graph generators for the dataset surrogates.

The paper evaluates on 34 real-world graphs drawn from KONECT and the
DIMACS-10 collection.  Those files are not redistributable here, so the
reproduction generates *surrogates*: synthetic graphs from the same
structural families (road networks, finite-element meshes, social networks,
citation/collaboration networks, peer-to-peer overlays, web-like graphs).
Each generator below targets one family; :mod:`repro.datasets.catalog`
selects the generator and parameters per paper input.

All generators are deterministic given a seed, return canonical undirected
:class:`~repro.graph.csr.CSRGraph` objects, and accept sizes small enough
for the pure-Python simulation substrate.
"""

from __future__ import annotations

import numpy as np

from .builder import GraphBuilder, from_edges
from .csr import CSRGraph

__all__ = [
    "road_network",
    "mesh_graph",
    "delaunay_graph",
    "barabasi_albert",
    "rmat_graph",
    "watts_strogatz",
    "planted_partition",
    "hub_and_spokes",
    "bipartite_affiliation",
    "random_graph",
    "configuration_model",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _shuffle_labels(
    graph: CSRGraph, rng: np.random.Generator
) -> CSRGraph:
    """Relabel vertices with a random permutation.

    Generators whose construction order encodes the planted structure
    (contiguous communities, hub blocks) apply this so that the *natural*
    ordering of the surrogate does not secretly coincide with the planted
    optimum — real crawls do not label communities contiguously.
    """
    from .permute import apply_ordering

    perm = rng.permutation(graph.num_vertices).astype(np.int64)
    return apply_ordering(graph, perm)


def road_network(
    width: int,
    height: int,
    *,
    removal_probability: float = 0.25,
    shortcut_probability: float = 0.02,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """A road-network-like graph: a sparse perturbed grid.

    Road networks (Chicago Road, California Roadnet, Euroroad, US power
    grid) are near-planar with tiny maximum degree and near-unit degree
    variance.  A grid with random edge removals and a few local diagonal
    shortcuts matches those statistics.
    """
    rng = _rng(seed)
    n = width * height
    builder = GraphBuilder(n)

    def vid(x: int, y: int) -> int:
        return y * width + x

    for y in range(height):
        for x in range(width):
            if x + 1 < width and rng.random() >= removal_probability:
                builder.add_edge(vid(x, y), vid(x + 1, y))
            if y + 1 < height and rng.random() >= removal_probability:
                builder.add_edge(vid(x, y), vid(x, y + 1))
            if (
                x + 1 < width
                and y + 1 < height
                and rng.random() < shortcut_probability
            ):
                builder.add_edge(vid(x, y), vid(x + 1, y + 1))
    return builder.build()


def mesh_graph(width: int, height: int) -> CSRGraph:
    """A triangulated structured mesh (finite-element style).

    Matches the fe_4elt2 / cs4 / wing_nodal family: bounded degree,
    extremely low degree variance, large diameter.
    """
    n = width * height
    builder = GraphBuilder(n)

    def vid(x: int, y: int) -> int:
        return y * width + x

    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                builder.add_edge(vid(x, y), vid(x + 1, y))
            if y + 1 < height:
                builder.add_edge(vid(x, y), vid(x, y + 1))
            if x + 1 < width and y + 1 < height:
                builder.add_edge(vid(x, y), vid(x + 1, y + 1))
    return builder.build()


def delaunay_graph(
    num_vertices: int, *, seed: int | np.random.Generator | None = 0
) -> CSRGraph:
    """Delaunay triangulation of random points in the unit square.

    This is exactly how the DIMACS-10 ``delaunay_nXX`` inputs were
    generated (at larger scale).
    """
    from scipy.spatial import Delaunay  # deferred: scipy import is slow

    rng = _rng(seed)
    if num_vertices < 3:
        raise ValueError("a Delaunay graph needs at least 3 points")
    points = rng.random((num_vertices, 2))
    tri = Delaunay(points)
    builder = GraphBuilder(num_vertices)
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        builder.add_edge(a, b)
        builder.add_edge(b, c)
        builder.add_edge(a, c)
    return builder.build()


def barabasi_albert(
    num_vertices: int,
    edges_per_vertex: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Preferential-attachment graph (power-law degree distribution).

    Surrogate family for citation, collaboration and small social networks
    (Cora, arXiv astro-ph, PGP, hamster).
    """
    rng = _rng(seed)
    m = edges_per_vertex
    if num_vertices <= m:
        raise ValueError("num_vertices must exceed edges_per_vertex")
    builder = GraphBuilder(num_vertices)
    # Repeated-endpoint list implements preferential attachment in O(1)
    # per sample.
    targets = list(range(m + 1))
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            builder.add_edge(u, v)
    endpoint_pool: list[int] = []
    for u in range(m + 1):
        endpoint_pool.extend([u] * m)
    for u in range(m + 1, num_vertices):
        chosen: set[int] = set()
        while len(chosen) < m:
            pick = endpoint_pool[int(rng.integers(len(endpoint_pool)))]
            chosen.add(pick)
        for v in sorted(chosen):
            builder.add_edge(u, v)
            endpoint_pool.append(v)
        endpoint_pool.extend([u] * m)
    del targets
    return builder.build()


def rmat_graph(
    scale: int,
    edge_factor: float,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Recursive-matrix (R-MAT / Kronecker) graph.

    The canonical generator for heavy-tailed web/social graphs with strong
    hub skew — surrogate family for Skitter, Youtube, Orkut, LiveJournal,
    Hyves.  ``n = 2**scale``, ``m ≈ edge_factor * n`` before dedup.
    """
    rng = _rng(seed)
    n = 1 << scale
    num_samples = int(edge_factor * n)
    d = 1.0 - (a + b + c)
    if d < 0:
        raise ValueError("a + b + c must be at most 1")
    src = np.zeros(num_samples, dtype=np.int64)
    dst = np.zeros(num_samples, dtype=np.int64)
    for level in range(scale):
        r = rng.random(num_samples)
        bit = 1 << (scale - 1 - level)
        go_right = (r >= a) & (r < a + b)
        go_down = (r >= a + b) & (r < a + b + c)
        go_diag = r >= a + b + c
        dst[go_right] |= bit
        src[go_down] |= bit
        src[go_diag] |= bit
        dst[go_diag] |= bit
    keep = src != dst
    edges = np.column_stack((src[keep], dst[keep]))
    return from_edges(n, edges)


def watts_strogatz(
    num_vertices: int,
    neighbors: int,
    rewire_probability: float,
    *,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Small-world ring lattice with random rewiring."""
    rng = _rng(seed)
    if neighbors % 2 != 0:
        raise ValueError("neighbors must be even")
    half = neighbors // 2
    builder = GraphBuilder(num_vertices)
    for u in range(num_vertices):
        for offset in range(1, half + 1):
            v = (u + offset) % num_vertices
            if rng.random() < rewire_probability:
                v = int(rng.integers(num_vertices))
                while v == u:
                    v = int(rng.integers(num_vertices))
            builder.add_edge(u, v)
    return builder.build()


def planted_partition(
    num_communities: int,
    community_size: int,
    *,
    p_in: float = 0.3,
    p_out: float = 0.005,
    shuffle: bool = True,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Stochastic block model with equal-size planted communities.

    Surrogate family for strongly modular social networks and the inputs on
    which community-aware orderings (Grappolo, Rabbit) shine.  With
    ``shuffle`` (default) vertex labels are randomly permuted so the
    natural order carries no information about the planted communities.
    """
    rng = _rng(seed)
    n = num_communities * community_size
    builder = GraphBuilder(n)
    # One coin per intra-community pair, communities in turn and pairs
    # in (i, j) order: the stream one rng.random() per pair would draw.
    first, second = np.triu_indices(community_size, 1)
    coins = rng.random(num_communities * first.size).reshape(
        num_communities, first.size
    )
    community, pair = np.nonzero(coins < p_in)
    base = community * community_size
    builder.add_edge_array(base + first[pair], base + second[pair])
    # Sparse inter-community edges sampled by expected count.
    for ci in range(num_communities):
        for cj in range(ci + 1, num_communities):
            expected = p_out * community_size * community_size
            count = rng.poisson(expected)
            for _ in range(count):
                u = ci * community_size + int(rng.integers(community_size))
                v = cj * community_size + int(rng.integers(community_size))
                builder.add_edge(u, v)
    graph = builder.build()
    return _shuffle_labels(graph, rng) if shuffle else graph


def hub_and_spokes(
    num_hubs: int,
    spokes_per_hub: int,
    *,
    hub_interconnect_probability: float = 0.5,
    shuffle: bool = True,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Graph of hubs with private leaf spokes (caveman/hub structure).

    Surrogate family for graphs with extreme degree skew and low clustering
    (Figeys, Google+, CAIDA) where SlashBurn-style hub removal is the
    natural decomposition.  ``shuffle`` (default) randomises vertex labels
    so hubs are not contiguous in the natural order.
    """
    rng = _rng(seed)
    n = num_hubs * (1 + spokes_per_hub)
    builder = GraphBuilder(n)
    for h in range(num_hubs):
        hub = h * (1 + spokes_per_hub)
        for s in range(spokes_per_hub):
            builder.add_edge(hub, hub + 1 + s)
        for other in range(h + 1, num_hubs):
            if rng.random() < hub_interconnect_probability:
                builder.add_edge(hub, other * (1 + spokes_per_hub))
    graph = builder.build()
    return _shuffle_labels(graph, rng) if shuffle else graph


def bipartite_affiliation(
    num_actors: int,
    num_groups: int,
    memberships_per_actor: int,
    *,
    popularity_exponent: float = 0.7,
    clique_cap: int = 24,
    pair_factor: int = 6,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """One-mode projection of an actor–group affiliation network.

    Surrogate family for Actor collaborations and Twitter lists: dense
    overlapping cliques with heavy-tailed group sizes.

    Parameters
    ----------
    popularity_exponent:
        Group popularity follows ``1 / rank**exponent``; smaller exponents
        flatten the tail (fewer giant groups).
    clique_cap / pair_factor:
        Groups up to ``clique_cap`` members project to full cliques;
        larger groups are subsampled to ``pair_factor`` edges per member so
        a single giant group cannot dominate the edge budget.
    """
    rng = _rng(seed)
    popularity = 1.0 / np.arange(1, num_groups + 1) ** popularity_exponent
    popularity /= popularity.sum()
    groups: list[list[int]] = [[] for _ in range(num_groups)]
    for actor in range(num_actors):
        chosen = rng.choice(
            num_groups,
            size=min(memberships_per_actor, num_groups),
            replace=False,
            p=popularity,
        )
        for g in chosen:
            groups[int(g)].append(actor)
    builder = GraphBuilder(num_actors)
    for members in groups:
        if len(members) <= clique_cap:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    builder.add_edge(members[i], members[j])
        else:
            pairs = len(members) * pair_factor
            arr = np.asarray(members)
            us = rng.choice(arr, size=pairs)
            vs = rng.choice(arr, size=pairs)
            for u, v in zip(us, vs):
                if u != v:
                    builder.add_edge(int(u), int(v))
    return builder.build()


def random_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Erdős–Rényi G(n, m)-style graph (sampling with replacement, deduped)."""
    rng = _rng(seed)
    src = rng.integers(num_vertices, size=num_edges)
    dst = rng.integers(num_vertices, size=num_edges)
    return from_edges(num_vertices, np.column_stack((src, dst)))


def configuration_model(
    degree_sequence: np.ndarray | list[int],
    *,
    seed: int | np.random.Generator | None = 0,
) -> CSRGraph:
    """Configuration-model graph matching a target degree sequence.

    Half-edge stubs are shuffled and paired; self-loops and multi-edges
    produced by the pairing are dropped by canonicalisation, so realised
    degrees can fall slightly below the targets (the standard simple-graph
    projection).  Useful for building surrogates that match a paper
    input's exact degree statistics.
    """
    rng = _rng(seed)
    degrees = np.asarray(degree_sequence, dtype=np.int64)
    if degrees.size and degrees.min() < 0:
        raise ValueError("degrees must be non-negative")
    if int(degrees.sum()) % 2 != 0:
        raise ValueError("degree sequence must have an even sum")
    stubs = np.repeat(
        np.arange(degrees.size, dtype=np.int64), degrees
    )
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    return from_edges(degrees.size, pairs)
