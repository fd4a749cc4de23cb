"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import connected_components
from repro.graph.generators import (
    barabasi_albert,
    bipartite_affiliation,
    delaunay_graph,
    hub_and_spokes,
    mesh_graph,
    planted_partition,
    random_graph,
    rmat_graph,
    road_network,
    watts_strogatz,
)


class TestDeterminism:
    @pytest.mark.parametrize("factory", [
        lambda s: road_network(10, 10, seed=s),
        lambda s: barabasi_albert(50, 3, seed=s),
        lambda s: rmat_graph(7, 4, seed=s),
        lambda s: watts_strogatz(40, 4, 0.2, seed=s),
        lambda s: planted_partition(4, 10, seed=s),
        lambda s: hub_and_spokes(4, 6, seed=s),
        lambda s: bipartite_affiliation(30, 12, 2, seed=s),
        lambda s: random_graph(30, 60, seed=s),
        lambda s: delaunay_graph(40, seed=s),
    ])
    def test_same_seed_same_graph(self, factory):
        assert factory(42) == factory(42)


class TestShapes:
    def test_road_network_bounded_degree(self):
        g = road_network(20, 20, seed=1)
        assert g.num_vertices == 400
        assert g.degrees().max() <= 8

    def test_mesh_graph_structure(self):
        g = mesh_graph(5, 4)
        assert g.num_vertices == 20
        # interior vertex degree 6 in a triangulated lattice
        assert g.degrees().max() == 6

    def test_delaunay_planarity_bound(self):
        g = delaunay_graph(100, seed=2)
        # planar: m <= 3n - 6
        assert g.num_edges <= 3 * g.num_vertices - 6
        assert set(connected_components(g)) == {0}

    def test_barabasi_albert_min_degree(self):
        g = barabasi_albert(100, 3, seed=3)
        assert g.num_vertices == 100
        assert g.degrees().min() >= 3
        # hubs emerge
        assert g.degrees().max() > 10

    def test_barabasi_albert_rejects_small_n(self):
        with pytest.raises(ValueError):
            barabasi_albert(3, 3)

    def test_rmat_size(self):
        g = rmat_graph(8, 4, seed=4)
        assert g.num_vertices == 256
        assert 0 < g.num_edges <= 4 * 256

    def test_rmat_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_graph(4, 2, a=0.5, b=0.4, c=0.4)

    def test_watts_strogatz_zero_rewire_is_lattice(self):
        g = watts_strogatz(20, 4, 0.0, seed=5)
        assert (g.degrees() == 4).all()

    def test_watts_strogatz_odd_neighbors_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(20, 3, 0.1)

    def test_planted_partition_modularity_signal(self):
        from repro.community import modularity
        g = planted_partition(4, 20, p_in=0.5, p_out=0.01,
                              shuffle=False, seed=6)
        truth = np.repeat(np.arange(4), 20)
        assert modularity(g, truth) > 0.5

    def test_planted_partition_shuffle_changes_labels(self):
        a = planted_partition(3, 10, shuffle=False, seed=7)
        b = planted_partition(3, 10, shuffle=True, seed=7)
        assert a.num_edges == b.num_edges
        assert sorted(a.degrees()) == sorted(b.degrees())

    def test_hub_and_spokes_degrees(self):
        g = hub_and_spokes(3, 8, hub_interconnect_probability=1.0, seed=8)
        degrees = sorted(g.degrees(), reverse=True)
        # three hubs with spokes + 2 hub links each
        assert degrees[:3] == [10, 10, 10]
        assert set(degrees[3:]) == {1}

    def test_bipartite_affiliation_size(self):
        g = bipartite_affiliation(50, 20, 2, seed=9)
        assert g.num_vertices == 50
        assert g.num_edges > 0

    def test_random_graph_bounds(self):
        g = random_graph(40, 100, seed=10)
        assert g.num_vertices == 40
        assert g.num_edges <= 100


def planted_partition_per_pair(num_communities, community_size, *,
                               p_in, p_out, shuffle, rng):
    """``planted_partition`` with one ``rng.random()`` per vertex pair."""
    from repro.graph.builder import GraphBuilder
    from repro.graph.generators import _shuffle_labels

    builder = GraphBuilder(num_communities * community_size)
    for ci in range(num_communities):
        base = ci * community_size
        for i in range(community_size):
            for j in range(i + 1, community_size):
                if rng.random() < p_in:
                    builder.add_edge(base + i, base + j)
    for ci in range(num_communities):
        for cj in range(ci + 1, num_communities):
            count = rng.poisson(p_out * community_size * community_size)
            for _ in range(count):
                u = ci * community_size + int(rng.integers(community_size))
                v = cj * community_size + int(rng.integers(community_size))
                builder.add_edge(u, v)
    graph = builder.build()
    return _shuffle_labels(graph, rng) if shuffle else graph


@pytest.mark.parametrize("communities, size, p_in, p_out, shuffle, seed", [
    (31, 60, 0.19, 0.0009, True, 109),
    (89, 60, 0.076, 0.0002, True, 111),
    (6, 11, 0.5, 0.05, False, 3),
    (5, 1, 0.5, 0.2, True, 4),
    (0, 7, 0.5, 0.1, True, 5),
    (3, 2, 1.0, 0.0, False, 6),
])
def test_planted_partition_matches_per_pair_coins(
    communities, size, p_in, p_out, shuffle, seed
):
    """The bulk coin draw builds the per-pair loop's graph and leaves
    the generator where the loop leaves it."""
    bulk_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    bulk = planted_partition(communities, size, p_in=p_in, p_out=p_out,
                             shuffle=shuffle, seed=bulk_rng)
    loop = planted_partition_per_pair(communities, size, p_in=p_in,
                                      p_out=p_out, shuffle=shuffle,
                                      rng=loop_rng)
    assert np.array_equal(bulk.indptr, loop.indptr)
    assert np.array_equal(bulk.indices, loop.indices)
    assert bulk_rng.random() == loop_rng.random()
