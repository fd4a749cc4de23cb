"""Unit tests for modularity and Louvain (the Grappolo substitute)."""

import numpy as np
import pytest

from repro.community import (
    build_hierarchy,
    community_degrees,
    community_internal_weights,
    louvain,
    louvain_one_phase,
    modularity,
    weighted_degrees,
)
from repro.community.modularity import modularity_with_loops
from repro.graph import from_edges
from repro.graph.generators import planted_partition
from repro.partition import contract_by_labels
from tests.conftest import make_clique, make_path, make_two_cliques


class TestModularity:
    def test_two_cliques_ground_truth(self, two_cliques):
        truth = np.asarray([0] * 5 + [1] * 5)
        q = modularity(two_cliques, truth)
        # hand computation: m=21, w_in=10 each, k_c=21 each
        expected = 2 * (10 / 21) - 2 * (21 / 42) ** 2
        assert q == pytest.approx(expected)

    def test_single_community_zero(self, two_cliques):
        q = modularity(two_cliques, np.zeros(10, dtype=np.int64))
        assert q == pytest.approx(0.0)

    def test_edgeless(self):
        g = from_edges(3, [])
        assert modularity(g, np.arange(3)) == 0.0

    def test_bounds(self, medium_random):
        rng = np.random.default_rng(0)
        for _ in range(5):
            labels = rng.integers(6, size=120)
            q = modularity(medium_random, labels)
            assert -0.5 <= q < 1.0

    def test_internal_weights(self, two_cliques):
        truth = np.asarray([0] * 5 + [1] * 5)
        w_in = community_internal_weights(two_cliques, truth)
        assert list(w_in) == [10.0, 10.0]

    def test_community_degrees(self, two_cliques):
        truth = np.asarray([0] * 5 + [1] * 5)
        k_c = community_degrees(two_cliques, truth)
        assert list(k_c) == [21.0, 21.0]

    def test_weighted_degrees(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        assert list(weighted_degrees(g)) == [2.0, 5.0, 3.0]

    def test_with_loops_matches_plain_when_no_loops(self, two_cliques):
        truth = np.asarray([0] * 5 + [1] * 5)
        zero = np.zeros(10)
        assert modularity_with_loops(
            two_cliques, zero, truth
        ) == pytest.approx(modularity(two_cliques, truth))


class TestLouvainOnePhase:
    def test_finds_two_cliques(self, two_cliques):
        communities, stats = louvain_one_phase(two_cliques)
        assert int(communities.max()) + 1 == 2
        assert (communities[:5] == communities[0]).all()
        assert (communities[5:] == communities[5]).all()
        assert stats.iteration_count >= 1

    def test_iteration_stats_populated(self, two_cliques):
        _, stats = louvain_one_phase(two_cliques)
        first = stats.iterations[0]
        assert first.moves > 0
        assert first.edges_scanned == two_cliques.num_directed_edges
        assert first.communities_scanned > 0

    def test_vertex_order_changes_trajectory(self):
        g = planted_partition(6, 12, p_in=0.4, p_out=0.02, seed=3)
        natural, _ = louvain_one_phase(g)
        reversed_order = np.arange(g.num_vertices)[::-1].copy()
        alt, _ = louvain_one_phase(g, vertex_order=reversed_order)
        # both find good community structure (may differ in detail)
        assert modularity(g, natural) > 0.4
        assert modularity(g, alt) > 0.4

    def test_edgeless_graph(self):
        g = from_edges(4, [])
        communities, stats = louvain_one_phase(g)
        assert sorted(communities) == [0, 1, 2, 3]


class TestCompaction:
    def test_compact_two_cliques(self, two_cliques):
        communities = np.asarray([0] * 5 + [1] * 5)
        level = contract_by_labels(
            two_cliques, communities,
            vertex_weights=np.zeros(10), keep_self_loops=True,
        )
        coarse, loops = level.graph, level.vertex_weights
        assert coarse.num_vertices == 2
        assert coarse.total_weight() == 1.0
        assert list(loops) == [10.0, 10.0]

    def test_modularity_preserved_under_compaction(self, two_cliques):
        """Q(coarse under identity) == Q(fine under communities)."""
        communities = np.asarray([0] * 5 + [1] * 5)
        level = contract_by_labels(
            two_cliques, communities,
            vertex_weights=np.zeros(10), keep_self_loops=True,
        )
        coarse, loops = level.graph, level.vertex_weights
        q_fine = modularity(two_cliques, communities)
        q_coarse = modularity_with_loops(
            coarse, loops, np.arange(2)
        )
        assert q_coarse == pytest.approx(q_fine)


class TestLouvainFull:
    def test_planted_partition_recovery(self):
        g = planted_partition(5, 20, p_in=0.5, p_out=0.01,
                              shuffle=False, seed=1)
        result = louvain(g)
        assert result.modularity > 0.6
        # community count near the planted 5
        assert 3 <= result.num_communities <= 8

    def test_final_modularity_matches_assignment(self):
        g = planted_partition(4, 15, p_in=0.5, p_out=0.02, seed=2)
        result = louvain(g)
        assert modularity(g, result.communities) == pytest.approx(
            result.modularity, abs=1e-9
        )

    def test_phases_recorded(self):
        g = planted_partition(4, 15, p_in=0.5, p_out=0.02, seed=4)
        result = louvain(g)
        assert result.levels >= 1
        assert all(p.iteration_count >= 1 for p in result.phases)

    def test_path_graph(self):
        g = make_path(12)
        result = louvain(g)
        assert result.modularity > 0.3  # paths have chain communities


class TestHierarchy:
    def test_depth_and_projection(self):
        g = planted_partition(4, 16, p_in=0.5, p_out=0.02, seed=5)
        h = build_hierarchy(g)
        assert h.depth >= 1
        finest = h.finest_communities()
        coarsest = h.coarsest_communities()
        assert finest.size == g.num_vertices
        assert int(coarsest.max()) <= int(finest.max())

    def test_projection_bounds(self):
        g = make_two_cliques(6)
        h = build_hierarchy(g)
        with pytest.raises(IndexError):
            h.project_to_finest(h.depth)

    def test_degenerate_graph(self):
        g = from_edges(3, [])
        h = build_hierarchy(g)
        assert h.depth >= 1
