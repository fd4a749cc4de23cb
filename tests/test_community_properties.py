"""Property-based tests for Louvain and modularity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.community import (
    build_hierarchy,
    louvain,
    louvain_one_phase,
    modularity,
)
from repro.community.modularity import modularity_with_loops
from repro.graph import from_edges
from repro.partition import contract_by_labels


def build_graph(n, edges):
    return from_edges(n, [(u % n, v % n) for u, v in edges])


graph_strategy = st.builds(
    build_graph,
    n=st.integers(3, 30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)),
        min_size=2,
        max_size=100,
    ),
)


class TestModularityProperties:
    @given(graph=graph_strategy, seed=st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, graph, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 5, size=graph.num_vertices)
        q = modularity(graph, labels)
        assert -0.5 - 1e-9 <= q < 1.0

    @given(graph=graph_strategy)
    @settings(max_examples=30, deadline=None)
    def test_single_community_is_zero(self, graph):
        labels = np.zeros(graph.num_vertices, dtype=np.int64)
        assert modularity(graph, labels) == pytest.approx(0.0)

    @given(graph=graph_strategy, seed=st.integers(0, 20))
    @settings(max_examples=25, deadline=None)
    def test_label_names_irrelevant(self, graph, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=graph.num_vertices)
        # remap labels through a permutation of label names
        remap = rng.permutation(4)
        assert modularity(graph, labels) == pytest.approx(
            modularity(graph, remap[labels])
        )


class TestLouvainProperties:
    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_communities_dense_and_complete(self, graph):
        result = louvain(graph)
        c = result.communities
        assert c.size == graph.num_vertices
        if c.size:
            assert set(c) == set(range(int(c.max()) + 1))

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_final_modularity_consistent(self, graph):
        result = louvain(graph)
        assert modularity(graph, result.communities) == pytest.approx(
            result.modularity, abs=1e-9
        )

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_no_worse_than_singletons(self, graph):
        """Louvain starts from singletons and only takes improving moves,
        so the result is at least the singleton modularity."""
        singletons = np.arange(graph.num_vertices, dtype=np.int64)
        result = louvain(graph)
        assert result.modularity >= modularity(
            graph, singletons
        ) - 1e-9

    @given(graph=graph_strategy)
    @settings(max_examples=20, deadline=None)
    def test_iteration_modularity_nondecreasing(self, graph):
        _, stats = louvain_one_phase(graph)
        qs = [it.modularity for it in stats.iterations]
        for a, b in zip(qs, qs[1:]):
            assert b >= a - 1e-9


class TestCompactionProperties:
    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_compaction_preserves_modularity(self, graph):
        communities, _ = louvain_one_phase(graph)
        level = contract_by_labels(
            graph, communities,
            vertex_weights=np.zeros(graph.num_vertices),
            keep_self_loops=True,
        )
        coarse, loops = level.graph, level.vertex_weights
        q_fine = modularity(graph, communities)
        num_coarse = coarse.num_vertices
        q_coarse = modularity_with_loops(
            coarse, loops, np.arange(num_coarse)
        )
        assert q_coarse == pytest.approx(q_fine, abs=1e-9)

    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_total_weight_preserved(self, graph):
        communities, _ = louvain_one_phase(graph)
        level = contract_by_labels(
            graph, communities,
            vertex_weights=np.zeros(graph.num_vertices),
            keep_self_loops=True,
        )
        coarse, loops = level.graph, level.vertex_weights
        assert coarse.total_weight() + float(loops.sum()) == (
            pytest.approx(graph.total_weight())
        )


class TestHierarchyProperties:
    @given(graph=graph_strategy)
    @settings(max_examples=20, deadline=None)
    def test_levels_monotone_coarser(self, graph):
        h = build_hierarchy(graph)
        sizes = [g.num_vertices for g in h.graphs]
        for a, b in zip(sizes, sizes[1:]):
            assert b <= a
