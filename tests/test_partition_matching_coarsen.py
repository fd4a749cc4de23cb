"""Unit tests for heavy-edge matching and coarsening."""

import numpy as np
import pytest

from repro.engine import use_engine
from repro.graph import from_edges
from repro.partition import (
    coarsen_graph,
    contract_by_labels,
    heavy_edge_matching,
    matching_to_coarse_map,
)
from tests.conftest import make_path, random_graph


class TestMatching:
    def test_matching_is_symmetric(self, medium_random):
        rng = np.random.default_rng(0)
        match = heavy_edge_matching(medium_random, rng)
        for v in range(120):
            assert match[match[v]] == v

    def test_matched_pairs_are_edges(self, medium_random):
        rng = np.random.default_rng(1)
        match = heavy_edge_matching(medium_random, rng)
        for v in range(120):
            if match[v] != v:
                assert medium_random.has_edge(v, int(match[v]))

    def test_prefers_heavy_edges(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1.0, 10.0])
        rng = np.random.default_rng(2)
        match = heavy_edge_matching(g, rng)
        assert match[1] == 2
        assert match[0] == 0

    def test_weight_limit_respected(self):
        g = from_edges(2, [(0, 1)])
        rng = np.random.default_rng(3)
        vw = np.asarray([5.0, 6.0])
        match = heavy_edge_matching(
            g, rng, vertex_weights=vw, max_vertex_weight=10.0
        )
        assert match[0] == 0 and match[1] == 1

    def test_coarse_map_dense(self, medium_random):
        rng = np.random.default_rng(4)
        match = heavy_edge_matching(medium_random, rng)
        coarse_of, num_coarse = matching_to_coarse_map(match)
        assert set(coarse_of) == set(range(num_coarse))


class TestCoarsening:
    def test_path_halves(self):
        g = make_path(8)
        labels = np.asarray([0, 0, 1, 1, 2, 2, 3, 3])
        level = contract_by_labels(g, labels)
        assert level.graph.num_vertices == 4
        assert level.graph.num_edges == 3
        assert list(level.vertex_weights) == [2.0, 2.0, 2.0, 2.0]

    def test_edge_weights_aggregate(self):
        g = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        labels = np.asarray([0, 0, 1, 1])
        level = contract_by_labels(g, labels)
        assert level.graph.total_weight() == 4.0

    def test_intra_class_weight_into_vertex_weight(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        labels = np.asarray([0, 0, 1])
        level = contract_by_labels(g, labels, keep_self_loops=True)
        # intra edge (0,1) folds into coarse vertex 0's weight
        assert level.vertex_weights[0] == pytest.approx(3.0)

    def test_coarsen_graph_validates_ids(self):
        g = make_path(4)
        with pytest.raises(ValueError, match="exceed"):
            coarsen_graph(g, np.asarray([0, 1, 2, 3]), num_coarse=2)

    def test_label_size_validated(self):
        g = make_path(4)
        with pytest.raises(ValueError, match="cover"):
            contract_by_labels(g, np.asarray([0, 1]))

    @pytest.mark.parametrize("engine", ["native", "vector", "scalar"])
    def test_negative_label_rejected(self, engine):
        g = from_edges(4, [(0, 1), (1, 2)])
        with use_engine(engine), pytest.raises(
            ValueError, match="non-negative"
        ):
            contract_by_labels(g, np.asarray([0, 0, 1, -1]))

    def test_total_vertex_weight_conserved(self, medium_random):
        rng = np.random.default_rng(5)
        match = heavy_edge_matching(medium_random, rng)
        coarse_of, num_coarse = matching_to_coarse_map(match)
        level = coarsen_graph(medium_random, coarse_of, num_coarse)
        assert level.vertex_weights.sum() == pytest.approx(120.0)
