"""Unit tests for bisection, refinement, k-way partitioning, separators."""

import numpy as np
import pytest

from repro.graph import from_edges
from repro.partition import (
    bisect,
    edge_cut,
    fm_refine,
    greedy_bisection,
    move_gains,
    partition_graph,
    partition_weights,
    vertex_separator,
)
from tests.conftest import (
    LEGS,
    make_clique,
    make_grid,
    make_path,
    make_two_cliques,
    on_leg,
    random_graph,
)


class TestEdgeCut:
    def test_no_cut(self, two_cliques):
        part = np.asarray([0] * 5 + [1] * 5)
        assert edge_cut(two_cliques, part) == 1.0  # just the bridge

    def test_everything_one_side(self, two_cliques):
        part = np.zeros(10, dtype=np.int64)
        assert edge_cut(two_cliques, part) == 0.0

    def test_weighted(self):
        g = from_edges(2, [(0, 1)], weights=[4.5])
        assert edge_cut(g, np.asarray([0, 1])) == 4.5


class TestMoveGains:
    def test_gain_of_misplaced_vertex(self, two_cliques):
        part = np.asarray([0] * 5 + [1] * 5)
        part[0] = 1  # vertex 0 misplaced into the other clique's side
        gains = move_gains(two_cliques, part)
        assert gains[0] == pytest.approx(4.0)  # 4 internal - 0 external


class TestBisect:
    def test_two_cliques_found(self, two_cliques):
        result = bisect(two_cliques, seed=0)
        assert result.cut == 1.0
        sizes = result.part_sizes()
        assert sorted(sizes) == [5, 5]

    def test_balance_respected(self):
        g = random_graph(100, 300, seed=7)
        result = bisect(g, imbalance=0.1, seed=1)
        sizes = result.part_sizes()
        assert sizes.max() <= 1.12 * 50

    def test_tiny_graphs(self):
        assert bisect(from_edges(1, []), seed=0).assignment.size == 1
        assert bisect(from_edges(0, []), seed=0).assignment.size == 0

    def test_target_fraction(self):
        g = make_grid(10, 10)
        result = bisect(g, target_fraction=0.25, imbalance=0.2, seed=2)
        share = (result.assignment == 0).mean()
        assert 0.1 < share < 0.45

    @pytest.mark.parametrize("leg", LEGS)
    def test_labels_the_python_pipeline(self, leg):
        """No kernel bisects one graph: the pipeline runs on every
        leg, labelled ``vector`` under the native engine."""
        with on_leg(leg):
            result = bisect(random_graph(100, 300, seed=7), seed=1)
        assert result.engine == ("scalar" if leg == "scalar" else "vector")


class TestFMRefine:
    def test_repairs_bad_bisection(self, two_cliques):
        # start from a deliberately bad split across the cliques
        part = np.asarray([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        vw = np.ones(10)
        refined = fm_refine(two_cliques, part, vw)
        assert edge_cut(two_cliques, refined) <= edge_cut(
            two_cliques, part
        )

    def test_preserves_partition_validity(self, medium_random):
        rng = np.random.default_rng(3)
        part = rng.integers(2, size=120)
        vw = np.ones(120)
        refined = fm_refine(medium_random, part, vw)
        assert set(np.unique(refined)) <= {0, 1}

    def test_no_improvement_on_optimal(self, two_cliques):
        part = np.asarray([0] * 5 + [1] * 5)
        refined = fm_refine(two_cliques, part, np.ones(10))
        assert edge_cut(two_cliques, refined) == 1.0


class TestKWay:
    def test_part_count_and_coverage(self):
        g = make_grid(8, 8)
        result = partition_graph(g, 4, seed=0)
        assert result.num_parts == 4
        assert set(np.unique(result.assignment)) == {0, 1, 2, 3}

    def test_balanced_sizes(self):
        g = make_grid(10, 10)
        result = partition_graph(g, 4, seed=1)
        sizes = result.part_sizes()
        assert sizes.min() >= 15
        assert sizes.max() <= 40

    def test_invalid_num_parts(self):
        with pytest.raises(ValueError):
            partition_graph(make_path(4), 0)

    def test_single_part(self):
        g = make_path(6)
        result = partition_graph(g, 1)
        assert (result.assignment == 0).all()
        assert result.cut == 0.0

    def test_clique_ring_cut_quality(self):
        """4 cliques in a ring: a 4-way partition should cut ~4 bridges."""
        edges = []
        for c in range(4):
            edges += make_clique(6, offset=c * 6)
            edges.append((c * 6, ((c + 1) % 4) * 6 + 1))
        g = from_edges(24, edges)
        result = partition_graph(g, 4, seed=2)
        assert result.cut <= 8.0


class TestSeparator:
    def test_separates(self, two_cliques):
        sep = vertex_separator(two_cliques, seed=0)
        assert sep.left.size + sep.right.size + sep.separator.size == 10
        assert sep.separator.size >= 1
        # removing the separator must disconnect left from right
        sep_set = set(int(v) for v in sep.separator)
        left_set = set(int(v) for v in sep.left)
        for u in sep.left:
            for v in two_cliques.neighbors(int(u)):
                v = int(v)
                if v not in sep_set:
                    assert v in left_set

    def test_grid_separator_small(self):
        g = make_grid(8, 8)
        sep = vertex_separator(g, seed=1)
        # a grid has O(sqrt(n)) separators; allow slack for the greedy
        assert sep.separator.size <= 20

    def test_empty_graph(self):
        sep = vertex_separator(from_edges(0, []))
        assert sep.separator.size == 0
