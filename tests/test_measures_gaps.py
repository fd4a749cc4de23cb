"""Unit and property tests for the Section II-A gap measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import use_engine
from repro.graph import CSRGraph, from_edges
from repro.measures import gaps as gaps_module
from repro.measures import (
    average_bandwidth,
    average_gap,
    edge_gaps,
    GapMeasures,
    gap_measures,
    graph_bandwidth,
    log_gap_cost,
    vertex_bandwidths,
)
from tests.conftest import make_path, make_star, random_graph


class TestHandComputed:
    """A 4-cycle with a chord: edges (0,1),(1,2),(2,3),(0,3),(0,2)."""

    @pytest.fixture
    def g(self):
        return from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])

    def test_natural_gaps(self, g):
        gaps = sorted(edge_gaps(g))
        assert gaps == [1, 1, 1, 2, 3]

    def test_natural_measures(self, g):
        assert average_gap(g) == pytest.approx(8 / 5)
        assert graph_bandwidth(g) == 3
        # beta_i: v0 -> max(|0-1|,|0-2|,|0-3|)=3; v1 -> 1; v2 -> 2; v3 -> 3
        assert list(vertex_bandwidths(g)) == [3, 1, 2, 3]
        assert average_bandwidth(g) == pytest.approx(9 / 4)

    def test_reordering_changes_measures(self, g):
        # pi swaps 1 and 3: ranks [0, 3, 2, 1]
        pi = np.asarray([0, 3, 2, 1])
        gaps = sorted(edge_gaps(g, pi))
        assert gaps == [1, 1, 1, 2, 3]
        assert graph_bandwidth(g, pi) == 3


class TestEdgeCases:
    def test_empty_graph(self):
        g = from_edges(3, [])
        assert average_gap(g) == 0.0
        assert graph_bandwidth(g) == 0
        assert average_bandwidth(g) == 0.0
        assert log_gap_cost(g) == 0.0

    def test_single_edge(self):
        g = from_edges(2, [(0, 1)])
        m = gap_measures(g)
        assert m.average_gap == 1.0
        assert m.bandwidth == 1
        assert m.log_gap == 1.0

    def test_isolated_vertex_bandwidth_zero(self):
        g = from_edges(3, [(0, 1)])
        assert vertex_bandwidths(g)[2] == 0

    def test_path_natural_is_optimal(self):
        g = make_path(10)
        assert average_gap(g) == 1.0
        assert graph_bandwidth(g) == 1

    def test_star_bandwidth(self, star6):
        # hub at rank 0, leaves 1..6: bandwidth 6
        assert graph_bandwidth(star6) == 6


class TestMeasureRelations:
    @given(perm=st.permutations(list(range(15))))
    @settings(max_examples=50, deadline=None)
    def test_invariants_under_any_permutation(self, perm):
        g = random_graph(15, 40, seed=2)
        pi = np.asarray(perm)
        gaps = edge_gaps(g, pi)
        assert gaps.size == g.num_edges
        assert (gaps >= 1).all()  # no self loops -> gap >= 1
        assert (gaps <= g.num_vertices - 1).all()
        m = gap_measures(g, pi)
        # avg gap <= bandwidth; avg bandwidth between avg gap and bandwidth
        assert m.average_gap <= m.bandwidth
        assert m.average_bandwidth <= m.bandwidth
        # log-gap is bounded by log of bandwidth
        assert m.log_gap <= np.log2(1 + m.bandwidth)

    @given(perm=st.permutations(list(range(15))))
    @settings(max_examples=30, deadline=None)
    def test_gap_sum_conserved_under_reversal(self, perm):
        g = random_graph(15, 30, seed=8)
        pi = np.asarray(perm)
        reversed_pi = (g.num_vertices - 1) - pi
        assert average_gap(g, pi) == pytest.approx(
            average_gap(g, reversed_pi)
        )
        assert graph_bandwidth(g, pi) == graph_bandwidth(g, reversed_pi)

    def test_bandwidth_lower_bound(self):
        """bandwidth >= (n-1)/diameter-ish bound: for a clique it's n-1."""
        from tests.conftest import make_clique
        g = from_edges(6, make_clique(6))
        assert graph_bandwidth(g) == 5
        # every ordering of a clique has bandwidth n-1
        rng = np.random.default_rng(0)
        for _ in range(5):
            pi = rng.permutation(6)
            assert graph_bandwidth(g, pi) == 5

    def test_gap_measures_as_dict(self):
        g = make_path(4)
        d = gap_measures(g).as_dict()
        assert set(d) == {"avg_gap", "bandwidth", "avg_bandwidth", "log_gap"}


def _reference_measures(graph, pi):
    """Gap measures from ``edge_gaps`` and the scalar bandwidth loop."""
    gaps = edge_gaps(graph, pi)
    with use_engine("scalar"):
        beta = vertex_bandwidths(graph, pi)
    if gaps.size == 0:
        return gaps, beta, GapMeasures(0.0, 0, 0.0, 0.0)
    return gaps, beta, GapMeasures(
        average_gap=float(gaps.mean()),
        bandwidth=int(gaps.max()),
        average_bandwidth=float(beta.mean()),
        log_gap=float(np.log2(1.0 + gaps).mean()),
    )


def _assert_one_pass_matches(graph, pi):
    gaps, beta, expected = _reference_measures(graph, pi)
    walked = gaps_module._walk_gaps(
        graph, gaps_module._ranks(pi, graph.num_vertices)
    )
    assert walked[0].dtype == gaps.dtype
    assert np.array_equal(walked[0], gaps)
    assert np.array_equal(walked[1], beta)
    assert vertex_bandwidths(graph, pi).tolist() == beta.tolist()
    assert gap_measures(graph, pi) == expected


class TestOnePass:
    """``gap_measures`` walks the CSR once, in row chunks, and must equal
    the measures of ``edge_gaps`` plus the scalar bandwidth loop."""

    def test_every_catalog_input(self):
        from repro.datasets.registry import dataset_names, load

        for name in dataset_names():
            graph = load(name)
            rng = np.random.default_rng(len(name))
            for pi in (None, rng.permutation(graph.num_vertices)):
                _assert_one_pass_matches(graph, pi)

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        monkeypatch.setattr(gaps_module, "_CHUNK_SLOTS", chunk)
        graph = random_graph(60, 300, seed=4)
        pi = np.random.default_rng(4).permutation(60)
        _assert_one_pass_matches(graph, pi)

    @given(
        rows=st.lists(
            st.lists(st.integers(0, 11), max_size=6), max_size=12
        ),
        chunk=st.sampled_from([1, 2, 5, 1 << 16]),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_raw_adjacency(self, rows, chunk, seed):
        """Isolated vertices, self-loops, unsorted and one-sided rows,
        and n = 0, straight into the CSR."""
        n = len(rows)
        adjacency = [[v % n for v in row] for row in rows] if n else []
        indptr = np.concatenate(
            ([0], np.cumsum([len(row) for row in adjacency]))
        ).astype(np.int64)
        indices = np.asarray(
            [v for row in adjacency for v in row], dtype=np.int64
        )
        graph = CSRGraph(indptr, indices)
        pi = np.random.default_rng(seed).permutation(n) if seed else None
        saved = gaps_module._CHUNK_SLOTS
        gaps_module._CHUNK_SLOTS = chunk
        try:
            _assert_one_pass_matches(graph, pi)
        finally:
            gaps_module._CHUNK_SLOTS = saved
