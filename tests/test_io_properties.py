"""Property-based round-trip tests for all graph file formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edges
from repro.graph.io import (
    read_edge_list,
    read_matrix_market,
    read_metis,
    write_edge_list,
    write_matrix_market,
    write_metis,
)
from tests.conftest import LEGS, on_leg

FORMATS = [
    (write_edge_list, read_edge_list, "txt"),
    (write_metis, read_metis, "graph"),
    (write_matrix_market, read_matrix_market, "mtx"),
]


def build_graph(n, edges, weights):
    canonical = [(u % n, v % n) for u, v in edges]
    if weights is None:
        return from_edges(n, canonical)
    ws = [round(0.25 + w, 3) for w in weights[: len(canonical)]]
    ws += [1.0] * (len(canonical) - len(ws))
    return from_edges(n, canonical, weights=ws)


graph_strategy = st.builds(
    build_graph,
    n=st.integers(1, 25),
    edges=st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24)),
        min_size=0,
        max_size=60,
    ),
    weights=st.one_of(
        st.none(),
        st.lists(st.floats(0.0, 9.0, allow_nan=False), max_size=60),
    ),
)


@pytest.mark.parametrize("writer,reader,ext", FORMATS)
class TestRoundTrips:
    @given(graph=graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_identity(self, writer, reader, ext, graph, tmp_path_factory):
        path = tmp_path_factory.mktemp("io") / f"g.{ext}"
        writer(graph, path)
        restored = reader(path)
        assert restored.num_vertices == graph.num_vertices
        assert restored.num_edges == graph.num_edges
        assert np.array_equal(restored.indptr, graph.indptr)
        assert np.array_equal(restored.indices, graph.indices)
        # weightedness is only representable when edges exist (an empty
        # weighted graph legitimately round-trips as unweighted)
        if graph.is_weighted and graph.num_edges > 0:
            assert restored.is_weighted
            assert np.allclose(restored.weights, graph.weights)

    @given(graph=graph_strategy, padding=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_trailing_isolated_vertices_survive(
        self, writer, reader, ext, graph, padding, tmp_path_factory
    ):
        # re-home the edges in a graph with `padding` trailing isolated
        # vertices; every format must preserve the exact vertex count
        # (edge lists via the n= header, METIS/MatrixMarket via their
        # declared dimensions)
        n = graph.num_vertices + padding
        edges = graph.edge_array()
        padded = from_edges(n, [(int(u), int(v)) for u, v in edges])
        path = tmp_path_factory.mktemp("io") / f"p.{ext}"
        writer(padded, path)
        restored = reader(path)
        assert restored.num_vertices == n
        assert np.array_equal(
            restored.indptr[-padding:], padded.indptr[-padding:]
        )


@given(graph=graph_strategy)
@settings(max_examples=20, deadline=None)
def test_edge_list_roundtrip_identical_across_engines(
    graph, tmp_path_factory
):
    path = tmp_path_factory.mktemp("io") / "g.txt"
    write_edge_list(graph, path)
    restored = {}
    for leg in LEGS:
        with on_leg(leg):
            restored[leg] = read_edge_list(path)
    ref = restored["scalar"]
    assert ref.num_vertices == graph.num_vertices
    for leg in ("kernels_off", "native"):
        other = restored[leg]
        assert np.array_equal(other.indptr, ref.indptr)
        assert np.array_equal(other.indices, ref.indices)
        assert other.is_weighted == ref.is_weighted
        if ref.is_weighted:
            assert np.array_equal(other.weights, ref.weights)


@given(
    edges=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        min_size=1,
        max_size=40,
    ),
    comments=st.lists(
        st.sampled_from(
            ["# produced by a crawler", "% KONECT-style note", "#"]
        ),
        max_size=3,
    ),
)
@settings(max_examples=20, deadline=None)
def test_edge_list_one_based_with_comment_headers(
    edges, comments, tmp_path_factory
):
    path = tmp_path_factory.mktemp("io") / "g.txt"
    lines = list(comments)
    lines += [f"{u + 1} {v + 1}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")
    reference = from_edges(
        max(max(u, v) for u, v in edges) + 1, edges
    )
    for leg in LEGS:
        with on_leg(leg):
            restored = read_edge_list(path, one_based=True)
        assert restored == reference
