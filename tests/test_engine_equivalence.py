"""The native engine, kernels on or off, is bit-identical to scalar.

Every engine-gated hot path keeps the original Python loops as ground
truth (:mod:`repro.engine`); these tests drive each scheme through the
native engine, on this host and on one whose kernels did not build
(:func:`tests.conftest.kernels_off`), and require the *exact* same
permutation, operation count, and metadata — not approximate
agreement.  The recorded execution tier (``ENGINE_METADATA_KEY``) is
the one sanctioned metadata difference and is stripped before
comparing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    make_cycle,
    make_grid,
    make_path,
    make_star,
    make_two_cliques,
    on_leg,
    random_graph,
)
from repro.engine import (
    DEFAULT_ENGINE,
    ENGINES,
    gather_neighbors,
    gather_ranges,
    resolve_engine,
    strip_engine_metadata,
    use_engine,
)
from repro.graph import GraphBuilder, apply_ordering, from_edges
from repro.ordering import available_schemes, get_scheme

#: schemes with a genuine vector/scalar branch (the rest are trivially
#: array-based and identical by construction).  The degree/hub family
#: routes its stable key sort through the engine tower (native tier:
#: the parallel counting-sort kernel).
GATED_SCHEMES = (
    "rcm",
    "bfs",
    "dfs",
    "cdfs",
    "slashburn",
    "gorder",
    "rabbit",
    "grappolo",
    "grappolo_rcm",
    "metis",
    "nested_dissection",
    "degree_sort",
    "hub_sort",
    "hub_cluster",
    "dbg",
)

GRAPHS = {
    "path": make_path(9),
    "cycle": make_cycle(8),
    "star": make_star(12),
    "two_cliques": make_two_cliques(5),
    "grid": make_grid(6, 5),
    "random": random_graph(80, 260, seed=3),
    "empty_edges": from_edges(5, []),
    "single": from_edges(1, []),
}


def order_with(scheme_name, graph, leg):
    with on_leg(leg):
        return get_scheme(scheme_name).order(graph)


def assert_same_ordering(a, b):
    """Bit-identical up to the recorded execution tier."""
    assert np.array_equal(a.permutation, b.permutation)
    assert a.cost == b.cost
    assert strip_engine_metadata(a.metadata) == strip_engine_metadata(
        b.metadata
    )


@pytest.mark.parametrize("leg", ("kernels_off", "native"))
@pytest.mark.parametrize("scheme_name", GATED_SCHEMES)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_engines_bit_identical(scheme_name, graph_name, leg):
    graph = GRAPHS[graph_name]
    tiered = order_with(scheme_name, graph, leg)
    scalar = order_with(scheme_name, graph, "scalar")
    assert_same_ordering(tiered, scalar)


@pytest.mark.parametrize("scheme_name", ("metis", "nested_dissection"))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_partition_schemes_native_matches_vector(scheme_name, graph_name):
    """Under the native engine each ordering is one partition_tree or
    dissect_tree kernel call; without the kernel the vector tier runs
    the recursion."""
    graph = GRAPHS[graph_name]
    native = order_with(scheme_name, graph, "native")
    vector = order_with(scheme_name, graph, "kernels_off")
    assert_same_ordering(native, vector)


@pytest.mark.parametrize(
    "scheme_name", ("rcm", "bfs", "slashburn", "rabbit")
)
@given(
    n=st.integers(2, 20),
    edges=st.lists(
        st.tuples(st.integers(0, 19), st.integers(0, 19)),
        min_size=0,
        max_size=60,
    ),
)
@settings(max_examples=12, deadline=None)
def test_engines_bit_identical_random_shapes(scheme_name, n, edges):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    tiered = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert_same_ordering(tiered, scalar)


def test_every_registered_scheme_runs_under_all_engines(medium_random):
    for scheme_name in available_schemes():
        scalar = order_with(scheme_name, medium_random, "scalar")
        for leg in ("kernels_off", "native"):
            tiered = order_with(scheme_name, medium_random, leg)
            assert np.array_equal(tiered.permutation, scalar.permutation)
            assert tiered.cost == scalar.cost


# ---------------------------------------------------------------------------
# Tiny inputs reach the kernels: no work-size threshold picks the tier
# ---------------------------------------------------------------------------
def _just_under_16k_directed_edges():
    """8,191 distinct undirected edges: 16,382 directed CSR entries."""
    n, m = 3000, 8191
    rng = np.random.default_rng(21)
    pairs = set()
    while len(pairs) < m:
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    graph = from_edges(n, sorted(pairs), weights=rng.random(m) + 0.25)
    assert graph.num_directed_edges == 16382
    return graph


TINY_GRAPHS = {
    "n0": from_edges(0, []),
    "n1": from_edges(1, []),
    "n2": from_edges(2, [(0, 1)], weights=[0.3]),
    "path3": make_path(3),
    "under_16k_edges": _just_under_16k_directed_edges(),
}


@pytest.mark.parametrize(
    "scheme_name", ("degree_sort", "hub_sort", "hub_cluster", "dbg")
)
@pytest.mark.parametrize("graph_name", sorted(TINY_GRAPHS))
def test_tiny_inputs_native_matches_scalar(scheme_name, graph_name):
    graph = TINY_GRAPHS[graph_name]
    native = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert_same_ordering(native, scalar)


@pytest.mark.parametrize("graph_name", sorted(TINY_GRAPHS))
def test_tiny_inputs_build_and_relabel_native_matches_scalar(graph_name):
    """``GraphBuilder.build`` and ``apply_ordering`` give the same CSR
    arrays, weights and audit under the native and scalar engines."""
    graph = TINY_GRAPHS[graph_name]
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    pi = np.random.default_rng(5).permutation(n).astype(np.int64)
    built, relabelled = {}, {}
    for engine in ("native", "scalar"):
        with use_engine(engine):
            builder = GraphBuilder(n)
            builder.add_edge_array(src, graph.indices, graph.weights)
            built[engine] = builder.build(weighted=graph.is_weighted)
            relabelled[engine] = apply_ordering(graph, pi)
    for results in (built, relabelled):
        a, b = results["native"], results["scalar"]
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.is_weighted == b.is_weighted == graph.is_weighted
        if graph.is_weighted:
            assert np.array_equal(a.weights, b.weights)
    assert built["native"].meta["ingest_audit"] == (
        built["scalar"].meta["ingest_audit"]
    )
    assert np.array_equal(built["native"].indices, graph.indices)


# ---------------------------------------------------------------------------
# Engine resolution
# ---------------------------------------------------------------------------
def test_default_engine_is_native():
    assert DEFAULT_ENGINE == "native"
    assert resolve_engine() in ENGINES


def test_context_override_beats_env(knobs):
    knobs(REPRO_ORDERING_ENGINE="scalar")
    with use_engine("native"):
        assert resolve_engine() == "native"
    assert resolve_engine() == "scalar"


def test_env_variable_selects_engine(knobs):
    knobs(REPRO_ORDERING_ENGINE="scalar")
    assert resolve_engine() == "scalar"


def test_nested_contexts_restore(monkeypatch):
    with use_engine("scalar"):
        with use_engine("native"):
            assert resolve_engine() == "native"
        assert resolve_engine() == "scalar"
    assert resolve_engine() == DEFAULT_ENGINE


@pytest.mark.parametrize("engine", ("simd", "vector"))
def test_unknown_engine_rejected(engine):
    with pytest.raises(ValueError, match=r"\['native', 'scalar'\]"):
        with use_engine(engine):
            pass  # pragma: no cover


# ---------------------------------------------------------------------------
# Gather primitives
# ---------------------------------------------------------------------------
def test_gather_ranges_matches_loop():
    rng = np.random.default_rng(7)
    values = rng.integers(0, 100, size=50)
    starts = np.array([0, 10, 10, 37, 49], dtype=np.int64)
    ends = np.array([5, 10, 20, 50, 50], dtype=np.int64)
    expected = np.concatenate(
        [values[s:e] for s, e in zip(starts, ends)]
    )
    assert np.array_equal(gather_ranges(values, starts, ends), expected)


def test_gather_ranges_empty():
    values = np.arange(10)
    empty = np.empty(0, dtype=np.int64)
    assert gather_ranges(values, empty, empty).size == 0


def test_gather_neighbors_matches_adjacency(grid5x4):
    frontier = np.array([0, 7, 19, 3], dtype=np.int64)
    targets, slots = gather_neighbors(
        grid5x4.indptr, grid5x4.indices, frontier
    )
    expected_targets = []
    expected_slots = []
    for slot, v in enumerate(frontier):
        nbrs = grid5x4.neighbors(int(v))
        expected_targets.extend(nbrs)
        expected_slots.extend([slot] * len(nbrs))
    assert targets.tolist() == expected_targets
    assert slots.tolist() == expected_slots
