"""The vector and native ordering engines are bit-identical to scalar.

Every engine-gated hot path keeps the original Python loops as ground
truth (:mod:`repro.engine`); these tests drive each scheme through the
engines and require the *exact* same permutation, operation count, and
metadata — not approximate agreement.  The recorded execution tier
(``ENGINE_METADATA_KEY``) is the one sanctioned metadata difference and
is stripped before comparing.
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
from repro.graph import from_edges
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


def order_with(scheme_name, graph, engine):
    with use_engine(engine):
        return get_scheme(scheme_name).order(graph)


def assert_same_ordering(a, b):
    """Bit-identical up to the recorded execution tier."""
    assert np.array_equal(a.permutation, b.permutation)
    assert a.cost == b.cost
    assert strip_engine_metadata(a.metadata) == strip_engine_metadata(
        b.metadata
    )


@pytest.mark.parametrize("engine", ("vector", "native"))
@pytest.mark.parametrize("scheme_name", GATED_SCHEMES)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_engines_bit_identical(scheme_name, graph_name, engine):
    graph = GRAPHS[graph_name]
    tiered = order_with(scheme_name, graph, engine)
    scalar = order_with(scheme_name, graph, "scalar")
    assert_same_ordering(tiered, scalar)


@pytest.mark.parametrize("scheme_name", ("metis", "nested_dissection"))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_partition_schemes_native_matches_vector(scheme_name, graph_name):
    """Under the native engine each ordering is one partition_tree or
    dissect_tree kernel call; the vector engine runs the recursion."""
    graph = GRAPHS[graph_name]
    native = order_with(scheme_name, graph, "native")
    vector = order_with(scheme_name, graph, "vector")
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
    # Rabbit's one tier beside its scalar loop is the C kernel.
    engine = "native" if scheme_name == "rabbit" else "vector"
    tiered = order_with(scheme_name, graph, engine)
    scalar = order_with(scheme_name, graph, "scalar")
    assert_same_ordering(tiered, scalar)


def test_every_registered_scheme_runs_under_all_engines(medium_random):
    for scheme_name in available_schemes():
        scalar = order_with(scheme_name, medium_random, "scalar")
        for engine in ("vector", "native"):
            tiered = order_with(scheme_name, medium_random, engine)
            assert np.array_equal(tiered.permutation, scalar.permutation)
            assert tiered.cost == scalar.cost


# ---------------------------------------------------------------------------
# Engine resolution
# ---------------------------------------------------------------------------
def test_default_engine_is_native():
    assert DEFAULT_ENGINE == "native"
    assert resolve_engine() in ENGINES


def test_explicit_argument_wins():
    with use_engine("scalar"):
        assert resolve_engine("vector") == "vector"


def test_context_override_beats_env(knobs):
    knobs(REPRO_ORDERING_ENGINE="vector")
    with use_engine("scalar"):
        assert resolve_engine() == "scalar"
    assert resolve_engine() == "vector"


def test_env_variable_selects_engine(knobs):
    knobs(REPRO_ORDERING_ENGINE="scalar")
    assert resolve_engine() == "scalar"


def test_nested_contexts_restore(monkeypatch):
    with use_engine("scalar"):
        with use_engine("vector"):
            assert resolve_engine() == "vector"
        assert resolve_engine() == "scalar"
    assert resolve_engine() == DEFAULT_ENGINE


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        resolve_engine("simd")
    with pytest.raises(ValueError):
        with use_engine("simd"):
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
