"""Ingestion equivalence: parse tiers and builder engines.

:func:`repro.graph.io.read_edge_list` is engine-gated, so the contract
here is the strongest in the tree: the scalar per-line parse is ground
truth, and the native byte scanner must either reproduce it *bit for
bit* (arrays, weight flag, inferred ``n``), or decline the input
entirely so the caller falls back — never a third behaviour.  Malformed
files must raise the scalar parse's exception type under every engine.

The builder half pins the twin's pair sort
(:func:`repro.graph.builder.pair_order`, one keyed stable argsort)
against ``np.lexsort``, and the build across engines (the ``csr_build``
kernel under the native engine, the numpy twin otherwise): identical
CSR arrays, *bitwise* identical merged weights (stable order preserves
float summation order), identical ingest-audit tallies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.io as gio
from repro._native import parse as native_parse
from repro.engine import use_engine
from repro.graph.builder import GraphBuilder, from_edges, pair_order
from tests.conftest import LEGS, on_leg

# Hand-picked bytes covering every grammar corner: comments and n=
# headers (first/last/overlong), CR/CRLF/LF line breaks, blank and
# whitespace-only lines, signed ids, weight columns with exponents,
# extra trailing tokens, and repeated-edge bulk.
EDGE_TEXT_CASES = [
    b"",
    b"0 1\n1 2\n",
    b"# n=7 m=2\n0 1\n1 2\n",
    b"% comment\n0 1 2.5\n1 2 -1e-3\n3 4\n",
    b"0 1\r\n2 3\r4 5\n",
    b"  5   6  \n\n\t\n7 8 9 extra tokens\n",
    b"# n=3\n# n=9\n0 1\n",
    b"1 2\n3 4 0.125\n" * 100,
    b"10 20 1.0\n+3 -0\n",
    b"0 1 .5\n0 2 5.\n",
    b"007 08\n",
    b"0 1 1e400\n",  # float("1e400") and strtod both overflow to inf
]

# Inputs Python's int()/float() accept but the native strict grammar
# does not: the kernel must decline (None) so the caller falls back to
# the scalar parse.
NATIVE_DECLINED_CASES = [
    b"1_0 2\n",  # PEP 515 underscore literal
    b"0 1 inf\n",
    b"0 1 nan\n",
]

# Inputs outside the strict grammar: the native tier must return None
# and the end-to-end read must raise the scalar exception everywhere.
MALFORMED_CASES = [
    b"0 1 3.5x\n",
    b"0\n",
    b"0 1 0x10\n",
    "0 1 wéight\n".encode(),
]


def parse_tuple(parsed):
    src, dst, wgt, saw, max_id, header_n = parsed
    return (
        np.asarray(src).tolist(),
        np.asarray(dst).tolist(),
        np.asarray(wgt).tolist(),
        saw,
        max_id,
        header_n,
    )


line_strategy = st.one_of(
    st.builds(
        lambda u, v: f"{u} {v}",
        st.integers(0, 30),
        st.integers(0, 30),
    ),
    st.builds(
        lambda u, v, w: f"{u} {v} {round(w, 4)}",
        st.integers(0, 30),
        st.integers(0, 30),
        st.floats(-8.0, 8.0, allow_nan=False),
    ),
    st.just(""),
    st.just("   "),
    st.builds(lambda n: f"# n={n}", st.integers(0, 64)),
    st.just("% a comment line"),
)

text_strategy = st.builds(
    lambda lines, trailing: "\n".join(lines) + trailing,
    st.lists(line_strategy, max_size=40),
    st.sampled_from(["", "\n"]),
)


# ---------------------------------------------------------------------------
# Parse-tier identity
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("one_based", [False, True])
@pytest.mark.parametrize("raw", EDGE_TEXT_CASES)
def test_parse_tiers_bit_identical(raw, one_based):
    ref = parse_tuple(gio._parse_edge_text_scalar(raw, one_based))
    if native_parse.KERNEL.lib() is None:
        pytest.skip("parse kernel unavailable")
    nat = native_parse.run(raw, one_based)
    assert nat is not None
    assert parse_tuple(nat) == ref


@given(text=text_strategy, one_based=st.booleans())
@settings(max_examples=60, deadline=None)
def test_parse_tiers_bit_identical_property(text, one_based):
    raw = text.encode()
    if native_parse.KERNEL.lib() is None:
        pytest.skip("parse kernel unavailable")
    ref = parse_tuple(gio._parse_edge_text_scalar(raw, one_based))
    nat = native_parse.run(raw, one_based)
    assert nat is not None and parse_tuple(nat) == ref


@pytest.mark.parametrize("raw", MALFORMED_CASES)
def test_fast_tiers_decline_malformed_input(raw):
    if native_parse.KERNEL.lib() is None:
        pytest.skip("parse kernel unavailable")
    assert native_parse.run(raw, False) is None


@pytest.mark.parametrize("raw", NATIVE_DECLINED_CASES)
def test_native_declines_loose_python_literals(raw):
    if native_parse.KERNEL.lib() is None:
        pytest.skip("parse kernel unavailable")
    assert native_parse.run(raw, False) is None


# ---------------------------------------------------------------------------
# End-to-end reader equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw", EDGE_TEXT_CASES + MALFORMED_CASES + NATIVE_DECLINED_CASES
)
def test_read_edge_list_engine_equivalence(raw, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(raw)
    outcomes = {}
    for leg in LEGS:
        try:
            with on_leg(leg):
                outcomes[leg] = ("ok", gio.read_edge_list(path))
        except Exception as exc:  # noqa: BLE001 - comparing exception types
            outcomes[leg] = ("err", type(exc))
    kinds = {kind for kind, _ in outcomes.values()}
    assert len(kinds) == 1, outcomes
    scalar_kind, scalar_payload = outcomes["scalar"]
    for leg in ("kernels_off", "native"):
        kind, payload = outcomes[leg]
        if scalar_kind == "ok":
            # bitwise, not approximate (CSRGraph.__eq__ is allclose, and
            # nan weights would fail it): merge order is preserved
            assert payload.num_vertices == scalar_payload.num_vertices
            assert np.array_equal(payload.indptr, scalar_payload.indptr)
            assert np.array_equal(payload.indices, scalar_payload.indices)
            assert payload.is_weighted == scalar_payload.is_weighted
            if payload.is_weighted:
                assert np.array_equal(
                    payload.weights, scalar_payload.weights, equal_nan=True
                )
        else:
            assert payload is scalar_payload or payload == scalar_payload


def test_read_edge_list_records_parse_engine(tmp_path):
    """The label names the tier that actually parsed the file."""
    if native_parse.KERNEL.lib() is None:
        pytest.skip("parse kernel unavailable")
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"0 1\n1 2\n")
    declined = tmp_path / "declined.txt"
    declined.write_bytes(b"1_0 2\n3 4\n")
    with use_engine("native"):
        assert gio.read_edge_list(declined).meta["parse_engine"] == "scalar"
        assert gio.read_edge_list(plain).meta["parse_engine"] == "native"
    with use_engine("scalar"):
        assert gio.read_edge_list(plain).meta["parse_engine"] == "scalar"


def test_read_edge_list_one_based_and_header(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"# n=6\n1 2\n2 3\n")
    for leg in LEGS:
        with on_leg(leg):
            graph = gio.read_edge_list(path, one_based=True)
        assert graph.num_vertices == 6
        assert graph.has_edge(0, 1) and graph.has_edge(1, 2)


# ---------------------------------------------------------------------------
# Builder finalisation equivalence (csr_build kernel vs numpy twin)
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 40),
    edges=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120
    ),
    weighted=st.sampled_from((None, "increasing", "normal", "ones")),
)
@settings(max_examples=60, deadline=None)
def test_builder_engines_bit_identical(n, edges, weighted):
    """``ones`` forces a weighted build of all-unit weights; ``normal``
    mixes signs, so a merge in another order shows."""
    edges = [(u % n, v % n) for u, v in edges]
    weights = {
        None: None,
        "increasing": [round(0.1 + 0.37 * i, 3) for i in range(len(edges))],
        "normal": np.random.default_rng(len(edges))
        .standard_normal(len(edges)).tolist(),
        "ones": [1.0] * len(edges),
    }[weighted]
    graphs = {}
    for leg in LEGS:
        builder = GraphBuilder(n)
        builder.add_edges(edges, weights=weights)
        with on_leg(leg):
            graphs[leg] = builder.build(
                weighted=True if weighted else None
            )
    ref = graphs["scalar"]
    for leg in ("kernels_off", "native"):
        graph = graphs[leg]
        assert np.array_equal(graph.indptr, ref.indptr)
        assert np.array_equal(graph.indices, ref.indices)
        if weighted:
            assert np.array_equal(graph.weights, ref.weights)
        assert graph.meta["ingest_audit"] == ref.meta["ingest_audit"]


@given(
    num_buckets=st.integers(1, 60),
    size=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pair_order_is_lexsort_on_every_tier(num_buckets, size, seed):
    """Both tiers give np.lexsort's stable (major, minor) order,
    duplicate pairs keeping input order."""
    rng = np.random.default_rng(seed)
    major = rng.integers(0, num_buckets, size)
    minor = rng.integers(0, num_buckets, size)
    expected = np.lexsort((minor, major))
    for engine in ("scalar", "native"):
        with use_engine(engine):
            order = pair_order(major, minor, num_buckets)
        assert np.array_equal(order, expected)


@pytest.mark.parametrize("leg", LEGS)
def test_builder_forced_weighted_all_ones(leg):
    """``weighted=True`` keeps a unit weight array; the default drops it."""
    edges = [(0, 1), (1, 2), (2, 0), (1, 0), (3, 3)]
    with on_leg(leg):
        builder = GraphBuilder(4)
        builder.add_edges(edges, weights=[1.0] * len(edges))
        forced = builder.build(weighted=True)
        default = builder.build()
    assert forced.is_weighted and not default.is_weighted
    assert np.array_equal(forced.indptr, default.indptr)
    assert np.array_equal(forced.indices, default.indices)
    # (0, 1) appears twice, so its merged weight is 2.0
    assert forced.weights.tolist() == [2.0, 1.0, 2.0, 1.0, 1.0, 1.0]
    assert forced.meta["ingest_audit"] == default.meta["ingest_audit"] == {
        "edges_added": 5,
        "self_loops_dropped": 1,
        "duplicate_edges_merged": 1,
    }


@pytest.mark.parametrize("leg", LEGS)
def test_builder_merges_duplicate_weights_in_insertion_order(leg):
    """Duplicates of one edge, in either direction, sum their weights in
    the order they were added — bitwise, not just approximately."""
    weights = [0.1, 1e16, 0.2, -1e16, 0.3]
    edges = [(2, 5), (5, 2), (0, 1), (2, 5), (5, 2)]
    expected = 0.0
    for (u, v), w in zip(edges, weights):
        if {u, v} == {2, 5}:
            expected += w
    with on_leg(leg):
        builder = GraphBuilder(6)
        builder.add_edges(edges, weights=weights)
        graph = builder.build()
    assert graph.meta["ingest_audit"]["duplicate_edges_merged"] == 3
    row = slice(graph.indptr[2], graph.indptr[3])
    assert graph.indices[row].tolist() == [5]
    assert graph.weights[row].tolist() == [expected]
    assert graph.weights[graph.indptr[5]: graph.indptr[6]].tolist() == [
        expected
    ]


@pytest.mark.parametrize("weighted", (False, True))
def test_builder_peak_memory_is_a_small_multiple_of_the_edges(weighted):
    """The build drops each intermediate once it is used: its traced
    peak stays under 9 x 16 bytes per added edge (one src/dst pair)."""
    import tracemalloc

    m, n = 200_000, 50_000
    rng = np.random.default_rng(0)
    builder = GraphBuilder(n)
    builder.add_edge_array(
        rng.integers(0, n, m), rng.integers(0, n, m),
        rng.random(m) if weighted else None,
    )
    builder.build()  # compile the kernels outside the measurement
    tracemalloc.start()
    try:
        builder.build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 16 * m


def test_builder_mixed_chunked_and_bulk_paths():
    bulk = GraphBuilder(10)
    bulk.add_edge_array(
        np.array([0, 1, 2, 3], dtype=np.int64),
        np.array([1, 2, 3, 4], dtype=np.int64),
    )
    incremental = GraphBuilder(10)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        incremental.add_edge(u, v)
    assert bulk.build() == incremental.build()


def test_builder_audit_tallies():
    builder = GraphBuilder(5)
    builder.add_edges([(0, 1), (1, 0), (2, 2), (3, 4)])
    graph = builder.build()
    audit = graph.meta["ingest_audit"]
    assert audit == {
        "edges_added": 4,
        "self_loops_dropped": 1,
        "duplicate_edges_merged": 1,
    }
    assert builder.last_audit == audit


def test_from_edges_vectorised_weighted_path():
    graph = from_edges(
        4, [(0, 1), (1, 2), (1, 2), (3, 3)], weights=[1.0, 2.0, 3.0, 9.0]
    )
    assert graph.is_weighted
    assert graph.num_edges == 2
    # duplicate (1, 2) weights merge by summation, self-loop dropped
    assert graph.neighbor_weights(1).tolist() == [1.0, 5.0]


def test_add_edges_validation():
    builder = GraphBuilder(3)
    with pytest.raises(ValueError, match="out of range"):
        builder.add_edges([(0, 5)])
    with pytest.raises(ValueError, match="align"):
        builder.add_edges([(0, 1)], weights=[1.0, 2.0])
    with pytest.raises(ValueError, match="pairs"):
        builder.add_edges([(0, 1, 2)])
