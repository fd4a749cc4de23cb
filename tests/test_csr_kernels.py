"""The CSR kernels of :mod:`repro._native.csr` against their twins.

``csr_build`` (:meth:`GraphBuilder.build`), ``csr_relabel``
(:func:`apply_ordering`) and ``format_lines`` (the :mod:`repro.graph.io`
writers) each replace a numpy pipeline that stays as the scalar twin.
Every case here runs the public entry point on every leg — the
kernels, a host whose kernels did not build, and the scalar engine — and
compares arrays bit for bit (weights as their int64 bit patterns, so
``-0.0`` and NaN payloads count) or files byte for byte.  The cases
complement the engine sweeps of ``test_ingest.py``,
``test_graph_permute.py``, ``test_graph_io.py`` and ``test_cli.py``:
-0.0 and NaN merges, n = 0, mixed weighted and unweighted chunks, raw
CSRs through the relabel, and texts longer than one kernel block.  The
last section turns each kernel's build off (``native-build-fail``) and
checks the native engine falls back to the twin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._native import csr as native_csr
from repro.engine import use_engine
from repro.graph import apply_ordering, from_edges
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph
from repro.graph.io import write_edge_list, write_matrix_market, write_metis
from tests.conftest import LEGS, kernels_off, on_leg, raw_csr_graph

KERNELS = (
    native_csr.BUILD_KERNEL,
    native_csr.RELABEL_KERNEL,
    native_csr.FORMAT_KERNEL,
)


def bits(weights):
    return None if weights is None else weights.view(np.int64).tolist()


def assert_same_csr(a, b):
    assert a.indptr.tolist() == b.indptr.tolist()
    assert a.indices.tolist() == b.indices.tolist()
    assert bits(a.weights) == bits(b.weights)


def build_on_every_leg(n, src, dst, weights=None, weighted=None):
    graphs = {}
    for leg in LEGS:
        builder = GraphBuilder(n)
        builder.add_edge_array(src, dst, weights)
        with on_leg(leg):
            graphs[leg] = builder.build(weighted=weighted)
    for leg in ("native", "kernels_off"):
        assert_same_csr(graphs[leg], graphs["scalar"])
        assert (
            graphs[leg].meta["ingest_audit"]
            == graphs["scalar"].meta["ingest_audit"]
        )
    return graphs["native"]


# ---------------------------------------------------------------------------
# csr_build
# ---------------------------------------------------------------------------
def test_build_negative_zero_and_nan_weights():
    """A lone -0.0 merges to 0.0 + -0.0 = 0.0, as np.add.at does; NaN
    propagates with its payload."""
    src = np.asarray([0, 1, 2, 3, 3], dtype=np.int64)
    dst = np.asarray([1, 2, 3, 0, 0], dtype=np.int64)
    weights = np.asarray([-0.0, float("nan"), 2.0, float("nan"), -0.0])
    graph = build_on_every_leg(4, src, dst, weights)
    assert graph.weights[graph.indptr[0]] == 0.0
    assert np.signbit(graph.weights[graph.indptr[0]]) == np.False_


@pytest.mark.parametrize("weighted", (None, True))
@pytest.mark.parametrize(
    "n,pairs",
    [
        (0, []),
        (5, []),
        (4, [(1, 1), (2, 2)]),
        (9, [(0, 1), (1, 2)]),  # trailing isolated vertices
        (3, [(2, 0), (0, 2), (2, 0)]),
    ],
)
def test_build_edge_cases(n, pairs, weighted):
    src = np.asarray([u for u, _ in pairs], dtype=np.int64)
    dst = np.asarray([v for _, v in pairs], dtype=np.int64)
    weights = np.full(src.size, 1.5) if weighted else None
    graph = build_on_every_leg(n, src, dst, weights, weighted=weighted)
    assert graph.num_vertices == n


def test_build_mixed_chunks_and_single_edges():
    """Head-chunk edges and bulk arrays (with and without weights) build
    the same graph on every leg."""
    graphs = {}
    for leg in LEGS:
        builder = GraphBuilder(8)
        builder.add_edge(0, 1, 2.0)
        builder.add_edge_array(np.asarray([1, 2]), np.asarray([2, 3]))
        builder.add_edge(3, 0)
        builder.add_edge_array(
            np.asarray([4, 1]), np.asarray([5, 0]), np.asarray([0.5, 0.25])
        )
        with on_leg(leg):
            graphs[leg] = builder.build()
    for leg in ("native", "kernels_off"):
        assert_same_csr(graphs[leg], graphs["scalar"])


# ---------------------------------------------------------------------------
# csr_relabel
# ---------------------------------------------------------------------------
def relabel_on_every_leg(graph, pi):
    out = {}
    for leg in LEGS:
        with on_leg(leg):
            out[leg] = apply_ordering(graph, pi)
    for leg in ("native", "kernels_off"):
        assert_same_csr(out[leg], out["scalar"])
    return out["native"]


@pytest.mark.parametrize("seed", range(6))
def test_relabel_raw_csr_matches_twin(seed):
    """Duplicates, self-loops, one-sided entries and an unsorted row."""
    graph = raw_csr_graph()
    pi = np.random.default_rng(seed).permutation(graph.num_vertices)
    relabel_on_every_leg(graph, pi)
    unweighted = CSRGraph(graph.indptr, graph.indices)
    relabel_on_every_leg(unweighted, pi)


@st.composite
def raw_csrs(draw):
    """Random CSRs with rows long enough for the merge sort, repeated
    columns (ties), and optional weights."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    degrees = rng.integers(0, draw(st.sampled_from((3, 40, 200))), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = rng.integers(0, n, int(indptr[-1]))
    weighted = draw(st.booleans())
    weights = rng.standard_normal(indices.size) if weighted else None
    return CSRGraph(indptr, indices, weights), rng.permutation(n)


@given(case=raw_csrs())
@settings(max_examples=60, deadline=None)
def test_relabel_random_raw_csr_matches_twin(case):
    graph, pi = case
    relabel_on_every_leg(graph, pi)


# ---------------------------------------------------------------------------
# format_lines (tests/test_graph_io.py judges the bytes against per-edge
# loops on both tiers; here, texts longer than one kernel block)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "writer",
    (write_edge_list, write_metis, write_matrix_market),
    ids=lambda f: f.__name__,
)
def test_format_lines_spans_many_blocks(writer, tmp_path):
    """Texts longer than the kernel's block, including one METIS row
    longer than a block (a weighted star)."""
    leaves = 120_000
    star = from_edges(
        leaves + 1,
        [(0, v) for v in range(1, leaves + 1)],
        weights=np.linspace(0.001, 1000.0, leaves),
    )
    texts = set()
    for leg in LEGS:
        with on_leg(leg):
            writer(star, tmp_path / "star")
        texts.add((tmp_path / "star").read_bytes())
    assert len(texts) == 1
    assert len(texts.pop()) > native_csr._BLOCK


# ---------------------------------------------------------------------------
# No compiler: the native engine runs the twins
# ---------------------------------------------------------------------------
def test_build_fail_runs_the_twins(tmp_path):
    graph = raw_csr_graph()
    pi = np.random.default_rng(2).permutation(graph.num_vertices)
    src = np.asarray([0, 3, 3, 1, 4], dtype=np.int64)
    dst = np.asarray([3, 0, 3, 2, 1], dtype=np.int64)
    weights = np.asarray([0.5, 0.25, 9.0, 1e16, -0.0])

    def run():
        builder = GraphBuilder(6)
        builder.add_edge_array(src, dst, weights)
        write_metis(graph, tmp_path / "g.graph")
        return (
            builder.build(),
            apply_ordering(graph, pi),
            (tmp_path / "g.graph").read_bytes(),
        )

    with use_engine("scalar"):
        expected = run()
    with kernels_off():
        assert all(kernel.lib() is None for kernel in KERNELS)
        degraded = run()
    assert_same_csr(degraded[0], expected[0])
    assert_same_csr(degraded[1], expected[1])
    assert degraded[2] == expected[2]
