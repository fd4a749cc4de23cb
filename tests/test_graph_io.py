"""Round-trip tests for the three supported graph file formats."""

import numpy as np
import pytest

from repro.engine import use_engine
from repro.graph import from_edges
from repro.graph import io as graph_io
from repro.graph.csr import CSRGraph
from repro.graph.io import (
    read_edge_list,
    read_matrix_market,
    read_metis,
    write_edge_list,
    write_matrix_market,
    write_metis,
)
from tests.conftest import make_two_cliques, random_graph, raw_csr_graph


@pytest.fixture
def weighted_graph():
    return from_edges(
        5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        weights=[1.0, 2.0, 3.5, 1.0, 0.5],
    )


class TestEdgeList:
    def test_roundtrip(self, tmp_path, two_cliques):
        path = tmp_path / "g.txt"
        write_edge_list(two_cliques, path)
        assert read_edge_list(path) == two_cliques

    def test_roundtrip_weighted(self, tmp_path, weighted_graph):
        path = tmp_path / "g.txt"
        write_edge_list(weighted_graph, path)
        assert read_edge_list(path) == weighted_graph

    def test_comments_and_one_based(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% other\n1 2\n2 3\n")
        g = read_edge_list(path, one_based=True)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1)

    def test_explicit_vertex_count(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_vertices=10)
        assert g.num_vertices == 10


class TestMetis:
    def test_roundtrip(self, tmp_path, two_cliques):
        path = tmp_path / "g.graph"
        write_metis(two_cliques, path)
        assert read_metis(path) == two_cliques

    def test_roundtrip_weighted(self, tmp_path, weighted_graph):
        path = tmp_path / "g.graph"
        write_metis(weighted_graph, path)
        assert read_metis(path) == weighted_graph

    def test_random_roundtrip(self, tmp_path):
        g = random_graph(30, 80, seed=4)
        path = tmp_path / "g.graph"
        write_metis(g, path)
        assert read_metis(path) == g

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.graph"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_metis(path)

    def test_row_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("3 1 000\n2\n1\n")  # only 2 rows for n=3
        with pytest.raises(ValueError, match="expected 3"):
            read_metis(path)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path, two_cliques):
        path = tmp_path / "g.mtx"
        write_matrix_market(two_cliques, path)
        assert read_matrix_market(path) == two_cliques

    def test_roundtrip_weighted(self, tmp_path, weighted_graph):
        path = tmp_path / "g.mtx"
        write_matrix_market(weighted_graph, path)
        assert read_matrix_market(path) == weighted_graph

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("1 1 0\n")
        with pytest.raises(ValueError, match="header"):
            read_matrix_market(path)

    def test_pattern_header_written_for_unweighted(
        self, tmp_path, two_cliques
    ):
        path = tmp_path / "g.mtx"
        write_matrix_market(two_cliques, path)
        assert "pattern" in path.read_text().splitlines()[0]


class TestCrossFormat:
    def test_all_formats_agree(self, tmp_path):
        g = random_graph(25, 60, seed=11)
        p1, p2, p3 = (tmp_path / n for n in ("a.txt", "b.graph", "c.mtx"))
        write_edge_list(g, p1)
        write_metis(g, p2)
        write_matrix_market(g, p3)
        assert read_edge_list(p1) == read_metis(p2) == read_matrix_market(p3)


# ---------------------------------------------------------------------------
# The bulk writers write the bytes of the per-edge loops they replace
# ---------------------------------------------------------------------------
def loop_write_edge_list(graph, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        indptr, indices = graph.indptr, graph.indices
        weights = graph.weights
        for u in range(graph.num_vertices):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if u <= v:
                    if weights is not None:
                        handle.write(f"{u} {v} {weights[k]:g}\n")
                    else:
                        handle.write(f"{u} {v}\n")


def loop_write_metis(graph, path):
    fmt = "001" if graph.is_weighted else "000"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges} {fmt}\n")
        for u in range(graph.num_vertices):
            nbrs = graph.neighbors(u)
            if graph.is_weighted:
                wts = graph.neighbor_weights(u)
                parts = [f"{v + 1} {w:g}" for v, w in zip(nbrs, wts)]
            else:
                parts = [str(v + 1) for v in nbrs]
            handle.write(" ".join(parts) + "\n")


def loop_write_matrix_market(graph, path):
    kind = "real" if graph.is_weighted else "pattern"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"%%MatrixMarket matrix coordinate {kind} symmetric\n")
        n = graph.num_vertices
        handle.write(f"{n} {n} {graph.num_edges}\n")
        indptr, indices = graph.indptr, graph.indices
        weights = graph.weights
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                if v <= u:
                    if weights is not None:
                        handle.write(f"{u + 1} {v + 1} {weights[k]:g}\n")
                    else:
                        handle.write(f"{u + 1} {v + 1}\n")


def raw_graph(n, entries, weighted):
    """A CSR no builder made: ``(u, v, w)`` stored both ways (a
    self-loop once), so weights the builder rejects can be written."""
    rows = {u: [] for u in range(n)}
    for u, v, w in entries:
        rows[u].append((v, w))
        if u != v:
            rows[v].append((u, w))
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, weights = [], []
    for u in range(n):
        indptr[u + 1] = indptr[u] + len(rows[u])
        for v, w in rows[u]:
            indices.append(v)
            weights.append(w)
    return CSRGraph(
        indptr,
        np.asarray(indices, dtype=np.int64),
        np.asarray(weights, dtype=np.float64) if weighted else None,
    )


ODD_WEIGHTS = (1e-5, 1e16, float("nan"), float("inf"), -0.0, 0.1 + 0.2)

#: where C's %g and Python's {:g} could part: a NaN with its sign bit
#: set, exact ties at the sixth digit (half to even), values rounding
#: into the next exponent, subnormals, the largest double, and normal
#: draws over thirty decades.
G_WEIGHTS = (
    -float("nan"), -float("inf"), 1234565.0, 1234575.0, 2.5,
    999999.5, 9999995.0, 0.000123456789, 1e-310, 5e-324,
    1.7976931348623157e308, 100000.0, 1e6, -123.456789, 0.0001,
) + tuple(
    (np.random.default_rng(9).standard_normal(300)
     * 10.0 ** np.random.default_rng(10).integers(-12, 18, 300)).tolist()
)

WRITER_GRAPHS = {
    "odd_weights": raw_graph(
        9,
        [(0, 1, ODD_WEIGHTS[0]), (1, 2, ODD_WEIGHTS[1]),
         (2, 3, ODD_WEIGHTS[2]), (0, 3, ODD_WEIGHTS[3]),
         (3, 4, ODD_WEIGHTS[4]), (4, 5, ODD_WEIGHTS[5]),
         (5, 5, 2.5), (1, 1, 0.75)],
        weighted=True,
    ),
    "self_loops_unweighted": raw_graph(
        8, [(0, 0, 1.0), (0, 3, 1.0), (3, 3, 1.0), (2, 5, 1.0)],
        weighted=False,
    ),
    "trailing_isolated": from_edges(12, [(0, 1), (1, 2), (2, 0)]),
    "weighted": from_edges(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5)],
        weights=[0.5, 1.25, 3.0, 1 / 3, 7.0],
    ),
    "g_weights": raw_graph(
        40,
        [(i % 40, (7 * i + 3) % 40, w) for i, w in enumerate(G_WEIGHTS)],
        weighted=True,
    ),
    "raw_csr": raw_csr_graph(),
    "random": random_graph(60, 300, seed=4),
    "no_edges": from_edges(5, []),
    "empty": from_edges(0, []),
}

WRITERS = (
    (write_edge_list, loop_write_edge_list),
    (write_metis, loop_write_metis),
    (write_matrix_market, loop_write_matrix_market),
)


@pytest.mark.parametrize("chunk", (3, None))
@pytest.mark.parametrize(
    "writer,loop", WRITERS, ids=lambda f: getattr(f, "__name__", "")
)
@pytest.mark.parametrize("graph_name", sorted(WRITER_GRAPHS))
def test_bulk_writer_matches_per_edge_loop(
    graph_name, writer, loop, chunk, tmp_path, monkeypatch
):
    """Both tiers (the ``format_lines`` kernel and its ``str.format``
    twin) write the loop's bytes; ``chunk`` 3 splits every graph across
    many of the twin's formatted blocks."""
    if chunk is not None:
        monkeypatch.setattr(graph_io, "_WRITE_CHUNK", chunk)
    graph = WRITER_GRAPHS[graph_name]
    loop(graph, tmp_path / "loop")
    expected = (tmp_path / "loop").read_bytes()
    for engine in ("native", "scalar"):
        with use_engine(engine):
            writer(graph, tmp_path / "bulk")
        assert (tmp_path / "bulk").read_bytes() == expected, engine

