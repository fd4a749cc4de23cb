"""Graph file input/output.

Supports the three formats the paper's data sources use:

* plain whitespace edge lists (KONECT ``out.*`` style),
* the METIS/Chaco ``.graph`` adjacency format (DIMACS-10 distribution),
* MatrixMarket coordinate ``.mtx`` (SuiteSparse distribution).

All readers canonicalise through :class:`~repro.graph.builder.GraphBuilder`
so the in-memory graph is always the same regardless of source format.

:func:`read_edge_list` has two parse tiers.  Under the native engine
(:mod:`repro.engine`) the sharded two-pass byte scanner in
:mod:`repro._native.parse` runs first; it parses a *strict grammar*
(ASCII, plain decimal numbers) and declines the whole file on anything
outside it.  Every other engine, and every declined file, runs the
per-line Python loop, which is the ground truth.  Both tiers — at every
thread count — produce bit-identical graphs, and malformed input raises
the scalar loop's exceptions.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import TextIO

import numpy as np

from ..engine import resolve_engine
from .._native import parse as _parse_kernel
from .builder import GraphBuilder
from .csr import CSRGraph

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "write_metis",
    "read_matrix_market",
    "write_matrix_market",
]

#: (src, dst, wgt, saw_weight_column, max_id, header_n) — what both
#: parse tiers produce from raw edge-list bytes.
_Parsed = tuple[np.ndarray, np.ndarray, np.ndarray, bool, int, "int | None"]


def _open_text(path: str | Path, mode: str) -> TextIO:
    return open(Path(path), mode, encoding="utf-8")


def read_edge_list(
    path: str | Path,
    *,
    num_vertices: int | None = None,
    one_based: bool = False,
    engine: str | None = None,
) -> CSRGraph:
    """Read a whitespace edge list (``u v [weight]`` per line).

    Lines starting with ``#`` or ``%`` are comments.  When ``num_vertices``
    is omitted it is inferred as ``max id + 1`` — unless a
    ``# n=<count> ...`` comment (as written by :func:`write_edge_list`) is
    present, which preserves trailing isolated vertices.

    ``engine`` (default: the ambient engine, see
    :func:`repro.engine.resolve_engine`) decides whether the native
    parser is tried; both tiers are bit-identical.  The tier that
    actually parsed is recorded as ``graph.meta["parse_engine"]``.
    """
    resolved = resolve_engine(engine)
    raw = Path(path).read_bytes()
    parsed: _Parsed | None = None
    parse_engine = "native"
    if resolved == "native":
        parsed = _parse_kernel.run(raw, one_based)
    if parsed is None:
        parsed = _parse_edge_text_scalar(raw, one_based)
        parse_engine = "scalar"
    graph = _graph_from_parsed(parsed, num_vertices, resolved)
    graph.meta["parse_engine"] = parse_engine
    return graph


def _parse_edge_text_scalar(raw: bytes, one_based: bool) -> _Parsed:
    """The per-line parse of raw edge-list bytes — the ground truth.

    Malformed input raises here (``ValueError``, ``IndexError``,
    ``UnicodeDecodeError``), so every engine reports the same exception.
    """
    src: list[int] = []
    dst: list[int] = []
    wgt: list[float] = []
    max_id = -1
    header_n: int | None = None
    saw_weight_column = False
    # StringIO(newline=None) applies universal-newline translation, as a
    # text-mode file handle would.
    for line in io.StringIO(raw.decode("utf-8"), newline=None):
        line = line.strip()
        if line.startswith(("#", "%")):
            for token in line[1:].split():
                if token.startswith("n=") and token[2:].isdigit():
                    header_n = int(token[2:])
            continue
        if not line:
            continue
        parts = line.split()
        u, v = int(parts[0]), int(parts[1])
        if one_based:
            u -= 1
            v -= 1
        if len(parts) > 2:
            w = float(parts[2])
            saw_weight_column = True
        else:
            w = 1.0
        src.append(u)
        dst.append(v)
        wgt.append(w)
        max_id = max(max_id, u, v)
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wgt, dtype=np.float64),
        saw_weight_column,
        max_id,
        header_n,
    )


def _graph_from_parsed(
    parsed: _Parsed, num_vertices: int | None, engine: str
) -> CSRGraph:
    """Finish a parsed edge array into a canonical graph.

    Infers ``n`` (explicit count, else ``max(header n, max id + 1)``),
    then routes the arrays through the builder's bulk path.
    """
    src, dst, wgt, saw_weight_column, max_id, header_n = parsed
    if num_vertices is not None:
        n = num_vertices
    elif header_n is not None:
        n = max(header_n, max_id + 1)
    else:
        n = max_id + 1
    builder = GraphBuilder(n)
    builder.add_edge_array(src, dst, wgt if saw_weight_column else None)
    # explicit weight columns force a weighted graph even if all 1.0
    return builder.build(
        weighted=saw_weight_column or None, engine=engine
    )


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph as ``u v`` (or ``u v w``) lines, one per edge."""
    with _open_text(path, "w") as handle:
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


def read_metis(path: str | Path) -> CSRGraph:
    """Read the METIS/Chaco ``.graph`` adjacency format.

    Only the unweighted and edge-weighted (fmt ``1``) variants are
    supported, which covers the DIMACS-10 distribution.
    """
    with _open_text(path, "r") as handle:
        header: list[str] | None = None
        rows: list[list[str]] = []
        for line in handle:
            line = line.strip()
            if line.startswith("%"):
                continue
            if header is None:
                if not line:
                    continue  # leading blank lines before the header
                header = line.split()
            else:
                # blank lines after the header are adjacency rows of
                # isolated vertices and must be kept
                rows.append(line.split())
    if header is None:
        raise ValueError(f"{path}: empty METIS file")
    n, _m = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    has_edge_weights = fmt.endswith("1") and fmt != "10"
    if len(rows) != n:
        raise ValueError(
            f"{path}: expected {n} adjacency rows, found {len(rows)}"
        )
    builder = GraphBuilder(n)
    for u, row in enumerate(rows):
        if has_edge_weights:
            pairs = zip(row[0::2], row[1::2])
            for v_str, w_str in pairs:
                v = int(v_str) - 1
                if u <= v:
                    builder.add_edge(u, v, float(w_str))
        else:
            for v_str in row:
                v = int(v_str) - 1
                if u <= v:
                    builder.add_edge(u, v)
    # the declared fmt decides weightedness, not the weight values
    return builder.build(weighted=has_edge_weights or None)


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph in METIS ``.graph`` format (1-based ids)."""
    fmt = "001" if graph.is_weighted else "000"
    with _open_text(path, "w") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges} {fmt}\n")
        for u in range(graph.num_vertices):
            nbrs = graph.neighbors(u)
            if graph.is_weighted:
                wts = graph.neighbor_weights(u)
                parts = [f"{v + 1} {w:g}" for v, w in zip(nbrs, wts)]
            else:
                parts = [str(v + 1) for v in nbrs]
            handle.write(" ".join(parts) + "\n")


def read_matrix_market(path: str | Path) -> CSRGraph:
    """Read a MatrixMarket coordinate file as an undirected graph.

    The matrix is treated as an adjacency pattern; values (if present) are
    used as edge weights only when the header declares ``real``/``integer``.
    """
    with _open_text(path, "r") as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: missing MatrixMarket header")
        fields = header.lower().split()
        has_values = "pattern" not in fields
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        n_rows, n_cols, _nnz = (int(x) for x in line.split()[:3])
        n = max(n_rows, n_cols)
        builder = GraphBuilder(n)
        for line in handle:
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            if has_values and len(parts) > 2:
                builder.add_edge(u, v, abs(float(parts[2])))
            else:
                builder.add_edge(u, v)
    # the header kind decides weightedness, not the stored values
    return builder.build(weighted=has_values or None)


def write_matrix_market(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph as a symmetric MatrixMarket coordinate file."""
    kind = "real" if graph.is_weighted else "pattern"
    with _open_text(path, "w") as handle:
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
