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

The writers have no per-edge Python loop.  Under the native engine the
``format_lines`` kernel (:mod:`repro._native.csr`) formats their text
block by block into one reused buffer; every other engine, and a
native engine whose kernel cannot run, takes the scalar twin
:func:`_format_lines_python`, which selects the edges with one mask
over the CSR arrays and formats blocks of ``_WRITE_CHUNK`` lines with
``str.format`` (weights with ``:g``).  Both write the bytes a per-edge
f-string loop writes.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from ..engine import resolve_engine
from .._native import csr as _csr_kernel
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
    "write_permutation",
]

#: (src, dst, wgt, saw_weight_column, max_id, header_n) — what both
#: parse tiers produce from raw edge-list bytes.
_Parsed = tuple[np.ndarray, np.ndarray, np.ndarray, bool, int, "int | None"]


def _open_text(path: str | Path, mode: str) -> TextIO:
    return open(Path(path), mode, encoding="utf-8")


#: lines (for METIS, rows and entries) the scalar twin formats per
#: block: keeps the transient strings small next to the graph itself.
_WRITE_CHUNK = 1 << 16


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """The source vertex of every CSR entry, in CSR order."""
    return np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
    )


def _write_lines(
    handle: BinaryIO,
    kind: str,
    indptr: np.ndarray | None,
    indices: np.ndarray,
    weights: np.ndarray | None = None,
    base: int = 0,
) -> None:
    """Write the text :func:`_format_lines_python` describes.

    The engine decides whether the ``format_lines`` kernel formats it;
    both tiers write the same bytes.
    """
    blocks = None
    if resolve_engine() == "native":
        blocks = _csr_kernel.format_lines(kind, indptr, indices, weights, base)
    if blocks is None:
        blocks = _format_lines_python(kind, indptr, indices, weights, base)
    for block in blocks:
        handle.write(block)


def _format_lines_python(
    kind: str,
    indptr: np.ndarray | None,
    indices: np.ndarray,
    weights: np.ndarray | None,
    base: int,
) -> Iterator[bytes]:
    """Scalar twin of the ``format_lines`` kernel: blocks of text.

    ``"upper"``/``"lower"``: one ``u v`` (or ``u v w``) line per CSR
    entry with ``u <= v`` (``v <= u``), ids plus ``base``, in CSR order;
    ``"rows"``: one METIS line per row, its ids plus ``base`` (each as
    ``id w`` when weighted) joined by spaces; ``"values"``: ``indices``
    one per line.  Weights use the ``:g`` spec.
    """
    if kind == "values":
        for lo in range(0, indices.size, _WRITE_CHUNK):
            chunk = indices[lo: lo + _WRITE_CHUNK].tolist()
            yield "".join(map("{}\n".format, chunk)).encode()
    elif kind == "rows":
        for first, stop in _row_blocks(indptr):
            offsets = indptr[first: stop + 1].tolist()
            lo, hi = offsets[0], offsets[-1]
            ids = (indices[lo:hi] + base).tolist()
            if weights is not None:
                wts = weights[lo:hi].tolist()
                parts = list(map("{} {:g}".format, ids, wts))
            else:
                parts = list(map(str, ids))
            yield "".join(
                " ".join(parts[start - lo: end - lo]) + "\n"
                for start, end in zip(offsets, offsets[1:])
            ).encode()
    else:
        src = _row_ids(indptr)
        keep = src <= indices if kind == "upper" else indices <= src
        columns = [src[keep] + base, indices[keep] + base]
        line = "{} {}\n"
        if weights is not None:
            columns.append(weights[keep])
            line = "{} {} {:g}\n"
        for lo in range(0, columns[0].size, _WRITE_CHUNK):
            chunk = [col[lo: lo + _WRITE_CHUNK].tolist() for col in columns]
            yield "".join(map(line.format, *chunk)).encode()


def read_edge_list(
    path: str | Path,
    *,
    num_vertices: int | None = None,
    one_based: bool = False,
) -> CSRGraph:
    """Read a whitespace edge list (``u v [weight]`` per line).

    Lines starting with ``#`` or ``%`` are comments.  When ``num_vertices``
    is omitted it is inferred as ``max id + 1`` — unless a
    ``# n=<count> ...`` comment (as written by :func:`write_edge_list`) is
    present, which preserves trailing isolated vertices.

    The engine (:func:`repro.engine.resolve_engine`) decides whether
    the native parser is tried; both tiers are bit-identical.  The tier
    that actually parsed is recorded as ``graph.meta["parse_engine"]``.
    """
    raw = Path(path).read_bytes()
    parsed: _Parsed | None = None
    parse_engine = "native"
    if resolve_engine() == "native":
        parsed = _parse_kernel.run(raw, one_based)
    if parsed is None:
        parsed = _parse_edge_text_scalar(raw, one_based)
        parse_engine = "scalar"
    del raw
    builder, weighted = _builder_from_parsed(parsed, num_vertices)
    del parsed  # the builder holds the arrays now
    graph = builder.build(weighted=weighted)
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


def _builder_from_parsed(
    parsed: _Parsed, num_vertices: int | None
) -> tuple[GraphBuilder, bool | None]:
    """A builder holding a parsed edge array, and its ``weighted`` flag.

    Infers ``n`` (explicit count, else ``max(header n, max id + 1)``),
    then hands the parsed arrays to the builder without copying them
    (the range check still runs); a file with no weight column hands
    over no weights.
    """
    src, dst, wgt, saw_weight_column, max_id, header_n = parsed
    if num_vertices is not None:
        n = num_vertices
    elif header_n is not None:
        n = max(header_n, max_id + 1)
    else:
        n = max_id + 1
    builder = GraphBuilder(n)
    builder._take_arrays(src, dst, wgt if saw_weight_column else None)
    # explicit weight columns force a weighted graph even if all 1.0
    return builder, saw_weight_column or None


def write_edge_list(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph as ``u v`` (or ``u v w``) lines, one per edge."""
    with open(Path(path), "wb") as handle:
        handle.write(
            f"# n={graph.num_vertices} m={graph.num_edges}\n".encode()
        )
        _write_lines(
            handle, "upper", graph.indptr, graph.indices, graph.weights
        )


def write_permutation(permutation: np.ndarray, path: str | Path) -> None:
    """One rank per line, the bytes ``np.savetxt(..., fmt="%d")`` writes."""
    with open(Path(path), "wb") as handle:
        _write_lines(handle, "values", None, np.asarray(permutation))


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


def _row_blocks(indptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[first, stop)``, each holding at most
    :data:`_WRITE_CHUNK` rows and entries (or one longer row)."""
    n = indptr.size - 1
    first = 0
    while first < n:
        budget = indptr[first] + _WRITE_CHUNK
        stop = int(np.searchsorted(indptr, budget, side="right")) - 1
        stop = min(max(stop, first + 1), first + _WRITE_CHUNK, n)
        yield first, stop
        first = stop


def write_metis(graph: CSRGraph, path: str | Path) -> None:
    """Write the graph in METIS ``.graph`` format (1-based ids)."""
    fmt = "001" if graph.is_weighted else "000"
    with open(Path(path), "wb") as handle:
        handle.write(
            f"{graph.num_vertices} {graph.num_edges} {fmt}\n".encode()
        )
        _write_lines(
            handle, "rows", graph.indptr, graph.indices, graph.weights, 1
        )


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
    n = graph.num_vertices
    with open(Path(path), "wb") as handle:
        handle.write(
            f"%%MatrixMarket matrix coordinate {kind} symmetric\n"
            f"{n} {n} {graph.num_edges}\n".encode()
        )
        _write_lines(
            handle, "lower", graph.indptr, graph.indices, graph.weights, 1
        )
