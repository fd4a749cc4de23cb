"""Construction of canonical :class:`~repro.graph.csr.CSRGraph` objects.

The builder is the single supported path from raw edge lists to the CSR
structure used everywhere else.  It canonicalises the input the same way the
paper's preprocessing does for KONECT/DIMACS inputs:

* the graph is treated as undirected (each edge stored in both directions),
* duplicate edges are merged (weights summed),
* self-loops are dropped,
* every adjacency list is sorted by neighbour id.

Sorting adjacency lists makes neighbourhood intersection (triangle counting,
Gorder's sibling score) linear and makes graph equality well-defined.

Internally edges accumulate in *chunked numpy buffers*: per-edge
:meth:`GraphBuilder.add_edge` calls fill a fixed-size head chunk that is
archived when full, and bulk :meth:`GraphBuilder.add_edge_array` calls
archive their arrays directly — no Python lists, no ``tolist()`` round
trips.  :meth:`GraphBuilder.build` finalises with two stable pair sorts
by :func:`pair_order`, which is engine-gated (:mod:`repro.engine`): the
scalar/vector tiers run one stable ``np.argsort`` of a combined
``(major, minor)`` key and the native tier runs two passes of the
BOBA-style ``counting_sort`` kernel (an O(m) LSD radix sort over the
vertex-id buckets), every tier bit-identical — including the float
summation order of merged duplicate weights.
:func:`repro.graph.permute.apply_ordering` sorts its relabelled rows
with the same :func:`pair_order`.

The builder also counts what canonicalisation removed (self-loops
dropped, duplicate edges merged) and records the tallies on the built
graph's ``meta`` side-channel — the ingest half of the dataset hygiene
audit (see :func:`repro.datasets.catalog.audit_graph`).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..engine import engine_for_work
from .csr import CSRGraph

__all__ = ["GraphBuilder", "from_edges", "empty_graph", "pair_order"]

#: edges per head chunk for the scalar append path.
_CHUNK = 1 << 15


def pair_order(
    major: np.ndarray, minor: np.ndarray, num_buckets: int, engine: str
) -> np.ndarray:
    """Stable sort permutation over pairs by ``(major, minor)``.

    The one place that decides how CSR rows are ordered: ids lie in
    ``[0, num_buckets)`` and ties keep input order, every tier
    bit-identical.  The native tier runs two passes of the stable
    ``counting_sort`` kernel (LSD radix: by ``minor``, then stably by
    ``major``); the other tiers, and the kernel's fallback, run one
    stable argsort of the key ``major * num_buckets + minor``, the same
    total order.  The key needs ``num_buckets**2 < 2**63``.
    """
    if engine == "native":
        from .._native import counting

        inner = counting.run(np.ascontiguousarray(minor), num_buckets)
        if inner is not None:
            outer = counting.run(
                np.ascontiguousarray(major[inner]), num_buckets
            )
            if outer is not None:
                return inner[outer]
    return np.argsort(major * np.int64(num_buckets) + minor, kind="stable")


class GraphBuilder:
    """Incrementally accumulates edges and finalises a canonical CSR graph.

    Examples
    --------
    >>> b = GraphBuilder(num_vertices=3)
    >>> b.add_edge(0, 1)
    >>> b.add_edge(1, 2, weight=2.0)
    >>> g = b.build()
    >>> g.num_edges
    2
    """

    def __init__(self, num_vertices: int) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._num_vertices = int(num_vertices)
        #: archived (src, dst, wgt) array triples, in insertion order.
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._head_src: np.ndarray | None = None
        self._head_dst: np.ndarray | None = None
        self._head_wgt: np.ndarray | None = None
        self._fill = 0
        self._total = 0
        self._weighted = False
        #: canonicalisation tallies of the most recent :meth:`build`.
        self.last_audit: dict | None = None

    @property
    def num_vertices(self) -> int:
        """Number of vertices the final graph will have."""
        return self._num_vertices

    @property
    def num_edges_added(self) -> int:
        """Edges recorded so far (before canonicalisation)."""
        return self._total

    def _flush_head(self) -> None:
        """Archive the partially filled head chunk (views, no copies)."""
        if self._fill:
            self._chunks.append(
                (
                    self._head_src[: self._fill],
                    self._head_dst[: self._fill],
                    self._head_wgt[: self._fill],
                )
            )
        self._head_src = None
        self._head_dst = None
        self._head_wgt = None
        self._fill = 0

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Record the undirected edge ``{u, v}``.

        Self-loops are accepted here but dropped at :meth:`build` time.
        """
        if not (0 <= u < self._num_vertices and 0 <= v < self._num_vertices):
            raise ValueError(
                f"edge ({u}, {v}) out of range for n={self._num_vertices}"
            )
        if self._head_src is None:
            self._head_src = np.empty(_CHUNK, dtype=np.int64)
            self._head_dst = np.empty(_CHUNK, dtype=np.int64)
            self._head_wgt = np.empty(_CHUNK, dtype=np.float64)
            self._fill = 0
        i = self._fill
        self._head_src[i] = int(u)
        self._head_dst[i] = int(v)
        self._head_wgt[i] = float(weight)
        self._fill = i + 1
        self._total += 1
        if self._fill == _CHUNK:
            self._flush_head()
        if weight != 1.0:
            self._weighted = True

    def add_edges(
        self,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        weights: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        """Record many edges at once from ``(u, v)`` pairs.

        One vectorised bulk append — no per-edge Python loop.  With
        ``weights`` the sequences must align.
        """
        if isinstance(edges, np.ndarray):
            arr = np.array(edges, dtype=np.int64)
        else:
            arr = np.array(list(edges), dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if weights is None:
            self.add_edge_array(arr[:, 0], arr[:, 1])
            return
        wgt = np.asarray(weights, dtype=np.float64)
        if wgt.ndim != 1 or wgt.size != arr.shape[0]:
            raise ValueError("weights must align with edges")
        self.add_edge_array(arr[:, 0], arr[:, 1], wgt)

    def add_edge_array(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Record many edges from aligned arrays in one bulk append.

        Equivalent to calling :meth:`add_edge` for each position in turn,
        but with vectorised validation and zero-copy chunk archiving.
        """
        src = np.array(src, dtype=np.int64)  # private copies: the chunk
        dst = np.array(dst, dtype=np.int64)  # list keeps references
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be aligned 1-d arrays")
        if src.size == 0:
            if weights is not None and np.asarray(weights).size != 0:
                raise ValueError("weights must align with src/dst")
            return
        n = self._num_vertices
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise ValueError(f"edge endpoints out of range for n={n}")
        if weights is None:
            wgt = np.ones(src.size, dtype=np.float64)
        else:
            wgt = np.array(weights, dtype=np.float64)
            if wgt.shape != src.shape:
                raise ValueError("weights must align with src/dst")
            if np.any(wgt != 1.0):
                self._weighted = True
        self._flush_head()  # keep insertion order across mixed appends
        self._chunks.append((src, dst, wgt))
        self._total += src.size

    def _edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All recorded edges as flat arrays, in insertion order."""
        parts = list(self._chunks)
        if self._fill:
            parts.append(
                (
                    self._head_src[: self._fill],
                    self._head_dst[: self._fill],
                    self._head_wgt[: self._fill],
                )
            )
        if not parts:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i, np.empty(0, dtype=np.float64)
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        )

    def _finish(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        wts: np.ndarray | None,
        *,
        added: int,
        self_loops: int,
        duplicates: int,
    ) -> CSRGraph:
        graph = CSRGraph(indptr, indices, wts)
        audit = {
            "edges_added": int(added),
            "self_loops_dropped": int(self_loops),
            "duplicate_edges_merged": int(duplicates),
        }
        self.last_audit = audit
        graph.meta["ingest_audit"] = audit
        return graph

    def build(
        self, weighted: bool | None = None, engine: str | None = None
    ) -> CSRGraph:
        """Finalise the canonical undirected CSR graph.

        Parameters
        ----------
        weighted:
            Force the output to carry (or not carry) a weights array.
            Defaults to carrying weights only when a non-unit weight was
            added.
        engine:
            Tier for the two stable pair sorts (default: the ambient
            engine).  Every tier is bit-identical; tiny edge sets
            short-circuit to the scalar path.
        """
        if weighted is None:
            weighted = self._weighted
        n = self._num_vertices
        src, dst, wgt = self._edge_arrays()
        if src.size == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            indices = np.zeros(0, dtype=np.int64)
            wts = np.zeros(0, dtype=np.float64) if weighted else None
            return self._finish(
                indptr, indices, wts, added=0, self_loops=0, duplicates=0
            )
        added = int(src.size)
        resolved = engine_for_work(2 * added, engine)

        # Drop self-loops.
        keep = src != dst
        src, dst, wgt = src[keep], dst[keep], wgt[keep]
        self_loops = added - int(src.size)
        if src.size == 0:
            indptr = np.zeros(n + 1, dtype=np.int64)
            indices = np.zeros(0, dtype=np.int64)
            wts = np.zeros(0, dtype=np.float64) if weighted else None
            return self._finish(
                indptr, indices, wts,
                added=added, self_loops=self_loops, duplicates=0,
            )

        # Canonical (min, max) form, then dedup merging weights.  The
        # stable sort fixes the within-group order, so the np.add.at
        # float sums are bit-identical across engines.
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        order = pair_order(lo, hi, n, resolved)
        lo, hi, wgt = lo[order], hi[order], wgt[order]
        uniq_mask = np.ones(lo.size, dtype=bool)
        uniq_mask[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        group_ids = np.cumsum(uniq_mask) - 1
        merged_w = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
        np.add.at(merged_w, group_ids, wgt)
        duplicates = int(lo.size) - int(merged_w.size)
        lo, hi = lo[uniq_mask], hi[uniq_mask]

        # Symmetrise and sort into CSR.
        all_src = np.concatenate((lo, hi))
        all_dst = np.concatenate((hi, lo))
        all_w = np.concatenate((merged_w, merged_w))
        order = pair_order(all_src, all_dst, n, resolved)
        all_src, all_dst, all_w = all_src[order], all_dst[order], all_w[order]

        counts = np.bincount(all_src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        wts = all_w if weighted else None
        return self._finish(
            indptr, all_dst, wts,
            added=added, self_loops=self_loops, duplicates=duplicates,
        )


def from_edges(
    num_vertices: int,
    edges: Sequence[Tuple[int, int]] | np.ndarray,
    weights: Sequence[float] | None = None,
) -> CSRGraph:
    """Build a canonical undirected graph from an edge list.

    Parameters
    ----------
    num_vertices:
        Total vertex count ``n``; edges must reference ids below ``n``.
    edges:
        Sequence of ``(u, v)`` pairs (or an ``(m, 2)`` array).
    weights:
        Optional per-edge weights aligned with ``edges``.
    """
    builder = GraphBuilder(num_vertices)
    builder.add_edges(edges, weights=weights)
    # Explicit weights always produce a weighted graph, even if all 1.0.
    return builder.build(weighted=True if weights is not None else None)


def empty_graph(num_vertices: int) -> CSRGraph:
    """A graph with ``num_vertices`` isolated vertices and no edges."""
    return GraphBuilder(num_vertices).build()
