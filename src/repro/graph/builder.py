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
trips.  :meth:`GraphBuilder.build` is engine-gated
(:mod:`repro.engine`): under the native engine the whole finalisation
is one call of the ``csr_build`` kernel (:mod:`repro._native.csr`);
every other engine, and a native engine whose kernel cannot run, takes
its scalar twin :meth:`GraphBuilder._build_python`, two stable pair
sorts by :func:`pair_order` (one stable ``np.argsort`` of a combined
``(major, minor)`` key each).  Both tiers are bit-identical, including
the float summation order of merged duplicate weights.

The builder also counts what canonicalisation removed (self-loops
dropped, duplicate edges merged) and records the tallies on the built
graph's ``meta`` side-channel — the ingest half of the dataset hygiene
audit (see :func:`repro.datasets.catalog.audit_graph`).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .._native import csr as csr_kernel
from ..engine import resolve_engine
from .csr import CSRGraph

__all__ = ["GraphBuilder", "from_edges", "empty_graph", "pair_order"]

#: edges per head chunk for the scalar append path.
_CHUNK = 1 << 15


def pair_order(
    major: np.ndarray, minor: np.ndarray, num_buckets: int
) -> np.ndarray:
    """Stable sort permutation over pairs by ``(major, minor)``.

    How the scalar twins of ``csr_build`` and ``csr_relabel``
    (:mod:`repro._native.csr`) order CSR rows: ids lie in
    ``[0, num_buckets)`` and ties keep input order.  One stable argsort
    of the key ``major * num_buckets + minor``, which needs
    ``num_buckets**2 < 2**63``.
    """
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
        self._chunks: list[
            tuple[np.ndarray, np.ndarray, np.ndarray | None]
        ] = []
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
        if weights is not None:
            weights = np.array(weights, dtype=np.float64)
        self._take_arrays(src, dst, weights)

    def _take_arrays(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        weights: np.ndarray | None,
    ) -> None:
        """:meth:`add_edge_array` on arrays the builder may keep as they
        are: int64 ids and float64 weights (None: unit weights) that
        nobody else will write to."""
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be aligned 1-d arrays")
        if src.size == 0:
            if weights is not None and weights.size != 0:
                raise ValueError("weights must align with src/dst")
            return
        n = self._num_vertices
        lo = min(int(src.min()), int(dst.min()))
        hi = max(int(src.max()), int(dst.max()))
        if lo < 0 or hi >= n:
            raise ValueError(f"edge endpoints out of range for n={n}")
        if weights is not None:
            if weights.shape != src.shape:
                raise ValueError("weights must align with src/dst")
            if np.any(weights != 1.0):
                self._weighted = True
        self._flush_head()  # keep insertion order across mixed appends
        self._chunks.append((src, dst, weights))
        self._total += src.size

    def _edge_arrays(
        self, weighted: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """All recorded edges as flat arrays, in insertion order; the
        weights (unit where none were given) only when ``weighted``."""
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
            return (
                empty_i, empty_i,
                np.empty(0, dtype=np.float64) if weighted else None,
            )
        wgt = None
        if weighted:
            wgt = [
                np.ones(p[0].size) if p[2] is None else p[2] for p in parts
            ]
            wgt = wgt[0] if len(wgt) == 1 else np.concatenate(wgt)
        if len(parts) == 1:
            return parts[0][0], parts[0][1], wgt
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            wgt,
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

    def build(self, weighted: bool | None = None) -> CSRGraph:
        """Finalise the canonical undirected CSR graph.

        Parameters
        ----------
        weighted:
            Force the output to carry (or not carry) a weights array.
            Defaults to carrying weights only when a non-unit weight was
            added.  An unweighted build carries no weight array at all.

        Under the native engine the ``csr_build`` kernel runs the whole
        finalisation; every other engine, and a native engine whose
        kernel cannot run, takes :meth:`_build_python`.
        """
        if weighted is None:
            weighted = self._weighted
        if resolve_engine() == "native":
            src, dst, wgt = self._edge_arrays(weighted)
            built = csr_kernel.csr_build(src, dst, wgt, self._num_vertices)
            if built is not None:
                indptr, indices, wts, self_loops, duplicates = built
                return self._finish(
                    indptr, indices, wts, added=src.size,
                    self_loops=self_loops, duplicates=duplicates,
                )
        return self._build_python(weighted)

    def _build_python(self, weighted: bool) -> CSRGraph:
        """Scalar twin of the ``csr_build`` kernel: numpy masks, two
        :func:`pair_order` sorts and an ``np.add.at`` merge.

        Each intermediate is dropped as soon as the next one exists, so
        the peak stays a small multiple of the edge arrays.
        """
        n = self._num_vertices
        src, dst, wgt = self._edge_arrays(weighted)
        added = int(src.size)

        # Drop self-loops.
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if weighted:
            wgt = wgt[keep]
        del keep
        self_loops = added - int(src.size)
        if src.size == 0:
            return self._finish(
                np.zeros(n + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64) if weighted else None,
                added=added, self_loops=self_loops, duplicates=0,
            )

        # Canonical (min, max) form, then dedup merging weights.  The
        # stable sort fixes the within-group order, so the np.add.at
        # float sums are bit-identical across engines.
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        del src, dst
        order = pair_order(lo, hi, n)
        lo, hi = lo[order], hi[order]
        if weighted:
            wgt = wgt[order]
        del order
        uniq_mask = np.ones(lo.size, dtype=bool)
        uniq_mask[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        merged_w = None
        if weighted:
            group_ids = np.cumsum(uniq_mask) - 1
            merged_w = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(merged_w, group_ids, wgt)
            del group_ids, wgt
        duplicates = int(lo.size - np.count_nonzero(uniq_mask))
        lo, hi = lo[uniq_mask], hi[uniq_mask]

        # Symmetrise and sort into CSR.
        all_src = np.concatenate((lo, hi))
        all_dst = np.concatenate((hi, lo))
        del lo, hi, uniq_mask
        order = pair_order(all_src, all_dst, n)
        all_dst = all_dst[order]
        wts = None
        if weighted:
            wts = np.concatenate((merged_w, merged_w))[order]
        del order
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(all_src, minlength=n), out=indptr[1:])
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
