"""Vectorised construction of per-vertex sweep-trace blocks.

Every instrumented application issues the same canonical per-vertex
pattern: read the vertex's ``indptr`` slot, then for each adjacency entry
read the ``indices`` slot and the neighbour's per-vertex payload.  The
original builders emitted that stream one :meth:`MemoryLayout.line` call
at a time — Python overhead per simulated load, which dominated the
trace-building half of the replay pipeline.

:class:`SweepBlockTable` builds the whole table of per-vertex blocks in a
handful of numpy operations (one :meth:`MemoryLayout.lines` call per
array) and hands out zero-copy views per vertex, or a block-indexed
trace over the whole table.  The emitted streams are element-for-element
identical to the scalar builders; the app modules only swap how the
``lines`` sequence is materialised.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..simulator.parallel import BlockTrace, WorkItem
from ..simulator.trace import MemoryLayout

__all__ = ["SweepBlockTable"]


class SweepBlockTable:
    """Per-vertex blocks ``[indptr(v), (indices(k), vdata(nbr_k))...]``.

    The table is computed once per (graph, layout) pair; ``block(v)``
    returns a read-only view into one flat array, so building a full
    sweep's work items costs one slice per vertex instead of one Python
    call per access.
    """

    def __init__(
        self,
        graph: CSRGraph,
        layout: MemoryLayout,
        *,
        vdata_array: str = "vdata",
    ) -> None:
        n = graph.num_vertices
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        indices = np.asarray(graph.indices, dtype=np.int64)
        m = indices.size
        deg = indptr[1:] - indptr[:-1]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(1 + 2 * deg, out=offsets[1:])
        flat = np.empty(int(offsets[-1]) if n else 0, dtype=np.int64)
        if n:
            flat[offsets[:-1]] = layout.lines(
                "indptr", np.arange(n, dtype=np.int64)
            )
        if m:
            src = np.repeat(np.arange(n, dtype=np.int64), deg)
            edge_pos = offsets[src] + 1 + 2 * (
                np.arange(m, dtype=np.int64) - indptr[src]
            )
            flat[edge_pos] = layout.lines(
                "indices", np.arange(m, dtype=np.int64)
            )
            flat[edge_pos + 1] = layout.lines(vdata_array, indices)
        flat.setflags(write=False)
        self.graph = graph
        self.layout = layout
        self._flat = flat
        self._offsets = offsets
        self._deg = deg
        # plain-int copies make the per-vertex item loop cheap
        self._off_list = offsets.tolist()
        self._deg_list = deg.tolist()

    @property
    def degrees(self) -> np.ndarray:
        """Adjacency span length per vertex."""
        return self._deg

    def block(self, v: int) -> np.ndarray:
        """The line stream of one vertex's sweep (read-only view)."""
        return self._flat[self._off_list[v]: self._off_list[v + 1]]

    @property
    def block_lengths(self) -> np.ndarray:
        """Lines per vertex block (``1 + 2 * degree``)."""
        return np.diff(self._offsets)

    def trace(self, item_vertices, item_offsets, compute) -> BlockTrace:
        """A :class:`BlockTrace` over this table, without copying it.

        Item ``i`` visits the vertex blocks
        ``item_vertices[item_offsets[i]:item_offsets[i + 1]]`` in order
        (e.g. the members of an RRR set) and burns ``compute[i]`` cycles.
        """
        return BlockTrace(
            self._flat, self._offsets, item_vertices, item_offsets, compute
        )

    def work_items(
        self,
        vertices=None,
        *,
        vertex_cycles: int,
        edge_cycles: int,
    ) -> list[WorkItem]:
        """One :class:`WorkItem` per vertex (all vertices by default)."""
        off = self._off_list
        deg = self._deg_list
        flat = self._flat
        if vertices is None:
            vertices = range(len(deg))
        else:
            vertices = np.asarray(vertices).tolist()
        return [
            WorkItem(
                lines=flat[off[v]: off[v + 1]],
                compute_cycles=vertex_cycles + edge_cycles * deg[v],
            )
            for v in vertices
        ]
