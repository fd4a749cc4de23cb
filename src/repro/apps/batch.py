"""Batch entry points of the application workloads.

The application studies spend their time in two hot spots: generating
thousands of reverse-reachability (RRR) cascades for influence
maximization, and rescanning those cascades during greedy seed
selection.  This module holds the batch entry points of both, required
to be **bit-identical** to the scalar reference loops retained in
:mod:`repro.apps.influence_max`:

* :func:`sample_rrr_ic_pinned_sets` — many hash-pinned IC cascades in
  one call, returned as one CSR
  (:class:`repro.apps.influence_max.RRRSets`;
  :func:`sample_rrr_ic_pinned_batch` lists them as ``RRRSet`` objects).
  Under the native engine the whole draw runs through the
  ``rrr_sample`` C kernel (:mod:`repro._native.rrr`); every other
  engine, and a native engine whose kernel cannot run, loops the scalar
  reference :func:`repro.apps.influence_max._sample_rrr_ic_pinned_scalar`.
* :func:`greedy_seed_selection_vector` — max-coverage seed selection
  over a CSR encoding of RRR-set membership: one ``argmax`` plus one
  ``bincount`` per seed instead of per-seed Python rescans of every set.

Sample fan-out optionally routes through :mod:`repro.bench.pool`
(``jobs > 1``): the sample-index range is split into contiguous chunks
and each worker samples its chunk.  Because pinned cascades are
deterministic per sample index, the parallel result is exactly the
sequential one.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize
from ..engine import gather_ranges, resolve_engine
from ..graph.csr import CSRGraph
from .influence_max import RRRSet, RRRSets, _sample_rrr_ic_pinned_scalar

__all__ = [
    "sample_rrr_ic_pinned_sets",
    "sample_rrr_ic_pinned_batch",
    "greedy_seed_selection_vector",
]


def _pinned_batch_cell(cell: tuple) -> RRRSets:
    """Picklable pool worker: run the batch sampler on one chunk."""
    graph, probability, roots, original_of, sample_indices, seed = cell
    return sample_rrr_ic_pinned_sets(
        graph, probability, roots, original_of, sample_indices, seed,
        jobs=1,
    )


def sample_rrr_ic_pinned_sets(
    graph: CSRGraph,
    probability: float,
    roots,
    original_of: np.ndarray,
    sample_indices,
    seed: int,
    *,
    jobs: int | None = None,
) -> RRRSets:
    """Hash-pinned IC RRR sets for many (root, sample index) pairs, as CSR.

    Bit-identical to calling
    :func:`repro.apps.influence_max.sample_rrr_ic_pinned` once per pair
    (same vertex discovery order, same ``edges_examined``).  Under the
    native tier the whole draw goes through the ``rrr_sample`` C kernel,
    whose arena becomes the collection's member array; otherwise, or
    when the kernel is unavailable, the scalar reference runs once per
    pair.  Every root must be a vertex of ``[0, n)`` (``ValueError``
    otherwise).  With ``jobs > 1`` the pair list is split into
    contiguous chunks fanned out through
    :func:`repro.bench.pool.map_cells`; determinism per sample index
    makes the parallel result identical to the sequential one.
    """
    sanitize.check_integral(roots, where="sample_rrr_ic_pinned_sets(roots)")
    sanitize.check_integral(
        sample_indices, where="sample_rrr_ic_pinned_sets(sample_indices)"
    )
    roots = np.asarray(roots, dtype=np.int64)
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    if roots.shape != sample_indices.shape:
        raise ValueError("roots and sample_indices must align")
    total = roots.size
    if total == 0:
        return RRRSets.from_sets([])
    n = graph.num_vertices
    # the kernel indexes its visited stamps and the CSR with every root,
    # and original_of with every vertex it reaches
    if roots.min() < 0 or roots.max() >= n:
        raise ValueError(f"roots must be vertices of [0, {n})")
    if len(original_of) != n:
        raise ValueError(f"original_of must map all {n} vertices")

    from ..bench.pool import chunk_evenly, default_jobs, map_cells

    width = jobs if jobs is not None else default_jobs()
    if width > 1 and total > 1:
        cells = [
            (
                graph, probability, roots[a:b], original_of,
                sample_indices[a:b], seed,
            )
            for a, b in chunk_evenly(total, width)
        ]
        return RRRSets.concat(
            map_cells(_pinned_batch_cell, cells, jobs=width)
        )

    if resolve_engine() == "native":
        from .._native import rrr as native_rrr

        drawn = native_rrr.run(
            graph, probability, roots, original_of, sample_indices, seed
        )
        if drawn is not None:
            members, sizes, edges = drawn
            offsets = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            return RRRSets(members, offsets, edges)

    return RRRSets.from_sets([
        _sample_rrr_ic_pinned_scalar(
            graph, probability, root, original_of, index, seed
        )
        for root, index in zip(roots.tolist(), sample_indices.tolist())
    ])


def sample_rrr_ic_pinned_batch(
    graph: CSRGraph,
    probability: float,
    roots,
    original_of: np.ndarray,
    sample_indices,
    seed: int,
    *,
    jobs: int | None = None,
) -> list[RRRSet]:
    """:func:`sample_rrr_ic_pinned_sets` as a list of :class:`RRRSet`."""
    return list(sample_rrr_ic_pinned_sets(
        graph, probability, roots, original_of, sample_indices, seed,
        jobs=jobs,
    ))


@sanitize.guarded
def greedy_seed_selection_vector(
    rrr_sets: "list[RRRSet] | RRRSets",
    num_vertices: int,
    k: int,
) -> tuple[list[int], float, int]:
    """Array-based greedy max-coverage (vector tier).

    Bit-identical to the scalar reference in
    :func:`repro.apps.influence_max.greedy_seed_selection`: identical
    seeds (including ``argmax`` tie-breaking), covered fraction, and
    operation count.  RRR membership is held in two CSR encodings —
    vertex → containing sets and set → member vertices (an
    :class:`RRRSets` collection is the latter already) — so each seed
    costs one ``argmax`` plus one segmented gather and ``bincount``
    instead of a Python rescan of every newly covered set.
    """
    if not isinstance(rrr_sets, RRRSets):
        rrr_sets = RRRSets.from_sets(rrr_sets)
    num_sets = len(rrr_sets)
    member_verts = rrr_sets.members
    set_offsets = rrr_sets.offsets
    sizes = np.diff(set_offsets)
    set_ids = np.repeat(np.arange(num_sets, dtype=np.int64), sizes)
    counts = np.bincount(
        member_verts, minlength=num_vertices
    ).astype(np.int64)

    # vertex -> sets CSR (stable sort keeps set ids ascending per vertex,
    # matching the scalar builder's insertion order).  The keys are
    # vertex ids, so under the native engine the stable counting-sort
    # kernel gives the same order.
    by_vertex = None
    if resolve_engine() == "native":
        from .._native import counting

        by_vertex = counting.run(member_verts, num_vertices)
    if by_vertex is None:
        by_vertex = np.argsort(member_verts, kind="stable")
    vertex_sets = set_ids[by_vertex]
    vertex_indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=vertex_indptr[1:])
    covered = np.zeros(num_sets, dtype=bool)
    seeds: list[int] = []
    operations = int(counts.sum())
    for _ in range(min(k, num_vertices)):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        seeds.append(best)
        candidates = vertex_sets[
            vertex_indptr[best]: vertex_indptr[best + 1]
        ]
        fresh = np.unique(candidates[~covered[candidates]])
        if fresh.size:
            covered[fresh] = True
            members = gather_ranges(
                member_verts, set_offsets[fresh], set_offsets[fresh + 1]
            )
            counts -= np.bincount(
                members, minlength=num_vertices
            ).astype(np.int64)
            operations += int(members.size)
        counts[best] = -1
    fraction = float(covered.mean()) if num_sets else 0.0
    return seeds, fraction, operations
