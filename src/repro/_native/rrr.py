"""Compiled hash-pinned RRR sampling kernel (IC reverse BFS).

IMM's hot spot is drawing thousands of independent reverse-reachability
cascades.  Each cascade is a probabilistic BFS whose per-edge coin is a
splitmix64 mix of the edge's *original* endpoint ids and the sample
index (:func:`repro.apps.influence_max._edge_coins`) — so cascades are a
pure function of ``(graph content, sample index, seed)`` and totally
independent of one another.

The kernel draws a chunk of cascades per call and writes them back to
back into one output arena; the wrapper hands the filled prefix on as
one member array, the CSR :class:`repro.apps.influence_max.RRRSets`
keeps all the way to the simulated replay.

Bit-identity with the scalar BFS (the scalar twin) relies on two exact
equivalences: C's uint64 arithmetic wraps exactly like the masked
numpy/Python mix, and ``(double)x / 2^64`` performs the same
round-to-nearest conversion as ``x.astype(np.float64) / float(2**64)``.
The BFS itself appends level by level, first occurrence in adjacency
order — the identical visit order.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

#: Cap on the per-call output arena (int64 elements).  Sample batches
#: whose worst case exceeds it are processed in chunks, so memory stays
#: bounded no matter how many cascades a draw requests.
_ARENA_BUDGET = 1 << 22

_SOURCE = r"""
#include <stdint.h>

int64_t rrr_sample(const int64_t *indptr,
                   const int64_t *indices,
                   const int64_t *original_of,
                   int64_t n,
                   double probability,
                   const int64_t *roots,
                   const int64_t *sample_indices,
                   int64_t num_samples,
                   uint64_t seed,
                   int64_t slot_base,   /* global slot of sample 0 */
                   int64_t *out,        /* out_cap slots */
                   int64_t out_cap,
                   int64_t *out_sizes,  /* num_samples */
                   int64_t *out_edges,  /* num_samples */
                   int64_t *stamps)     /* n, zeroed by the caller */
{
    int64_t pos = 0;
    for (int64_t s = 0; s < num_samples; s++) {
        const int64_t stamp = slot_base + s + 1;
        const uint64_t salt =
            (uint64_t)sample_indices[s] * 0x94D049BB133111EBULL
            + seed * 0xD6E8FEB86659FD93ULL;
        const int64_t base = pos;
        if (pos >= out_cap)
            return -1;
        const int64_t root = roots[s];
        if (root < 0 || root >= n)
            return -1;
        stamps[root] = stamp;
        out[pos++] = root;
        int64_t level_lo = 0;
        int64_t level_hi = 1;
        int64_t edges = 0;
        while (level_lo < level_hi) {
            for (int64_t i = level_lo; i < level_hi; i++) {
                const int64_t u = out[base + i];
                const int64_t e_lo = indptr[u];
                const int64_t e_hi = indptr[u + 1];
                edges += e_hi - e_lo;
                const uint64_t ou = (uint64_t)original_of[u];
                for (int64_t e = e_lo; e < e_hi; e++) {
                    const int64_t v = indices[e];
                    const uint64_t ov = (uint64_t)original_of[v];
                    const uint64_t a = ou < ov ? ou : ov;
                    const uint64_t b = ou < ov ? ov : ou;
                    uint64_t x = a * 0x9E3779B97F4A7C15ULL
                               + b * 0xBF58476D1CE4E5B9ULL + salt;
                    x ^= x >> 30;
                    x *= 0xBF58476D1CE4E5B9ULL;
                    x ^= x >> 27;
                    x *= 0x94D049BB133111EBULL;
                    x ^= x >> 31;
                    const double coin =
                        (double)x / 18446744073709551616.0;
                    if (coin < probability && stamps[v] != stamp) {
                        stamps[v] = stamp;
                        if (pos >= out_cap)
                            return -1;
                        out[pos++] = v;
                    }
                }
            }
            level_lo = level_hi;
            level_hi = pos - base;
        }
        out_sizes[s] = pos - base;
        out_edges[s] = edges;
    }
    return 0;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)

KERNEL = NativeKernel(
    "rrr_sample",
    _SOURCE,
    symbols={
        "rrr_sample": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_I64,  # original_of
                ctypes.c_int64,  # n
                ctypes.c_double,  # probability
                _P_I64,  # roots
                _P_I64,  # sample_indices
                ctypes.c_int64,  # num_samples
                ctypes.c_uint64,  # seed
                ctypes.c_int64,  # slot_base
                _P_I64,  # out
                ctypes.c_int64,  # out_cap
                _P_I64,  # out_sizes
                _P_I64,  # out_edges
                _P_I64,  # stamps
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.apps.influence_max:_sample_rrr_ic_pinned_scalar",
)


@guarded(KERNEL)
def run(
    graph,
    probability: float,
    roots: np.ndarray,
    original_of: np.ndarray,
    sample_indices: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """All cascades as ``(members, sizes, edges_examined)``, or None.

    ``members`` holds every cascade back to back (sample ``s`` owns the
    next ``sizes[s]`` entries); ``edges_examined`` is per sample.
    Returns None when the kernel is unavailable so the caller falls
    through to the scalar sampler.  Every root must lie in ``[0, n)``
    (:func:`repro.apps.batch.sample_rrr_ic_pinned_sets` checks).
    Samples are processed in bounded-arena chunks; a cascade visits each
    vertex at most once, so ``count * n`` slots always hold a chunk of
    ``count`` samples.
    """
    native = KERNEL.lib()
    if native is None:
        return None
    num_samples = int(len(roots))
    sizes = np.zeros(num_samples, dtype=np.int64)
    edges = np.zeros(num_samples, dtype=np.int64)
    if num_samples == 0:
        return np.zeros(0, dtype=np.int64), sizes, edges
    n = int(graph.num_vertices)
    if n == 0:
        return None
    indptr = np.ascontiguousarray(graph.indptr, dtype=np.int64)
    indices = np.ascontiguousarray(graph.indices, dtype=np.int64)
    original = np.ascontiguousarray(original_of, dtype=np.int64)
    roots_arr = np.ascontiguousarray(roots, dtype=np.int64)
    samples_arr = np.ascontiguousarray(sample_indices, dtype=np.int64)
    chunk_size = max(1, min(num_samples, _ARENA_BUDGET // n))
    stamps = np.zeros(n, dtype=np.int64)
    parts: list[np.ndarray] = []
    for chunk_lo in range(0, num_samples, chunk_size):
        chunk_hi = min(chunk_lo + chunk_size, num_samples)
        count = chunk_hi - chunk_lo
        out_cap = count * n
        arena = np.empty(out_cap, dtype=np.int64)
        rc = native.rrr_sample(
            indptr.ctypes.data_as(_P_I64),
            indices.ctypes.data_as(_P_I64),
            original.ctypes.data_as(_P_I64),
            n,
            float(probability),
            roots_arr[chunk_lo:chunk_hi].ctypes.data_as(_P_I64),
            samples_arr[chunk_lo:chunk_hi].ctypes.data_as(_P_I64),
            count,
            int(seed) & ((1 << 64) - 1),
            chunk_lo,
            arena.ctypes.data_as(_P_I64),
            out_cap,
            sizes[chunk_lo:chunk_hi].ctypes.data_as(_P_I64),
            edges[chunk_lo:chunk_hi].ctypes.data_as(_P_I64),
            stamps.ctypes.data_as(_P_I64),
        )
        if rc != 0:  # pragma: no cover - out_cap and the root check
            # in sample_rrr_ic_pinned_sets make this unreachable
            return None
        # copied out: the arena's unused tail must not stay alive
        parts.append(arena[: int(sizes[chunk_lo:chunk_hi].sum())].copy())
    members = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return members, sizes, edges
