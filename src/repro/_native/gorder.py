"""Compiled Gorder greedy: the whole sliding-window priority scan in C.

The GO greedy (:class:`repro.ordering.gorder.GorderOrder`, scalar twin
``_compute_scalar``, its only Python tier) spends its time in the
``O(sum of squared degrees)`` score-update loop and the lazy max-heap.
Neither vectorises — every update depends on the vertex just placed —
so the native tier runs the complete greedy in C.

Bit-identity argument:

* heap entries are packed as ``(-key << 32) | vertex`` — two's-complement
  monotone for ``vertex < 2**31`` and ``|key| < 2**31`` — so the binary
  heap pops the exact multiset minimum ``(-key, vertex)`` pair that
  ``heapq`` pops (pop order over identical entries is indistinguishable);
* score updates apply the same ``±1`` increments in the same neighbour
  order as the scalar twin;
* ``compare_ops`` counts one per push and one per pop (including stale
  pops) and ``edge_ops`` counts ``deg(e) + sum of two-hop degrees``
  per window entry/exit, matching the scalar twin's totals;
* the empty-heap fallback picks the first unplaced vertex of maximum
  degree — ``np.argmax``'s first-occurrence semantics.

The caller allocates the heap with capacity ``sum(deg) +
sum over edges (u,v) of deg(v) + 1`` — an upper bound on pushes, since
only window *entries* (not exits) push.  The kernel returns ``-1`` if the
heap would overflow (cannot happen under that bound; kept as a hard
guard) and the wrapper falls back to the scalar twin.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdint.h>

/* min-heap over packed (neg_key << 32) | vertex entries */
static void heap_push(int64_t *heap, int64_t *size, int64_t entry)
{
    int64_t i = (*size)++;
    heap[i] = entry;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (heap[parent] <= heap[i])
            break;
        int64_t tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
}

static int64_t heap_pop(int64_t *heap, int64_t *size)
{
    int64_t top = heap[0];
    int64_t last = heap[--(*size)];
    int64_t i = 0;
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t smallest = i;
        int64_t cand = last;
        if (left < *size && heap[left] < cand) {
            smallest = left;
            cand = heap[left];
        }
        if (right < *size && heap[right] < cand)
            smallest = right;
        if (smallest == i)
            break;
        heap[i] = heap[smallest];
        i = smallest;
    }
    heap[i] = last;
    return top;
}

int64_t gorder_greedy(const int64_t *indptr,
                      const int64_t *indices,
                      const int64_t *degrees,
                      int64_t n,
                      int64_t window,
                      int64_t *key,        /* n, zeroed by caller */
                      uint8_t *placed,     /* n, zeroed by caller */
                      int64_t *heap,       /* heap_cap */
                      int64_t heap_cap,
                      int64_t *sequence,   /* n, output */
                      int64_t *counts)     /* [edge_ops, compare_ops] */
{
    int64_t edge_ops = 0;
    int64_t compare_ops = 0;
    int64_t heap_size = 0;
    int64_t placed_count = 0;

    /* one macro-free helper pair, inlined by hand for clarity */
#define ADJUST(vertex, delta)                                         \
    do {                                                              \
        int64_t _v = (vertex);                                        \
        key[_v] += (delta);                                           \
        if (!placed[_v] && (delta) > 0) {                             \
            if (heap_size >= heap_cap)                                \
                return -1;                                            \
            heap_push(heap, &heap_size,                               \
                      (-key[_v]) * 4294967296LL + _v);                \
            compare_ops++;                                            \
        }                                                             \
    } while (0)

#define UPDATE_FOR(entering, delta)                                   \
    do {                                                              \
        int64_t _e = (entering);                                      \
        int64_t _d = (delta);                                         \
        edge_ops += indptr[_e + 1] - indptr[_e];                      \
        for (int64_t _k = indptr[_e]; _k < indptr[_e + 1]; _k++) {    \
            int64_t _u = indices[_k];                                 \
            ADJUST(_u, _d); /* S_n term */                            \
            edge_ops += indptr[_u + 1] - indptr[_u];                  \
            for (int64_t _j = indptr[_u]; _j < indptr[_u + 1]; _j++) {\
                int64_t _t = indices[_j];                             \
                if (_t != _e)                                         \
                    ADJUST(_t, _d); /* S_s term via shared nbr _u */  \
            }                                                         \
        }                                                             \
    } while (0)

    /* start: first vertex of maximum degree (np.argmax semantics) */
    int64_t start = 0;
    for (int64_t v = 1; v < n; v++)
        if (degrees[v] > degrees[start])
            start = v;
    placed[start] = 1;
    sequence[placed_count++] = start;
    UPDATE_FOR(start, +1);

    for (int64_t step = 1; step < n; step++) {
        if (placed_count > window) {
            int64_t leaving = sequence[placed_count - window - 1];
            UPDATE_FOR(leaving, -1);
        }
        int64_t chosen = -1;
        while (heap_size > 0) {
            int64_t entry = heap_pop(heap, &heap_size);
            compare_ops++;
            int64_t v = entry & 0x7fffffffLL;
            int64_t neg_key = entry >> 32;
            if (placed[v] || -neg_key != key[v])
                continue; /* stale entry */
            chosen = v;
            break;
        }
        if (chosen == -1) {
            /* no unvisited 2-hop frontier: first unplaced max-degree */
            for (int64_t v = 0; v < n; v++) {
                if (placed[v])
                    continue;
                if (chosen == -1 || degrees[v] > degrees[chosen])
                    chosen = v;
            }
        }
        placed[chosen] = 1;
        sequence[placed_count++] = chosen;
        UPDATE_FOR(chosen, +1);
    }
#undef ADJUST
#undef UPDATE_FOR
    counts[0] = edge_ops;
    counts[1] = compare_ops;
    return 0;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "gorder_greedy",
    _SOURCE,
    symbols={
        "gorder_greedy": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_I64,  # degrees
                ctypes.c_int64,  # n
                ctypes.c_int64,  # window
                _P_I64,  # key
                _P_U8,  # placed
                _P_I64,  # heap
                ctypes.c_int64,  # heap_cap
                _P_I64,  # sequence
                _P_I64,  # counts
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.ordering.gorder:GorderOrder._compute_scalar",
)


@guarded(KERNEL)
def run(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    window: int,
) -> tuple[np.ndarray, int, int] | None:
    """Run the full greedy natively; None when the kernel is unavailable.

    Returns ``(sequence, edge_ops, compare_ops)`` matching the scalar
    twin bit-for-bit.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = degrees.size
    # Push upper bound: every window *entry* adjusts deg(e) direct
    # neighbours plus their whole neighbourhoods once.
    heap_cap = int(
        degrees.sum() + degrees[indices].sum()
    ) + 1
    if n >= 2**31 or heap_cap >= 2**31:
        return None  # packed int64 heap entries would overflow
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    key = np.zeros(n, dtype=np.int64)
    placed = np.zeros(n, dtype=np.uint8)
    heap = np.empty(heap_cap, dtype=np.int64)
    sequence = np.empty(n, dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)

    def as_i64(array: np.ndarray):
        return array.ctypes.data_as(ctypes.POINTER(ctypes.c_int64))

    status = lib.gorder_greedy(
        as_i64(indptr),
        as_i64(indices),
        as_i64(degrees),
        n,
        window,
        as_i64(key),
        placed.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
        as_i64(heap),
        heap_cap,
        as_i64(sequence),
        as_i64(counts),
    )
    if status != 0:  # pragma: no cover - bound is provably sufficient
        return None
    return sequence, int(counts[0]), int(counts[1])
