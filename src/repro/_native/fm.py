"""Compiled partition kernels: FM refinement and region growing.

Nested dissection and METIS spend their time in two loops that resist
vectorisation because every step depends on the previous one:

* :func:`repro.partition.refine._one_pass` — the FM boundary pass
  (the scalar twin): a lazy max-heap over ``(-gain, v)`` with balance
  checks, hill-climbing, and best-prefix rollback.  The native kernel escalates
  the *whole* :func:`repro.partition.refine.fm_refine` pass loop —
  per-pass gains, part weights, and starting cut included — so a refine
  call is a single library call instead of hundreds of round-trips;
* :func:`repro.partition.initial._grow_one` — greedy graph growing
  (scalar twin ``_grow_one_scalar``): absorb the frontier vertex with
  the best accumulated cut gain until half the weight is inside.

Bit-identity argument: both kernels run the exact same IEEE double
operations in the exact same order as the Python loops (Python ``float``
arithmetic *is* C ``double`` arithmetic), the FM heap pops the multiset
minimum ``(-gain, v)`` exactly as ``heapq`` does, the per-pass gain /
weight / cut recomputations follow the scalar engine's row order (which
the vector engine's ``bincount`` / ``cumsum`` folds reproduce), and the
growth scan picks ``max(frontier, key=(gain, -x))`` by scanning
vertices in ascending order with a strict-greater test.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "refine", "grow_region", "hem_match", "coarse_map"]

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* binary min-heap over (-gain, v): pops max gain, ties lowest vertex.
   Entries are (gain, v) pairs; less(a, b) == (-ga, va) < (-gb, vb). */
static int entry_less(double ga, int64_t va, double gb, int64_t vb)
{
    if (ga != gb)
        return ga > gb;
    return va < vb;
}

static void heap_push(double *hg, int64_t *hv, int64_t *size,
                      double g, int64_t v)
{
    int64_t i = (*size)++;
    hg[i] = g;
    hv[i] = v;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!entry_less(hg[i], hv[i], hg[parent], hv[parent]))
            break;
        double tg = hg[parent]; hg[parent] = hg[i]; hg[i] = tg;
        int64_t tv = hv[parent]; hv[parent] = hv[i]; hv[i] = tv;
        i = parent;
    }
}

static void heap_pop(double *hg, int64_t *hv, int64_t *size,
                     double *g_out, int64_t *v_out)
{
    *g_out = hg[0];
    *v_out = hv[0];
    (*size)--;
    double lg = hg[*size];
    int64_t lv = hv[*size];
    int64_t i = 0;
    for (;;) {
        int64_t left = 2 * i + 1;
        int64_t right = left + 1;
        int64_t smallest = i;
        double cg = lg;
        int64_t cv = lv;
        if (left < *size && entry_less(hg[left], hv[left], cg, cv)) {
            smallest = left;
            cg = hg[left];
            cv = hv[left];
        }
        if (right < *size && entry_less(hg[right], hv[right], cg, cv))
            smallest = right;
        if (smallest == i)
            break;
        hg[i] = hg[smallest];
        hv[i] = hv[smallest];
        i = smallest;
    }
    hg[i] = lg;
    hv[i] = lv;
}

/* One FM pass: mutates part/gains/part_weights; returns 1 when the cut
   improved, 0 otherwise, -1 on heap overflow (cannot happen under the
   caller's n + num_edges bound). */
static int64_t fm_one_pass(const int64_t *indptr,
                    const int64_t *indices,
                    const double *edge_w,
                    int64_t has_edge_w,
                    int64_t n,
                    double *gains,
                    int64_t *part,
                    const double *vertex_weights,
                    double *part_weights,     /* 2 */
                    const double *limits,     /* 2 */
                    int64_t max_negative_moves,
                    double start_cut,
                    double *heap_g,
                    int64_t *heap_v,
                    int64_t heap_cap,
                    uint8_t *locked,          /* n, zeroed */
                    int64_t *moves,           /* n */
                    double *best_cut_out)
{
    int64_t heap_size = 0;
    for (int64_t v = 0; v < n; v++)
        heap_push(heap_g, heap_v, &heap_size, gains[v], v);

    int64_t num_moves = 0;
    double cut = start_cut;
    double best_cut = start_cut;
    int64_t best_prefix = 0;
    int64_t negatives = 0;

    while (heap_size > 0 && negatives <= max_negative_moves) {
        double g;
        int64_t v;
        heap_pop(heap_g, heap_v, &heap_size, &g, &v);
        if (locked[v] || g != gains[v])
            continue; /* stale entry */
        int64_t src = part[v];
        int64_t dst = 1 - src;
        double vw = vertex_weights[v];
        if (part_weights[dst] + vw > limits[dst])
            continue; /* would unbalance; skip this vertex this pass */
        locked[v] = 1;
        part[v] = dst;
        part_weights[src] -= vw;
        part_weights[dst] += vw;
        cut -= gains[v];
        moves[num_moves++] = v;
        if (cut < best_cut - 1e-12) {
            best_cut = cut;
            best_prefix = num_moves;
            negatives = 0;
        } else {
            negatives++;
        }
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t u = indices[k];
            if (locked[u])
                continue;
            double w = has_edge_w ? edge_w[k] : 1.0;
            if (part[u] == dst)
                gains[u] -= 2.0 * w;
            else
                gains[u] += 2.0 * w;
            if (heap_size >= heap_cap)
                return -1;
            heap_push(heap_g, heap_v, &heap_size, gains[u], u);
        }
    }
    for (int64_t i = best_prefix; i < num_moves; i++)
        part[moves[i]] = 1 - part[moves[i]];
    *best_cut_out = best_cut;
    return best_cut < start_cut - 1e-12;
}

/* Full FM refinement: up to max_passes passes, recomputing gains, part
   weights, and the starting cut before each pass exactly as the Python
   driver does (scalar row order; the vector engine's bincount/cumsum
   folds reproduce the same sums).  Mutates part; returns 1, or -1 on
   heap overflow. */
int64_t fm_refine(const int64_t *indptr,
                  const int64_t *indices,
                  const double *edge_w,
                  int64_t has_edge_w,
                  int64_t n,
                  int64_t *part,
                  const double *vertex_weights,
                  const double *limits,     /* 2 */
                  int64_t max_negative_moves,
                  int64_t max_passes,
                  double *gains,            /* n scratch */
                  double *part_weights,     /* 2 scratch */
                  double *heap_g,
                  int64_t *heap_v,
                  int64_t heap_cap,
                  uint8_t *locked,          /* n scratch */
                  int64_t *moves)           /* n scratch */
{
    for (int64_t pass = 0; pass < max_passes; pass++) {
        for (int64_t u = 0; u < n; u++) {
            int64_t pu = part[u];
            double g = 0.0;
            for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
                double w = has_edge_w ? edge_w[k] : 1.0;
                if (part[indices[k]] == pu)
                    g -= w;
                else
                    g += w;
            }
            gains[u] = g;
        }
        part_weights[0] = 0.0;
        part_weights[1] = 0.0;
        for (int64_t v = 0; v < n; v++)
            part_weights[part[v]] += vertex_weights[v];
        double cut = 0.0;
        for (int64_t u = 0; u < n; u++) {
            int64_t pu = part[u];
            for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
                int64_t v = indices[k];
                if (v > u && part[v] != pu)
                    cut += has_edge_w ? edge_w[k] : 1.0;
            }
        }
        if (n > 0)  /* tells the compiler the cast below cannot wrap */
            memset(locked, 0, (size_t)n);
        double best_cut;
        int64_t improved = fm_one_pass(indptr, indices, edge_w, has_edge_w,
                                       n, gains, part, vertex_weights,
                                       part_weights, limits,
                                       max_negative_moves, cut,
                                       heap_g, heap_v, heap_cap,
                                       locked, moves, &best_cut);
        if (improved < 0)
            return -1;
        if (!improved)
            break;
    }
    return 1;
}

/* Greedy region growing: absorb the frontier vertex with the best
   accumulated gain (ties: lowest id) until grown >= target. */
void grow_region(const int64_t *indptr,
                 const int64_t *indices,
                 const double *edge_w,
                 int64_t has_edge_w,
                 int64_t n,
                 const double *vertex_weights,
                 int64_t seed,
                 double target,
                 int64_t *part,        /* all ones on entry; mutated */
                 uint8_t *in_frontier, /* n scratch */
                 double *fgain,        /* n scratch */
                 double *grown_out)
{
    memset(in_frontier, 0, (size_t)n);
    double grown = 0.0;
    int64_t frontier_count = 1;
    in_frontier[seed] = 1;
    fgain[seed] = 0.0;
    while (frontier_count > 0 && grown < target) {
        int64_t v = -1;
        double best = 0.0;
        for (int64_t x = 0; x < n; x++) {
            if (!in_frontier[x])
                continue;
            if (v == -1 || fgain[x] > best) {
                v = x;
                best = fgain[x];
            }
        }
        in_frontier[v] = 0;
        frontier_count--;
        if (part[v] == 0)
            continue; /* parity guard; frontier never holds absorbed */
        part[v] = 0;
        grown += vertex_weights[v];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            int64_t u = indices[k];
            if (part[u] == 0)
                continue;
            double w = has_edge_w ? edge_w[k] : 1.0;
            if (in_frontier[u]) {
                fgain[u] += w;
            } else {
                in_frontier[u] = 1;
                fgain[u] = w;
                frontier_count++;
            }
        }
    }
    *grown_out = grown;
}

/* Randomised heavy-edge matching: visit vertices in visit_order, match
   each unmatched vertex with its unmatched neighbour of maximum edge
   weight (ties: lowest id), optionally subject to a combined vertex
   weight cap.  Exact replica of the scalar scan in
   repro.partition.matching.heavy_edge_matching. */
void hem_match(const int64_t *indptr,
               const int64_t *indices,
               const double *edge_w,
               int64_t has_edge_w,
               int64_t n,
               const int64_t *visit_order,
               const double *vertex_weights, /* NULL-able via constrained */
               int64_t constrained,
               double max_vertex_weight,
               int64_t *match)               /* n out */
{
    for (int64_t v = 0; v < n; v++)
        match[v] = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = visit_order[i];
        if (match[u] != -1)
            continue;
        int64_t best = -1;
        double best_w = -1.0;
        for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
            int64_t v = indices[k];
            if (v == u || match[v] != -1)
                continue;
            if (constrained &&
                vertex_weights[u] + vertex_weights[v] > max_vertex_weight)
                continue;
            double w = has_edge_w ? edge_w[k] : 1.0;
            if (w > best_w || (w == best_w && v < best)) {
                best = v;
                best_w = w;
            }
        }
        if (best == -1) {
            match[u] = u;
        } else {
            match[u] = best;
            match[best] = u;
        }
    }
}

/* Matching -> fine-to-coarse map: coarse ids assigned in ascending order
   of the pair's lower fine id (repro.partition.matching.
   matching_to_coarse_map's scalar scan).  Returns the coarse count. */
int64_t coarse_map_from_matching(const int64_t *match,
                                 int64_t n,
                                 int64_t *coarse_of) /* n out */
{
    for (int64_t v = 0; v < n; v++)
        coarse_of[v] = -1;
    int64_t next_id = 0;
    for (int64_t v = 0; v < n; v++) {
        if (coarse_of[v] != -1)
            continue;
        int64_t partner = match[v];
        coarse_of[v] = next_id;
        if (partner != v)
            coarse_of[partner] = next_id;
        next_id++;
    }
    return next_id;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "partition_fm",
    _SOURCE,
    symbols={
        "fm_refine": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w
                ctypes.c_int64,  # has_edge_w
                ctypes.c_int64,  # n
                _P_I64,  # part
                _P_F64,  # vertex_weights
                _P_F64,  # limits
                ctypes.c_int64,  # max_negative_moves
                ctypes.c_int64,  # max_passes
                _P_F64,  # gains
                _P_F64,  # part_weights
                _P_F64,  # heap_g
                _P_I64,  # heap_v
                ctypes.c_int64,  # heap_cap
                _P_U8,  # locked
                _P_I64,  # moves
            ],
            ctypes.c_int64,
        ),
        "grow_region": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w
                ctypes.c_int64,  # has_edge_w
                ctypes.c_int64,  # n
                _P_F64,  # vertex_weights
                ctypes.c_int64,  # seed
                ctypes.c_double,  # target
                _P_I64,  # part
                _P_U8,  # in_frontier
                _P_F64,  # fgain
                _P_F64,  # grown_out
            ],
            None,
        ),
        "hem_match": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w
                ctypes.c_int64,  # has_edge_w
                ctypes.c_int64,  # n
                _P_I64,  # visit_order
                _P_F64,  # vertex_weights
                ctypes.c_int64,  # constrained
                ctypes.c_double,  # max_vertex_weight
                _P_I64,  # match
            ],
            None,
        ),
        "coarse_map_from_matching": (
            [
                _P_I64,  # match
                ctypes.c_int64,  # n
                _P_I64,  # coarse_of
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.partition.refine:_one_pass",
)


def _f64(array: np.ndarray):
    return array.ctypes.data_as(_P_F64)


def _i64(array: np.ndarray):
    return array.ctypes.data_as(_P_I64)


#: reusable scratch buffers, grown on demand.  The kernels only ever
#: touch the leading ``size`` elements and zero what they need
#: themselves, so stale contents are harmless.  Single-threaded by
#: design (the process-level parallelism in :mod:`repro.resilience`
#: forks whole interpreters).
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch(key: str, size: int, dtype) -> np.ndarray:
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 16), dtype=dtype)
        _SCRATCH[key] = buf
    return buf


_EMPTY_F64 = np.empty(0, dtype=np.float64)


@guarded(KERNEL)
def refine(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_w: np.ndarray | None,
    part: np.ndarray,
    vertex_weights: np.ndarray,
    limits: tuple[float, float],
    max_negative_moves: int,
    max_passes: int,
) -> bool | None:
    """Full native FM refinement mutating ``part``; None when unavailable.

    Runs the whole pass loop — gain / weight / cut recomputation included
    — in one library call.  ``vertex_weights`` must be contiguous float64
    and ``part`` must hold one 0/1 label per vertex
    (:func:`repro.partition.refine.fm_refine` checks).
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = part.size
    heap_cap = n + indices.size + 1
    heap_g = _scratch("heap_g", heap_cap, np.float64)
    heap_v = _scratch("heap_v", heap_cap, np.int64)
    gains = _scratch("gains", n, np.float64)
    part_weights = _scratch("part_weights", 2, np.float64)
    locked = _scratch("locked", n, np.uint8)
    moves = _scratch("moves", n, np.int64)
    limits_arr = np.asarray(limits, dtype=np.float64)
    has_w = edge_w is not None
    # Refine a scratch copy so a (provably unreachable) heap overflow
    # cannot hand a half-refined partition to the Python fallback.
    work = part.copy()
    status = lib.fm_refine(
        _i64(indptr),
        _i64(indices),
        _f64(edge_w if has_w else _EMPTY_F64),
        int(has_w),
        n,
        _i64(work),
        _f64(vertex_weights),
        _f64(limits_arr),
        int(max_negative_moves),
        int(max_passes),
        _f64(gains),
        _f64(part_weights),
        _f64(heap_g),
        _i64(heap_v),
        heap_cap,
        locked.ctypes.data_as(_P_U8),
        _i64(moves),
    )
    if status < 0:  # pragma: no cover - bound is provably sufficient
        return None
    part[:] = work
    return True


@guarded(KERNEL)
def grow_region(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_w: np.ndarray | None,
    vertex_weights: np.ndarray,
    seed: int,
    target: float,
    part: np.ndarray,
) -> float | None:
    """Grow part 0 from ``seed`` natively; None when unavailable.

    Mutates ``part`` (all ones on entry) and returns the grown weight;
    the caller handles the degenerate and disconnected top-up paths.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = part.size
    in_frontier = _scratch("in_frontier", n, np.uint8)
    fgain = _scratch("fgain", n, np.float64)
    grown = _scratch("grown", 1, np.float64)
    has_w = edge_w is not None
    lib.grow_region(
        _i64(indptr),
        _i64(indices),
        _f64(edge_w if has_w else _EMPTY_F64),
        int(has_w),
        n,
        _f64(vertex_weights),
        int(seed),
        float(target),
        _i64(part),
        in_frontier.ctypes.data_as(_P_U8),
        _f64(fgain),
        _f64(grown),
    )
    return float(grown[0])


@guarded(KERNEL)
def hem_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_w: np.ndarray | None,
    visit_order: np.ndarray,
    vertex_weights: np.ndarray | None,
    max_vertex_weight: float | None,
) -> np.ndarray | None:
    """Native heavy-edge matching; None when unavailable.

    Returns the ``match`` array (``match[v]`` = partner, or ``v`` when
    unmatched), identical to the scalar scan in
    :func:`repro.partition.matching.heavy_edge_matching`.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = visit_order.size
    match = np.empty(n, dtype=np.int64)
    constrained = vertex_weights is not None and max_vertex_weight is not None
    has_w = edge_w is not None
    lib.hem_match(
        _i64(indptr),
        _i64(indices),
        _f64(edge_w if has_w else _EMPTY_F64),
        int(has_w),
        n,
        _i64(visit_order),
        _f64(
            np.ascontiguousarray(vertex_weights, dtype=np.float64)
            if constrained
            else _EMPTY_F64
        ),
        int(constrained),
        float(max_vertex_weight) if constrained else 0.0,
        _i64(match),
    )
    return match


@guarded(KERNEL)
def coarse_map(match: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Native matching-to-coarse-map; None when unavailable."""
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = match.size
    coarse_of = np.empty(n, dtype=np.int64)
    num_coarse = lib.coarse_map_from_matching(_i64(match), n, _i64(coarse_of))
    return coarse_of, int(num_coarse)
