"""Compiled delta-stepping bucket relaxation.

The bucket loop of :func:`repro.apps.delta_stepping.delta_stepping`
(scalar twin :func:`repro.apps.delta_stepping._delta_stepping_scalar`,
vector twin :func:`repro.apps.delta_stepping._delta_stepping_vector`)
settles one bucket at a time: light edges to a fixpoint, then heavy
edges once.  Every round depends on the previous round's distances, so
the loop cannot batch — the native tier runs the whole relaxation in C
and emits the *scan stream* ``(vertex, phase)`` in execution order; the
Python wrapper assembles the replay trace (`WorkItem`s) from its
precomputed phase tables.

Bit-identity argument (against the vector engine, which is already
bit-identical to the scalar reference by the equivalence suite):

* relaxations use the same IEEE double ``dist[v] + w`` candidates and
  the same ``(int64)(c / delta)`` bucket truncation;
* sequential improve-only relaxation yields the per-target minimum the
  vector engine computes explicitly for parallel edges;
* buckets are processed in strictly increasing index order (light
  relaxations from bucket ``b`` land in ``>= b``, heavy in ``> b``), so
  a circular window of ``ceil(wmax / delta) + 3`` bucket slots holds
  every live bucket, and stale-only buckets are skipped without
  counting toward ``max_buckets`` — exactly the lazy-membership
  semantics of the vector engine;
* each frontier is the sorted unique set of still-valid members, the
  order ``np.unique`` produces.

On workspace overflow (pathological improvement counts) the kernel
returns ``-1`` and the wrapper falls back to the vector engine.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

static int cmp_i64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a;
    const int64_t y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

typedef struct {
    const int64_t *indptr;
    const int64_t *targets;
    const double *weights;
} phase_table;

typedef struct {
    double *dist;
    double delta;
    int64_t nb;            /* circular bucket slots */
    int64_t *bucket_head;  /* nb, -1 = empty */
    int64_t *bucket_of;    /* n, authoritative bucket, -1 unreached */
    int64_t *node_vertex;  /* arena */
    int64_t *node_next;
    int64_t node_cap;
    int64_t node_count;
    int64_t pending_nodes;
    int64_t *scan_v;       /* output stream */
    uint8_t *scan_phase;
    int64_t scan_cap;
    int64_t scan_count;
} state;

static int append_member(state *st, int64_t bucket, int64_t v)
{
    if (st->node_count >= st->node_cap)
        return -1;
    const int64_t slot = bucket % st->nb;
    const int64_t i = st->node_count++;
    st->node_vertex[i] = v;
    st->node_next[i] = st->bucket_head[slot];
    st->bucket_head[slot] = i;
    st->pending_nodes++;
    return 0;
}

/* One vertex scan over a phase table: record the scan, relax the
   selected edges improve-only, re-bucket improved targets. */
static int scan_vertex(state *st, const phase_table *pt, int64_t v,
                       uint8_t phase)
{
    if (st->scan_count >= st->scan_cap)
        return -1;
    st->scan_v[st->scan_count] = v;
    st->scan_phase[st->scan_count] = phase;
    st->scan_count++;
    const double dv = st->dist[v];
    const int64_t e_lo = pt->indptr[v];
    const int64_t e_hi = pt->indptr[v + 1];
    for (int64_t k = e_lo; k < e_hi; k++) {
        const int64_t t = pt->targets[k];
        const double c = dv + pt->weights[k];
        if (c < st->dist[t]) {
            st->dist[t] = c;
            const int64_t nb_t = (int64_t)(c / st->delta);
            st->bucket_of[t] = nb_t;
            if (append_member(st, nb_t, t))
                return -1;
        }
    }
    return 0;
}

/* Pop bucket's chunks; sorted unique still-valid members into buf.
   taken_stamp guards dedup within this collection round. */
static int64_t valid_members(state *st, int64_t bucket, int64_t round,
                             int64_t *taken_stamp, int64_t *buf)
{
    const int64_t slot = bucket % st->nb;
    int64_t node = st->bucket_head[slot];
    st->bucket_head[slot] = -1;
    int64_t count = 0;
    while (node != -1) {
        const int64_t v = st->node_vertex[node];
        st->pending_nodes--;
        if (st->bucket_of[v] == bucket && taken_stamp[v] != round)
        {
            taken_stamp[v] = round;
            buf[count++] = v;
        }
        node = st->node_next[node];
    }
    if (count > 1)
        qsort(buf, (size_t)count, sizeof(int64_t), cmp_i64);
    return count;
}

int64_t delta_scan(const int64_t *l_indptr,
                   const int64_t *l_targets,
                   const double *l_weights,
                   const int64_t *h_indptr,
                   const int64_t *h_targets,
                   const double *h_weights,
                   int64_t n,
                   int64_t source,
                   double delta,
                   int64_t max_buckets,
                   int64_t nb,
                   double *dist,           /* n, +inf filled */
                   int64_t *bucket_head,   /* nb, -1 filled */
                   int64_t *bucket_of,     /* n, -1 filled */
                   int64_t *node_vertex,   /* node_cap */
                   int64_t *node_next,     /* node_cap */
                   int64_t node_cap,
                   int64_t *frontier_buf,  /* n */
                   int64_t *settled_buf,   /* n */
                   int64_t *taken_stamp,   /* n, -1 filled */
                   int64_t *settled_stamp, /* n, -1 filled */
                   int64_t *scan_v,        /* scan_cap */
                   uint8_t *scan_phase,    /* scan_cap */
                   int64_t scan_cap)
{
    if (source < 0 || source >= n)
        return -1;
    state st = {
        dist, delta, nb, bucket_head, bucket_of,
        node_vertex, node_next, node_cap, 0, 0,
        scan_v, scan_phase, scan_cap, 0,
    };
    const phase_table light = { l_indptr, l_targets, l_weights };
    const phase_table heavy = { h_indptr, h_targets, h_weights };

    dist[source] = 0.0;
    bucket_of[source] = 0;
    if (append_member(&st, 0, source))
        return -1;

    int64_t round = 0;
    int64_t processed = 0;
    int64_t bucket = 0;
    while (processed < max_buckets && st.pending_nodes > 0) {
        /* advance to the next non-empty bucket slot (window bound nb) */
        int64_t off = 0;
        while (off < nb && bucket_head[(bucket + off) % nb] == -1)
            off++;
        if (off == nb)
            break; /* unreachable while pending_nodes > 0 */
        bucket += off;

        int64_t count = valid_members(&st, bucket, round++,
                                      taken_stamp, frontier_buf);
        if (count == 0)
            continue; /* every member moved on — never a live bucket */
        int64_t settled_count = 0;
        while (count > 0) {
            for (int64_t i = 0; i < count; i++) {
                const int64_t v = frontier_buf[i];
                if (settled_stamp[v] != processed + 1) {
                    settled_stamp[v] = processed + 1;
                    settled_buf[settled_count++] = v;
                }
                if (scan_vertex(&st, &light, v, 0))
                    return -1;
            }
            count = valid_members(&st, bucket, round++,
                                  taken_stamp, frontier_buf);
        }
        if (settled_count > 1)
            qsort(settled_buf, (size_t)settled_count, sizeof(int64_t),
                  cmp_i64);
        for (int64_t i = 0; i < settled_count; i++)
            if (scan_vertex(&st, &heavy, settled_buf[i], 1))
                return -1;
        processed++;
        bucket++;
    }
    return st.scan_count;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "delta_scan",
    _SOURCE,
    symbols={
        "delta_scan": (
            [
                _P_I64,  # l_indptr
                _P_I64,  # l_targets
                _P_F64,  # l_weights
                _P_I64,  # h_indptr
                _P_I64,  # h_targets
                _P_F64,  # h_weights
                ctypes.c_int64,  # n
                ctypes.c_int64,  # source
                ctypes.c_double,  # delta
                ctypes.c_int64,  # max_buckets
                ctypes.c_int64,  # nb
                _P_F64,  # dist
                _P_I64,  # bucket_head
                _P_I64,  # bucket_of
                _P_I64,  # node_vertex
                _P_I64,  # node_next
                ctypes.c_int64,  # node_cap
                _P_I64,  # frontier_buf
                _P_I64,  # settled_buf
                _P_I64,  # taken_stamp
                _P_I64,  # settled_stamp
                _P_I64,  # scan_v
                _P_U8,  # scan_phase
                ctypes.c_int64,  # scan_cap
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.apps.delta_stepping:_delta_stepping_scalar",
    vector_twin="repro.apps.delta_stepping:_delta_stepping_vector",
)

#: circular-window slots beyond which we fall back to the vector engine
#: (a pathologically small delta would ask for a huge window).
MAX_WINDOW_SLOTS = 1 << 22


@guarded(KERNEL)
def run(
    light_indptr: np.ndarray,
    light_targets: np.ndarray,
    light_weights: np.ndarray,
    heavy_indptr: np.ndarray,
    heavy_targets: np.ndarray,
    heavy_weights: np.ndarray,
    *,
    n: int,
    source: int,
    delta: float,
    max_buckets: int,
    wmax: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Run the bucket loop natively; None when unavailable or oversized.

    Returns ``(dist, scan_vertices, scan_phases)`` with phases 0=light,
    1=heavy, in the exact scan order of both Python engines.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    nb = int(wmax / delta) + 3
    if nb > MAX_WINDOW_SLOTS:
        return None
    m = light_targets.size + heavy_targets.size
    node_cap = 4 * m + 2 * n + 16
    scan_cap = node_cap + 2 * n + 16

    dist = np.full(n, np.inf)
    bucket_head = np.full(nb, -1, dtype=np.int64)
    bucket_of = np.full(n, -1, dtype=np.int64)
    node_vertex = np.empty(node_cap, dtype=np.int64)
    node_next = np.empty(node_cap, dtype=np.int64)
    frontier_buf = np.empty(n, dtype=np.int64)
    settled_buf = np.empty(n, dtype=np.int64)
    taken_stamp = np.full(n, -1, dtype=np.int64)
    settled_stamp = np.full(n, -1, dtype=np.int64)
    scan_v = np.empty(scan_cap, dtype=np.int64)
    scan_phase = np.empty(scan_cap, dtype=np.uint8)
    def i64(array: np.ndarray):
        return array.ctypes.data_as(_P_I64)

    def f64(array: np.ndarray):
        return array.ctypes.data_as(_P_F64)

    count = lib.delta_scan(
        i64(light_indptr),
        i64(light_targets),
        f64(light_weights),
        i64(heavy_indptr),
        i64(heavy_targets),
        f64(heavy_weights),
        n,
        int(source),
        float(delta),
        int(max_buckets),
        nb,
        f64(dist),
        i64(bucket_head),
        i64(bucket_of),
        i64(node_vertex),
        i64(node_next),
        node_cap,
        i64(frontier_buf),
        i64(settled_buf),
        i64(taken_stamp),
        i64(settled_stamp),
        i64(scan_v),
        scan_phase.ctypes.data_as(_P_U8),
        scan_cap,
    )
    if count < 0:  # pragma: no cover - generous workspace bound
        return None
    return dist, scan_v[:count], scan_phase[:count]
