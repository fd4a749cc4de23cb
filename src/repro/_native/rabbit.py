"""Compiled Rabbit-Order aggregation: the whole merge loop in one call.

Rabbit-Order (:mod:`repro.ordering.rabbit`) scans the vertices in
increasing degree and merges each surviving super-vertex into the
neighbour with the best modularity gain.  Every merge changes the
adjacency and aggregated degrees the next vertex sees, so the kernel
stays serial and runs the complete aggregation — adjacency load,
union-find, consolidation, merges and the final merge-forest DFS — on
the CSR arrays.

Bit-identity argument against the scalar twin
(``RabbitOrder._compute_scalar``), which keeps one Python dict per
super-vertex:

* each adjacency is a dict in miniature: keys and values in insertion
  order plus an open-addressing index.  A duplicate neighbour keeps its
  first position and its last weight (the dict comprehension); ``pop``
  leaves a tombstone, so a key inserted again goes to the end; growth
  compacts the live entries in order.  Every float sum therefore runs
  in the twin's order, including ``0.0 + w`` for a new key;
* consolidation accumulates into a dense ``link`` scratch in entry
  order and lists candidates first-seen, the way ``louvain_sweep``
  does, then rewrites the adjacency in that order;
* the gain keeps the Python evaluation order
  ``w / total - (deg_v * deg_u) / (2.0 * total * total)``, with the
  strict ``>`` and the lower-root tie-break;
* small-into-large compares *live* entry counts (the dict ``len``);
* the DFS emits roots ascending and children in merge order.

The caller owns the starting degrees (the weighted degrees), the scan
order (the stable argsort of the neighbour counts) and the totals the
counter sees; the kernel returns ``merges``, the number of
communities and the consolidated-edge count.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel

__all__ = ["KERNEL", "aggregate"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

#define EMPTY (-1)
#define DUMMY (-2)

/* One super-vertex's adjacency, a Python dict in miniature: ``cap``
 * entries in insertion order (key -1 marks a popped one) and a
 * 2*cap-slot open-addressing index holding entry positions, EMPTY, or
 * DUMMY where an entry was popped.  The three arrays share one block
 * of 20 bytes per entry that starts at ``val``, the doubles first for
 * their alignment; keys are vertex ids (the wrapper refuses
 * n >= 2**31) and positions stay below cap <= 2**31, so both fit
 * int32. */
typedef struct {
    double *val;
    int32_t *key;
    int32_t *slot;
    int64_t used;   /* entries appended, popped ones included */
    int64_t live;   /* the dict's len() */
    int64_t cap;    /* a power of two, or 0 before the first insert */
} adj_t;

static int64_t home(int64_t key, int64_t mask)
{
    uint64_t h = (uint64_t)key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return (int64_t)(h & (uint64_t)mask);
}

static void adj_index(adj_t *d, int64_t pos)
{
    const int64_t mask = 2 * d->cap - 1;
    int64_t s = home(d->key[pos], mask);
    while (d->slot[s] >= 0)
        s = (s + 1) & mask;
    d->slot[s] = (int32_t)pos;
}

/* Move the live entries, in order, into a fresh block with room for
 * at least ``need``; 0 on success, -1 when out of memory or when the
 * positions would outgrow int32. */
static int64_t adj_resize(adj_t *d, int64_t need)
{
    int64_t cap = 1;
    while (cap < need)
        cap *= 2;
    if (cap > ((int64_t)1 << 31))
        return -1;
    /* The dict owns the block: adj_free or the next resize frees it. */
    char *block = malloc((size_t)cap * 20); /* clint: disable=c-malloc-leak */
    if (!block)
        return -1;
    adj_t fresh = {(double *)block,
                   (int32_t *)(block + (size_t)cap * sizeof(double)),
                   (int32_t *)(block + (size_t)cap * 12),
                   0, d->live, cap};
    for (int64_t s = 0; s < 2 * cap; s++)
        fresh.slot[s] = EMPTY;
    for (int64_t i = 0; i < d->used; i++) {
        if (d->key[i] < 0)
            continue;
        fresh.key[fresh.used] = d->key[i];
        fresh.val[fresh.used] = d->val[i];
        adj_index(&fresh, fresh.used);
        fresh.used++;
    }
    free(d->val);
    *d = fresh;
    return 0;
}

static void adj_free(adj_t *d)
{
    free(d->val);
    d->val = NULL;
    d->key = NULL;
    d->slot = NULL;
    d->used = d->live = d->cap = 0;
}

/* d[key] = d.get(key, 0.0) + w when ``acc``, else d[key] = w. */
static int64_t adj_put(adj_t *d, int64_t key, double w, int64_t acc)
{
    if (d->cap > 0) {
        const int64_t mask = 2 * d->cap - 1;
        for (int64_t s = home(key, mask); d->slot[s] != EMPTY;
             s = (s + 1) & mask) {
            const int64_t p = d->slot[s];
            if (p >= 0 && d->key[p] == key) {
                d->val[p] = acc ? d->val[p] + w : w;
                return 0;
            }
        }
    }
    if (d->used == d->cap
        && adj_resize(d, d->live + d->live / 2 + 1) < 0)
        return -1;
    d->key[d->used] = (int32_t)key;
    d->val[d->used] = acc ? 0.0 + w : w;
    adj_index(d, d->used);
    d->used++;
    d->live++;
    return 0;
}

/* d.pop(key, None) */
static void adj_pop(adj_t *d, int64_t key)
{
    if (d->cap == 0)
        return;
    const int64_t mask = 2 * d->cap - 1;
    for (int64_t s = home(key, mask); d->slot[s] != EMPTY;
         s = (s + 1) & mask) {
        const int64_t p = d->slot[s];
        if (p >= 0 && d->key[p] == key) {
            d->slot[s] = DUMMY;
            d->key[p] = -1;
            d->live--;
            return;
        }
    }
}

static int64_t find(int64_t *parent, int64_t x)
{
    int64_t root = x;
    while (parent[root] != root)
        root = parent[root];
    while (parent[x] != root) {
        const int64_t next = parent[x];
        parent[x] = root;
        x = next;
    }
    return root;
}

/* Returns 0, or -1 when out of memory.  ``counts`` receives
 * [merges, communities, consolidated edges]. */
int64_t rabbit_aggregate(const int64_t *indptr,
                         const int64_t *indices,
                         const double *weights,
                         int64_t has_w,
                         int64_t n,
                         const double *degrees,
                         const int64_t *scan,
                         double total,
                         int64_t *sequence,
                         int64_t *counts)
{
    int64_t status = -1;
    adj_t *adj = calloc((size_t)n, sizeof(adj_t));
    int64_t *scratch = malloc((size_t)n * 8 * sizeof(int64_t));
    uint8_t *in_list = calloc((size_t)n, 1);
    if (!adj || !scratch || !in_list)
        goto done;
    int64_t *parent = scratch;
    int64_t *up = scratch + n;          /* merge-forest parent */
    int64_t *first_child = scratch + 2 * n;
    int64_t *next_sib = scratch + 3 * n;
    int64_t *last_child = scratch + 4 * n;
    int64_t *cand = scratch + 5 * n;
    double *agg = (double *)(scratch + 6 * n);
    double *link = (double *)(scratch + 7 * n);

    for (int64_t v = 0; v < n; v++) {
        parent[v] = v;
        up[v] = first_child[v] = next_sib[v] = last_child[v] = -1;
        agg[v] = degrees[v];
        const int64_t lo = indptr[v];
        const int64_t hi = indptr[v + 1];
        if (hi > lo && adj_resize(&adj[v], hi - lo) < 0)
            goto done;
        /* Sized for the whole row, so no put below needs to grow. */
        for (int64_t e = lo; e < hi; e++) {
            if (indices[e] != v)
                adj_put(&adj[v], indices[e], has_w ? weights[e] : 1.0, 0);
        }
    }

    int64_t merges = 0;
    int64_t consolidated = 0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t v = scan[i];
        if (find(parent, v) != v)
            continue;  /* already absorbed into another super-vertex */
        if (total == 0.0)
            break;
        /* Consolidate v's edges onto their current roots. */
        adj_t *dv = &adj[v];
        int64_t ncand = 0;
        for (int64_t e = 0; e < dv->used; e++) {
            if (dv->key[e] < 0)
                continue;
            const int64_t ru = find(parent, dv->key[e]);
            if (ru == v)
                continue;
            if (!in_list[ru]) {
                in_list[ru] = 1;
                link[ru] = 0.0;
                cand[ncand++] = ru;
            }
            link[ru] += dv->val[e];
        }
        consolidated += ncand;
        /* Rewrite v's adjacency as the consolidated dict: ncand never
         * exceeds the live count, so the block has room. */
        for (int64_t s = 0; s < 2 * dv->cap; s++)
            dv->slot[s] = EMPTY;
        for (int64_t j = 0; j < ncand; j++) {
            dv->key[j] = (int32_t)cand[j];
            dv->val[j] = link[cand[j]];
            adj_index(dv, j);
            in_list[cand[j]] = 0;
        }
        dv->used = dv->live = ncand;
        /* Best neighbouring super-vertex by modularity gain. */
        const double deg_v = agg[v];
        int64_t best_u = -1;
        double best_gain = 0.0;
        for (int64_t j = 0; j < ncand; j++) {
            const int64_t ru = cand[j];
            const double gain = link[ru] / total
                - (deg_v * agg[ru]) / (2.0 * total * total);
            if (gain > best_gain
                || (gain == best_gain && best_u != -1 && ru < best_u)) {
                best_u = ru;
                best_gain = gain;
            }
        }
        if (best_u == -1 || best_gain <= 0.0)
            continue;  /* v stays a top-level community */
        /* Merge v into best_u, small adjacency into large. */
        parent[v] = best_u;
        up[v] = best_u;
        if (first_child[best_u] < 0)
            first_child[best_u] = v;
        else
            next_sib[last_child[best_u]] = v;
        last_child[best_u] = v;
        agg[best_u] += agg[v];
        if (adj[v].live > adj[best_u].live) {
            const adj_t tmp = adj[v];
            adj[v] = adj[best_u];
            adj[best_u] = tmp;
        }
        adj_t *target = &adj[best_u];
        const adj_t *source = &adj[v];
        for (int64_t e = 0; e < source->used; e++) {
            const int64_t u = source->key[e];
            if (u >= 0 && u != best_u
                && adj_put(target, u, source->val[e], 1) < 0)
                goto done;
        }
        adj_pop(target, v);
        adj_pop(target, best_u);
        adj_free(&adj[v]);
        merges++;
    }

    /* Preorder DFS of the merge forest: roots ascending, children in
     * merge order.  Every vertex lies in exactly one tree. */
    int64_t pos = 0;
    int64_t roots = 0;
    for (int64_t r = 0; r < n; r++) {
        if (parent[r] != r)
            continue;
        roots++;
        int64_t node = r;
        while (pos < n) {
            sequence[pos++] = node;
            if (first_child[node] >= 0) {
                node = first_child[node];
                continue;
            }
            while (node != r && next_sib[node] < 0)
                node = up[node];
            if (node == r)
                break;
            node = next_sib[node];
        }
    }
    counts[0] = merges;
    counts[1] = roots;
    counts[2] = consolidated;
    status = 0;
done:
    if (adj) {
        for (int64_t v = 0; v < n; v++)
            free(adj[v].val);
    }
    free(adj);
    free(scratch);
    free(in_list);
    return status;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)

KERNEL = NativeKernel(
    "rabbit_aggregate",
    _SOURCE,
    symbols={
        "rabbit_aggregate": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # weights (ignored unless has_w)
                ctypes.c_int64,  # has_w
                ctypes.c_int64,  # n
                _P_F64,  # degrees
                _P_I64,  # scan
                ctypes.c_double,  # total
                _P_I64,  # sequence
                _P_I64,  # counts
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.ordering.rabbit:RabbitOrder._compute_scalar",
)

_EMPTY_F64 = np.zeros(1, dtype=np.float64)


def aggregate(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    degrees: np.ndarray,
    scan: np.ndarray,
    total: float,
) -> tuple[np.ndarray, int, int, int] | None:
    """Run the whole aggregation natively; None when it cannot run.

    ``degrees`` are the float64 starting degrees (the weighted
    degrees) and ``scan`` the visit order (the stable argsort of the
    neighbour counts); ``weights`` None means unit weights.  Returns
    ``(sequence, merges, num_communities, consolidated_edges)``.  Out
    of memory, or ``n >= 2**31`` (past the kernel's int32 keys), also
    returns None, so the scalar twin runs instead.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = indptr.size - 1
    if n >= 2**31:
        return None  # the adjacency keys are int32 vertex ids
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    scan = np.ascontiguousarray(scan, dtype=np.int64)
    degrees = np.ascontiguousarray(degrees, dtype=np.float64)
    has_w = weights is not None
    w = np.ascontiguousarray(weights) if has_w else _EMPTY_F64
    sequence = np.empty(n, dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    status = lib.rabbit_aggregate(
        indptr.ctypes.data_as(_P_I64),
        indices.ctypes.data_as(_P_I64),
        w.ctypes.data_as(_P_F64),
        int(has_w),
        n,
        degrees.ctypes.data_as(_P_F64),
        scan.ctypes.data_as(_P_I64),
        float(total),
        sequence.ctypes.data_as(_P_I64),
        counts.ctypes.data_as(_P_I64),
    )
    if status != 0:
        return None
    return sequence, int(counts[0]), int(counts[1]), int(counts[2])
