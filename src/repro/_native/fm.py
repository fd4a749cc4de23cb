"""Compiled multilevel partitioning: one library call per partition tree.

METIS and nested dissection spend their time in recursive multilevel
bisection.  Under the native engine each ordering is one call:

* ``partition_tree`` runs the whole k-way recursion of
  :func:`repro.partition.multilevel.partition_graph`;
* ``dissect_tree`` runs the whole recursion of
  :class:`repro.ordering.nested_dissection.NestedDissectionOrder`,
  with the greedy vertex cover of
  :func:`repro.partition.separator._greedy_cover_scalar` at every node
  and the original graph's degrees counted as edge operations.

Both walk the tree depth-first, left subtree first, on the canonical
root Python builds once (``induced_subgraph(graph, arange(n))``, as
the recursions do).  A node's vertices stay ascending, so its subgraph
is a row filter of the root through a global-to-local array: no sort,
no merge, one node subgraph alive at a time.  Every node is bisected by
one helper, ``bisect_csr``, which runs one whole
:func:`repro.partition.multilevel.bisect` on the CSR arrays:

* coarsening — heavy-edge matching on a Fisher–Yates visit order, the
  coarse map, the 0.95 stall test, and contraction into a sorted,
  merged coarse CSR with summed vertex weights;
* the greedy-growing tries, with the disconnected top-up and a strict
  best-cut pick;
* FM refinement of the coarsest bisection, then projection and FM at
  every finer level, and the final edge cut.

Its scalar twin is :func:`repro.partition.multilevel._bisect_python`,
the same pipeline in Python; the recursions in ``partition_graph`` and
``NestedDissectionOrder.compute`` are the twins of the two tree
symbols.  The matching, growing and FM routines are ``static`` helpers
shared with the per-piece symbols (``fm_refine``, ``grow_region``,
``hem_match``, ``coarse_map_from_matching``), which still serve
:func:`~repro.partition.refine.fm_refine`,
:func:`~repro.partition.initial.greedy_bisection` and the matching
functions when those are called on their own.

Bit-identity argument against the twin:

* **Draws.** The kernel draws from the caller's
  :class:`numpy.random.Generator` through ``bit_generator.ctypes``
  (``next_uint32`` on ``state_address``) with ``bit_generator.lock``
  held, in the order the pipeline draws.  ``permutation(n)`` is
  numpy's Fisher–Yates from the top with ``random_interval``;
  ``integers(m)`` is numpy's 32-bit Lemire draw and makes no draw for
  ``m == 1``.  Parts, cut and the generator's state after the call
  match the pipeline.  numpy does not promise this stream across
  versions: ``tests/test_native_kernels.py`` checks the C draws against
  ``Generator.permutation``/``integers`` directly.
* **Sums.** Every ``vertex_weights.sum()`` of the pipeline (the
  matching cap, the growing target, the FM limits) is numpy's pairwise
  sum: blocks of at most 128 with 8 accumulators, longer runs split at
  ``n/2`` rounded down to a multiple of 8.  Every other sum is
  sequential in the scalar scan order, which the vector engine's
  ``bincount``/``cumsum`` folds reproduce, and ``(1 + imbalance) *
  target_fraction * total`` keeps Python's left-to-right order.
* **Loops.** Python ``float`` arithmetic *is* C ``double`` arithmetic;
  the FM heap pops the multiset minimum ``(-gain, v)`` exactly as
  ``heapq`` does, and the growth scan picks ``max(frontier, key=(gain,
  -x))`` by scanning vertices in ascending order with a strict-greater
  test.  The separator's cover heap holds unique ``(-count, x)`` keys
  (a count only falls), so it pops what the twin's max-rescan picks.
* **Trees.** A node's target fraction is ``left_parts / span``, one
  correctly rounded division in both languages; a one-sided bisection
  splits at ``max(1, round(size * fraction))`` with Python's
  half-to-even rounding.
* **No draws before a decline.** :func:`partition_tree` and
  :func:`dissect_tree` decline (return ``None``, so the twin runs)
  only before their first draw: an unavailable kernel, weights that
  are not finite float64, or a graph too large for 32-bit
  draws.  Every node of a tree inherits the root's finite weights and
  size bound, so one check covers the tree.  Once the kernel has drawn,
  the generator has moved, so a failed allocation raises
  :class:`MemoryError` instead of falling back.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .core import NativeKernel

__all__ = [
    "KERNEL", "partition_tree", "dissect_tree", "refine", "grow_region",
    "hem_match", "coarse_map",
]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

/* A CSR graph; w == NULL means every edge weighs 1.0. */
typedef struct {
    const int64_t *indptr;
    const int64_t *indices;
    const double *w;
    int64_t n;
} csr_t;

static double edge_weight(const csr_t *g, int64_t k)
{
    return g->w ? g->w[k] : 1.0;
}

/* Total weight of edges crossing the bisection, summed in row order
   (repro.partition.initial.edge_cut). */
static double cut_of(const csr_t *g, const int64_t *part)
{
    double cut = 0.0;
    for (int64_t u = 0; u < g->n; u++) {
        int64_t pu = part[u];
        for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
            int64_t v = g->indices[k];
            if (v > u && part[v] != pu)
                cut += edge_weight(g, k);
        }
    }
    return cut;
}

/* numpy's pairwise float64 sum (np.sum on a contiguous array): blocks
   of at most 128 summed with 8 accumulators, larger runs split at n/2
   rounded down to a multiple of 8. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int64_t j = 0; j < 8; j++)
            r[j] = a[j];
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int64_t j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* ------------------------------------------------------------------
   Draws from the caller's numpy bit generator, in numpy's own order.
   ------------------------------------------------------------------ */
typedef uint32_t (*next_uint32_fn)(void *state);

typedef struct {
    next_uint32_fn next;
    void *state;
} draws_t;

/* numpy's random_interval for max < 2**32: uniform in [0, max] by
   masked rejection. */
static uint64_t draw_interval(const draws_t *d, uint64_t max)
{
    if (max == 0)
        return 0;
    uint64_t mask = max;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    uint64_t value;
    while ((value = (d->next(d->state) & mask)) > max)
        ;
    return value;
}

/* Generator.integers(m) for 1 <= m <= 2**32: numpy's 32-bit Lemire
   draw; m == 1 draws nothing. */
static int64_t draw_below(const draws_t *d, int64_t m)
{
    uint32_t rng = (uint32_t)(m - 1);
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return (int64_t)d->next(d->state);
    uint32_t rng_excl = rng + 1;
    uint64_t prod = (uint64_t)d->next(d->state) * rng_excl;
    uint32_t leftover = (uint32_t)prod;
    if (leftover < rng_excl) {
        uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            prod = (uint64_t)d->next(d->state) * rng_excl;
            leftover = (uint32_t)prod;
        }
    }
    return (int64_t)(prod >> 32);
}

/* Generator.permutation(n): Fisher-Yates from the top, j drawn with
   random_interval(i). */
static void draw_permutation(const draws_t *d, int64_t *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = i;
    for (int64_t i = n - 1; i >= 1; i--) {
        int64_t j = (int64_t)draw_interval(d, (uint64_t)i);
        int64_t t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}

/* ------------------------------------------------------------------
   FM refinement
   ------------------------------------------------------------------ */

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

/* Caller-owned FM scratch: gains, locked and moves hold n entries, the
   heap heap_cap >= n + num_edges + 1. */
typedef struct {
    double *gains;
    double *heap_g;
    int64_t *heap_v;
    int64_t heap_cap;
    uint8_t *locked;
    int64_t *moves;
} fm_scratch_t;

/* One FM pass (repro.partition.refine._one_pass): mutates part, the
   gains and part_weights; returns 1 when the cut improved, 0
   otherwise, -1 on heap overflow (cannot happen under the heap_cap
   bound). */
static int64_t fm_one_pass(const csr_t *g, int64_t *part,
                           const double *vertex_weights,
                           double *part_weights,     /* 2 */
                           const double *limits,     /* 2 */
                           int64_t max_negative_moves,
                           double start_cut,
                           const fm_scratch_t *s)
{
    double *gains = s->gains;
    int64_t heap_size = 0;
    for (int64_t v = 0; v < g->n; v++)
        heap_push(s->heap_g, s->heap_v, &heap_size, gains[v], v);

    int64_t num_moves = 0;
    double cut = start_cut;
    double best_cut = start_cut;
    int64_t best_prefix = 0;
    int64_t negatives = 0;

    while (heap_size > 0 && negatives <= max_negative_moves) {
        double gv;
        int64_t v;
        heap_pop(s->heap_g, s->heap_v, &heap_size, &gv, &v);
        if (s->locked[v] || gv != gains[v])
            continue; /* stale entry */
        int64_t src = part[v];
        int64_t dst = 1 - src;
        double vw = vertex_weights[v];
        if (part_weights[dst] + vw > limits[dst])
            continue; /* would unbalance; skip this vertex this pass */
        s->locked[v] = 1;
        part[v] = dst;
        part_weights[src] -= vw;
        part_weights[dst] += vw;
        cut -= gains[v];
        s->moves[num_moves++] = v;
        if (cut < best_cut - 1e-12) {
            best_cut = cut;
            best_prefix = num_moves;
            negatives = 0;
        } else {
            negatives++;
        }
        for (int64_t k = g->indptr[v]; k < g->indptr[v + 1]; k++) {
            int64_t u = g->indices[k];
            if (s->locked[u])
                continue;
            double w = edge_weight(g, k);
            if (part[u] == dst)
                gains[u] -= 2.0 * w;
            else
                gains[u] += 2.0 * w;
            if (heap_size >= s->heap_cap)
                return -1;
            heap_push(s->heap_g, s->heap_v, &heap_size, gains[u], u);
        }
    }
    for (int64_t i = best_prefix; i < num_moves; i++)
        part[s->moves[i]] = 1 - part[s->moves[i]];
    return best_cut < start_cut - 1e-12;
}

/* Full FM refinement (repro.partition.refine.fm_refine's pass loop):
   up to max_passes passes, recomputing gains, part weights and the
   starting cut before each pass in the scalar row order.  Mutates
   part; returns 1, or -1 on heap overflow. */
static int64_t refine_passes(const csr_t *g, int64_t *part,
                             const double *vertex_weights,
                             const double *limits,
                             int64_t max_negative_moves,
                             int64_t max_passes,
                             const fm_scratch_t *s)
{
    int64_t n = g->n;
    for (int64_t pass = 0; pass < max_passes; pass++) {
        for (int64_t u = 0; u < n; u++) {
            int64_t pu = part[u];
            double gu = 0.0;
            for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
                double w = edge_weight(g, k);
                if (part[g->indices[k]] == pu)
                    gu -= w;
                else
                    gu += w;
            }
            s->gains[u] = gu;
        }
        double part_weights[2] = {0.0, 0.0};
        for (int64_t v = 0; v < n; v++)
            part_weights[part[v]] += vertex_weights[v];
        double cut = cut_of(g, part);
        if (n > 0)  /* tells the compiler the cast below cannot wrap */
            memset(s->locked, 0, (size_t)n);
        int64_t improved = fm_one_pass(g, part, vertex_weights,
                                       part_weights, limits,
                                       max_negative_moves, cut, s);
        if (improved < 0)
            return -1;
        if (!improved)
            break;
    }
    return 1;
}

/* Greedy region growing (repro.partition.initial._grow_one_scalar):
   absorb the frontier vertex with the best accumulated gain (ties:
   lowest id) until grown >= target.  part is all ones on entry; the
   grown weight is returned. */
static double grow_from(const csr_t *g, const double *vertex_weights,
                        int64_t seed, double target, int64_t *part,
                        uint8_t *in_frontier, double *fgain)
{
    int64_t n = g->n;
    if (n > 0)
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
        for (int64_t k = g->indptr[v]; k < g->indptr[v + 1]; k++) {
            int64_t u = g->indices[k];
            if (part[u] == 0)
                continue;
            double w = edge_weight(g, k);
            if (in_frontier[u]) {
                fgain[u] += w;
            } else {
                in_frontier[u] = 1;
                fgain[u] = w;
                frontier_count++;
            }
        }
    }
    return grown;
}

/* Randomised heavy-edge matching (repro.partition.matching.
   heavy_edge_matching's scalar scan): visit vertices in visit_order,
   match each unmatched vertex with its unmatched neighbour of maximum
   edge weight (ties: lowest id), optionally subject to a combined
   vertex weight cap. */
static void hem(const csr_t *g, const int64_t *visit_order,
                const double *vertex_weights, int64_t constrained,
                double max_vertex_weight, int64_t *match)
{
    int64_t n = g->n;
    for (int64_t v = 0; v < n; v++)
        match[v] = -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t u = visit_order[i];
        if (match[u] != -1)
            continue;
        int64_t best = -1;
        double best_w = -1.0;
        for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
            int64_t v = g->indices[k];
            if (v == u || match[v] != -1)
                continue;
            if (constrained &&
                vertex_weights[u] + vertex_weights[v] > max_vertex_weight)
                continue;
            double w = edge_weight(g, k);
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

/* Matching -> fine-to-coarse map: coarse ids in ascending order of the
   pair's lower fine id.  Returns the coarse count. */
static int64_t coarse_ids(const int64_t *match, int64_t n,
                          int64_t *coarse_of)
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

/* ------------------------------------------------------------------
   Exported per-piece kernels (one library call per piece)
   ------------------------------------------------------------------ */
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
                  double *heap_g,
                  int64_t *heap_v,
                  int64_t heap_cap,
                  uint8_t *locked,          /* n scratch */
                  int64_t *moves)           /* n scratch */
{
    csr_t g = {indptr, indices, has_edge_w ? edge_w : NULL, n};
    fm_scratch_t s = {gains, heap_g, heap_v, heap_cap, locked, moves};
    return refine_passes(&g, part, vertex_weights, limits,
                         max_negative_moves, max_passes, &s);
}

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
    csr_t g = {indptr, indices, has_edge_w ? edge_w : NULL, n};
    *grown_out = grow_from(&g, vertex_weights, seed, target, part,
                           in_frontier, fgain);
}

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
    csr_t g = {indptr, indices, has_edge_w ? edge_w : NULL, n};
    hem(&g, visit_order, vertex_weights, constrained, max_vertex_weight,
        match);
}

int64_t coarse_map_from_matching(const int64_t *match,
                                 int64_t n,
                                 int64_t *coarse_of) /* n out */
{
    return coarse_ids(match, n, coarse_of);
}

/* Test hooks for the draw and sum helpers. */
void draw_permutation_into(next_uint32_fn next, void *state, int64_t n,
                           int64_t *out)
{
    draws_t d = {next, state};
    draw_permutation(&d, out, n);
}

void draw_integers_into(next_uint32_fn next, void *state, int64_t m,
                        int64_t count, int64_t *out)
{
    draws_t d = {next, state};
    for (int64_t i = 0; i < count; i++)
        out[i] = draw_below(&d, m);
}

double pairwise_sum_f64(const double *a, int64_t n)
{
    return pairwise_sum(a, n);
}

/* ------------------------------------------------------------------
   One whole multilevel bisection (repro.partition.multilevel.
   _bisect_python)
   ------------------------------------------------------------------ */

/* One coarsening level; level 0 is the caller's graph. */
typedef struct {
    csr_t g;
    const double *vw;
    const int64_t *map;   /* previous level's vertex -> this level's */
    void *block;          /* owns every array of a coarse level */
} level_t;

/* Contraction scratch, every array sized for the finest level's
   directed edge count (no level has more upper-triangle entries). */
typedef struct {
    int64_t *t_lo;
    int64_t *t_hi;
    double *t_w;
    int64_t *perm_a;
    int64_t *perm_b;
    int64_t *p_hi;
    double *p_w;
    int64_t *counts;      /* n + 1 */
} contract_scratch_t;

/* First half of repro.partition.coarsen.contract_by_labels: the
   distinct coarse pairs (lo < hi) sorted by (lo, hi), each weight
   summed over its fine edges in fine scan order (u ascending, row
   order; entries with v < u and intra-class edges skipped).  The pairs
   land in perm_a (lo), p_hi and p_w; returns their count. */
static int64_t contract_pairs(const csr_t *g, const int64_t *cmap,
                              int64_t nc, const contract_scratch_t *s)
{
    int64_t t = 0;
    for (int64_t u = 0; u < g->n; u++) {
        int64_t cu = cmap[u];
        for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
            int64_t v = g->indices[k];
            if (v < u)
                continue;
            int64_t cv = cmap[v];
            if (cu == cv)
                continue;
            s->t_lo[t] = cu < cv ? cu : cv;
            s->t_hi[t] = cu < cv ? cv : cu;
            s->t_w[t] = edge_weight(g, k);
            t++;
        }
    }
    /* stable LSD counting sort: by hi into perm_b, then by lo into
       perm_a */
    memset(s->counts, 0, (size_t)(nc + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < t; i++)
        s->counts[s->t_hi[i] + 1]++;
    for (int64_t c = 0; c < nc; c++)
        s->counts[c + 1] += s->counts[c];
    for (int64_t i = 0; i < t; i++) {
        int64_t pos = s->counts[s->t_hi[i]];
        s->counts[s->t_hi[i]] = pos + 1;
        s->perm_b[pos] = i;
    }
    memset(s->counts, 0, (size_t)(nc + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < t; i++)
        s->counts[s->t_lo[i] + 1]++;
    for (int64_t c = 0; c < nc; c++)
        s->counts[c + 1] += s->counts[c];
    for (int64_t i = 0; i < t; i++) {
        int64_t e = s->perm_b[i];
        int64_t pos = s->counts[s->t_lo[e]];
        s->counts[s->t_lo[e]] = pos + 1;
        s->perm_a[pos] = e;
    }
    /* merge runs of equal pairs; perm_a is rewritten in place with the
       pair's lo, never ahead of the run being read */
    int64_t num_pairs = 0;
    int64_t i = 0;
    while (i < t) {
        int64_t e = s->perm_a[i];
        int64_t lo = s->t_lo[e];
        int64_t hi = s->t_hi[e];
        double acc = 0.0;
        while (i < t && s->t_lo[s->perm_a[i]] == lo &&
               s->t_hi[s->perm_a[i]] == hi) {
            acc += s->t_w[s->perm_a[i]];
            i++;
        }
        s->perm_a[num_pairs] = lo;
        s->p_hi[num_pairs] = hi;
        s->p_w[num_pairs] = acc;
        num_pairs++;
    }
    return num_pairs;
}

/* Second half: the coarse CSR (rows sorted by neighbour id, as
   GraphBuilder.build leaves them), coarse vertex weights summed in fine
   vertex order, and a copy of the fine-to-coarse map, all carved from
   out->block. */
static void contract_emit(const csr_t *fine, const double *fine_vw,
                          const int64_t *cmap, int64_t nc,
                          int64_t num_pairs,
                          const contract_scratch_t *s, level_t *out)
{
    int64_t *indptr = (int64_t *)out->block;
    int64_t *indices = indptr + nc + 1;
    int64_t *map = indices + 2 * num_pairs;
    double *w = (double *)(map + fine->n);
    double *vw = w + 2 * num_pairs;

    for (int64_t c = 0; c < nc; c++)
        vw[c] = 0.0;
    for (int64_t v = 0; v < fine->n; v++)
        vw[cmap[v]] += fine_vw[v];
    memcpy(map, cmap, (size_t)fine->n * sizeof(int64_t));

    for (int64_t c = 0; c <= nc; c++)
        indptr[c] = 0;
    for (int64_t p = 0; p < num_pairs; p++) {
        indptr[s->perm_a[p] + 1]++;
        indptr[s->p_hi[p] + 1]++;
    }
    for (int64_t c = 0; c < nc; c++)
        indptr[c + 1] += indptr[c];
    int64_t *cursor = s->counts;
    memcpy(cursor, indptr, (size_t)nc * sizeof(int64_t));
    /* lower neighbours first (pairs arrive by ascending lo), then the
       upper ones (by ascending hi): every row comes out sorted */
    for (int64_t p = 0; p < num_pairs; p++) {
        int64_t row = s->p_hi[p];
        int64_t pos = cursor[row];
        cursor[row] = pos + 1;
        indices[pos] = s->perm_a[p];
        w[pos] = s->p_w[p];
    }
    for (int64_t p = 0; p < num_pairs; p++) {
        int64_t row = s->perm_a[p];
        int64_t pos = cursor[row];
        cursor[row] = pos + 1;
        indices[pos] = s->p_hi[p];
        w[pos] = s->p_w[p];
    }
    out->g.indptr = indptr;
    out->g.indices = indices;
    out->g.w = w;
    out->g.n = nc;
    out->vw = vw;
    out->map = map;
}

/* One greedy-growing trial (repro.partition.initial._grow_one): a
   drawn seed, the grown region, the degenerate fix-up and the
   disconnected top-up, which draws from the ascending list of part-1
   vertices. */
static void grow_trial(const csr_t *g, const double *vw, const draws_t *d,
                       double target, int64_t *part, uint8_t *in_frontier,
                       double *fgain, int64_t *remaining)
{
    int64_t n = g->n;
    for (int64_t v = 0; v < n; v++)
        part[v] = 1;
    int64_t seed = draw_below(d, n);
    double grown = grow_from(g, vw, seed, target, part, in_frontier,
                             fgain);
    int64_t any_zero = 0;
    for (int64_t v = 0; v < n && !any_zero; v++)
        any_zero = part[v] == 0;
    if (!any_zero || grown == 0.0)
        part[seed] = 0;
    if (!(grown < target))
        return;
    int64_t left = 0;
    for (int64_t v = 0; v < n; v++)
        if (part[v] == 1)
            remaining[left++] = v;
    while (grown < target) {
        if (left <= 1)
            break;
        int64_t j = draw_below(d, left);
        int64_t v = remaining[j];
        part[v] = 0;
        grown += vw[v];
        memmove(remaining + j, remaining + j + 1,
                (size_t)(left - j - 1) * sizeof(int64_t));
        left--;
    }
}

/* FM-refine one level against the (1 + imbalance) * target limits,
   the total weight summed as np.sum does. */
static int64_t refine_level(const csr_t *g, int64_t *part, const double *vw,
                            double target_fraction, double imbalance,
                            int64_t max_negative_moves, int64_t max_passes,
                            const fm_scratch_t *s)
{
    double total = pairwise_sum(vw, g->n);
    double limits[2] = {
        (1.0 + imbalance) * target_fraction * total,
        (1.0 + imbalance) * (1.0 - target_fraction) * total,
    };
    return refine_passes(g, part, vw, limits, max_negative_moves,
                         max_passes, s);
}

/* The whole multilevel bisection: coarsen by heavy-edge matching on
   drawn visit orders until coarsest_size or a 0.95 stall, keep the
   best cut of `trials` greedy-growing tries (a strictly lower cut
   wins), FM-refine it, then project and refine at every level.  Writes
   part and the final edge cut; returns 0, -1 when memory ran out, -2
   when a cannot-happen bound was hit (heap or level capacity) or no
   trial produced a comparable cut.  Every draw comes from d in the
   order the Python pipeline draws; n < 2 draws nothing. */
static int64_t bisect_csr(const csr_t *g0,
                          const double *vertex_weights,
                          double target_fraction,
                          double imbalance,
                          int64_t trials,
                          int64_t coarsest_size,
                          int64_t max_negative_moves,
                          int64_t max_passes,
                          const draws_t *d,
                          int64_t *part_out,        /* n out */
                          double *cut_out)
{
    int64_t n = g0->n;
    if (n < 2) {
        for (int64_t v = 0; v < n; v++)
            part_out[v] = 0;
        *cut_out = 0.0;
        return 0;
    }
    int64_t m = g0->indptr[n];
    /* every stored level has fewer than 0.95x its parent's vertices,
       so this bounds the ladder (plus slack for rounding) */
    int64_t max_levels = 2;
    for (double x = (double)n; x > (double)coarsest_size; x *= 0.95)
        max_levels++;
    int64_t heap_cap = n + 2 * m + 1;
    size_t n8 = (size_t)n * 8;
    size_t m8 = (size_t)(m > 0 ? m : 1) * 8;
    size_t bytes = 11 * n8 + 8                  /* 11 n-arrays, counts n+1 */
                   + (size_t)heap_cap * 16      /* heap */
                   + 7 * m8                     /* contraction */
                   + 2 * (size_t)n;             /* two u8 n-arrays */
    int64_t status = -1;
    int64_t nlev = 0;
    level_t *levels = calloc((size_t)max_levels, sizeof(level_t));
    unsigned char *scratch = malloc(bytes);
    if (!levels || !scratch)
        goto done;

    int64_t *visit = (int64_t *)scratch;
    int64_t *match = visit + n;
    int64_t *cmap = match + n;
    int64_t *part = cmap + n;
    int64_t *fine_part = part + n;
    int64_t *best = fine_part + n;
    int64_t *remaining = best + n;
    int64_t *moves = remaining + n;
    int64_t *counts = moves + n;          /* n + 1 */
    int64_t *heap_v = counts + n + 1;
    int64_t *t_lo = heap_v + heap_cap;
    int64_t *t_hi = t_lo + m8 / 8;
    int64_t *perm_a = t_hi + m8 / 8;
    int64_t *perm_b = perm_a + m8 / 8;
    int64_t *p_hi = perm_b + m8 / 8;
    double *gains = (double *)(p_hi + m8 / 8);
    double *heap_g = gains + n;
    double *t_w = heap_g + heap_cap;
    double *p_w = t_w + m8 / 8;
    double *fgain = p_w + m8 / 8;
    uint8_t *locked = (uint8_t *)(fgain + n);
    uint8_t *in_frontier = locked + n;

    fm_scratch_t fm = {gains, heap_g, heap_v, heap_cap, locked, moves};
    contract_scratch_t cs = {t_lo, t_hi, t_w, perm_a, perm_b, p_hi, p_w,
                             counts};

    levels[0].g = *g0;
    levels[0].vw = vertex_weights;

    /* coarsening (repro.partition.multilevel._coarsening_hierarchy) */
    double max_vw = pairwise_sum(vertex_weights, n) / (double)coarsest_size;
    if (!(max_vw > 1.0))
        max_vw = 1.0;
    while (levels[nlev].g.n > coarsest_size) {
        const csr_t *cur = &levels[nlev].g;
        draw_permutation(d, visit, cur->n);
        hem(cur, visit, levels[nlev].vw, 1, max_vw, match);
        int64_t nc = coarse_ids(match, cur->n, cmap);
        if ((double)nc >= (double)cur->n * 0.95)
            break; /* matching stalled */
        if (nlev + 1 >= max_levels) {
            status = -2;
            goto done;
        }
        int64_t num_pairs = contract_pairs(cur, cmap, nc, &cs);
        size_t level_bytes = ((size_t)(nc + 1) + 4 * (size_t)num_pairs +
                              (size_t)cur->n + (size_t)nc) * 8;
        levels[nlev + 1].block = malloc(level_bytes);
        if (!levels[nlev + 1].block)
            goto done;
        contract_emit(cur, levels[nlev].vw, cmap, nc, num_pairs, &cs,
                      &levels[nlev + 1]);
        nlev++;
    }

    /* greedy growing on the coarsest graph, best of `trials` */
    const csr_t *coarsest = &levels[nlev].g;
    const double *cvw = levels[nlev].vw;
    double target = target_fraction * pairwise_sum(cvw, coarsest->n);
    double best_cut = INFINITY;
    int64_t have_best = 0;
    for (int64_t t = 0; t < (trials > 1 ? trials : 1); t++) {
        grow_trial(coarsest, cvw, d, target, part, in_frontier, fgain,
                   remaining);
        double cut = cut_of(coarsest, part);
        if (cut < best_cut) {
            best_cut = cut;
            have_best = 1;
            memcpy(best, part, (size_t)coarsest->n * sizeof(int64_t));
        }
    }
    if (!have_best) {
        status = -2;
        goto done;
    }

    /* refine the coarsest, then project and refine every finer level */
    if (refine_level(coarsest, best, cvw, target_fraction, imbalance,
                     max_negative_moves, max_passes, &fm) < 0) {
        status = -2;
        goto done;
    }
    int64_t *cur_part = best;
    for (int64_t lvl = nlev; lvl >= 1; lvl--) {
        const level_t *fine = &levels[lvl - 1];
        int64_t *out = cur_part == part ? fine_part : part;
        for (int64_t v = 0; v < fine->g.n; v++)
            out[v] = cur_part[levels[lvl].map[v]];
        cur_part = out;
        if (refine_level(&fine->g, cur_part, fine->vw, target_fraction,
                         imbalance, max_negative_moves, max_passes,
                         &fm) < 0) {
            status = -2;
            goto done;
        }
    }
    memcpy(part_out, cur_part, n8);
    *cut_out = cut_of(&levels[0].g, cur_part);
    status = 0;

done:
    for (int64_t i = 1; levels && i <= nlev + 1 && i < max_levels; i++) {
        void *block = levels[i].block;
        free(block);
    }
    free(scratch);
    free(levels);
    return status;
}

/* ------------------------------------------------------------------
   Whole recursion trees (repro.partition.multilevel.partition_graph's
   recursion and repro.ordering.nested_dissection's dissect)
   ------------------------------------------------------------------ */

/* A pending tree node: its vertices are slots [lo, hi) of the tree's
   work array, ascending; a and b are the part range (k-way), a alone
   the depth (dissection). */
typedef struct {
    int64_t lo;
    int64_t hi;
    int64_t a;
    int64_t b;
} node_t;

/* One node subgraph at a time, every array sized for the root: a row
   filter never grows a graph. */
typedef struct {
    int64_t *local_of;    /* root n; -1 outside the current node */
    int64_t *indptr;      /* root n + 1 */
    int64_t *indices;     /* root nnz */
    double *w;            /* root nnz; unused for an unweighted root */
} induce_scratch_t;

/* The subgraph of the canonical root induced by the ascending vertex
   list verts[0, size): each root row filtered through local_of.  Local
   ids ascend with the global ones, so every filtered row is already
   sorted, unique and free of self-loops -- the CSR GraphBuilder.build
   makes of the same induced edges. */
static void induce(const csr_t *root, const int64_t *verts, int64_t size,
                   const induce_scratch_t *s, csr_t *out)
{
    for (int64_t i = 0; i < size; i++)
        s->local_of[verts[i]] = i;
    int64_t t = 0;
    s->indptr[0] = 0;
    for (int64_t i = 0; i < size; i++) {
        int64_t v = verts[i];
        for (int64_t k = root->indptr[v]; k < root->indptr[v + 1]; k++) {
            int64_t j = s->local_of[root->indices[k]];
            if (j < 0 || j == i)
                continue;
            s->indices[t] = j;
            if (root->w)
                s->w[t] = root->w[k];
            t++;
        }
        s->indptr[i + 1] = t;
    }
    for (int64_t i = 0; i < size; i++)
        s->local_of[verts[i]] = -1;
    out->indptr = s->indptr;
    out->indices = s->indices;
    out->w = root->w ? s->w : NULL;
    out->n = size;
}

/* Reorder verts[0, size) stably by label: every label-0 vertex, then
   label 1, then label 2, each run keeping its ascending order.  counts
   holds the three label counts. */
static void stable_split(int64_t *verts, int64_t size, const int64_t *label,
                         const int64_t *counts, int64_t *tmp)
{
    int64_t start[3] = {0, counts[0], counts[0] + counts[1]};
    for (int64_t i = 0; i < size; i++) {
        int64_t pos = start[label[i]];
        start[label[i]] = pos + 1;
        tmp[pos] = verts[i];
    }
    memcpy(verts, tmp, (size_t)size * sizeof(int64_t));
}

/* Python's round(x) for 0 <= x < 2**53: the nearest integer, ties to
   even (nearbyint under the default rounding mode, without libm).
   x - trunc(x) is exact in this range. */
static int64_t round_half_even(double x)
{
    int64_t r = (int64_t)x;
    double frac = x - (double)r;
    if (frac > 0.5 || (frac == 0.5 && (r & 1)))
        r++;
    return r;
}

/* Recursive-bisection k-way partition of the canonical root: nodes
   depth-first, left subtree first, each bisected by bisect_csr towards
   left_parts / span of its weight.  A one-sided bisection splits the
   node at max(1, round(size * fraction)), rounding half to even as
   Python's round does.  Writes the part of every vertex; returns 0, -1 when memory ran out,
   -2 on a cannot-happen bound. */
int64_t partition_tree(const int64_t *indptr,
                       const int64_t *indices,
                       const double *edge_w,
                       int64_t has_edge_w,
                       int64_t n,
                       const double *vertex_weights,
                       int64_t num_parts,
                       double imbalance,
                       int64_t trials,
                       int64_t coarsest_size,
                       int64_t max_negative_moves,
                       int64_t max_passes,
                       next_uint32_fn next,
                       void *state,
                       int64_t *assignment)      /* n out */
{
    csr_t root = {indptr, indices, has_edge_w ? edge_w : NULL, n};
    draws_t d = {next, state};
    int64_t m = indptr[n];
    /* every child is a proper, non-empty subset of its node, so the
       depth and the pending stack stay below n + 1 */
    int64_t stack_cap = n + 1;
    size_t n8 = (size_t)n * 8;
    size_t bytes = 6 * n8 + 8 + 2 * (size_t)(m > 0 ? m : 1) * 8
                   + (size_t)stack_cap * sizeof(node_t);
    unsigned char *block = malloc(bytes);
    if (!block)
        return -1;
    int64_t *order = (int64_t *)block;
    int64_t *part = order + n;
    int64_t *tmp = part + n;
    int64_t *local_of = tmp + n;
    int64_t *sub_indptr = local_of + n;          /* n + 1 */
    int64_t *sub_indices = sub_indptr + n + 1;
    double *sub_w = (double *)(sub_indices + (m > 0 ? m : 1));
    double *sub_vw = sub_w + (m > 0 ? m : 1);
    node_t *stack = (node_t *)(sub_vw + n);
    induce_scratch_t is = {local_of, sub_indptr, sub_indices, sub_w};

    for (int64_t v = 0; v < n; v++) {
        order[v] = v;
        local_of[v] = -1;
    }
    int64_t status = 0;
    int64_t top = 0;
    stack[top++] = (node_t){0, n, 0, num_parts};
    while (top > 0) {
        node_t node = stack[--top];
        int64_t *verts = order + node.lo;
        int64_t size = node.hi - node.lo;
        int64_t span = node.b - node.a;
        if (span == 1 || size <= 1) {
            for (int64_t i = 0; i < size; i++)
                assignment[verts[i]] = node.a;
            continue;
        }
        int64_t left_parts = span / 2;
        double fraction = (double)left_parts / (double)span;
        csr_t sub;
        induce(&root, verts, size, &is, &sub);
        for (int64_t i = 0; i < size; i++)
            sub_vw[i] = vertex_weights[verts[i]];
        double cut;
        status = bisect_csr(&sub, sub_vw, fraction, imbalance, trials,
                            coarsest_size, max_negative_moves, max_passes,
                            &d, part, &cut);
        if (status != 0)
            break;
        int64_t counts[3] = {0, 0, 0};
        for (int64_t i = 0; i < size; i++)
            counts[part[i]]++;
        int64_t half = counts[0];
        if (counts[0] == 0 || counts[1] == 0) {
            /* degenerate bisection: split the ascending list */
            half = round_half_even((double)size * fraction);
            if (half < 1)
                half = 1;
        } else {
            stable_split(verts, size, part, counts, tmp);
        }
        if (top + 2 > stack_cap) {
            status = -2;
            break;
        }
        stack[top++] = (node_t){node.lo + half, node.hi,
                                node.a + left_parts, node.b};
        stack[top++] = (node_t){node.lo, node.lo + half,
                                node.a, node.a + left_parts};
    }
    free(block);
    return status;
}

/* Caller-owned scratch of greedy_cover, sized for the root. */
typedef struct {
    int64_t *count;       /* n: uncovered cut edges per vertex */
    int64_t *inc_ptr;     /* n + 1 */
    int64_t *cursor;      /* n */
    int64_t *inc_edge;    /* 2 nnz: two incidences per cut edge */
    int64_t *cut_u;       /* nnz */
    int64_t *cut_v;       /* nnz */
    uint8_t *covered;     /* nnz */
    double *heap_g;       /* heap_cap */
    int64_t *heap_v;      /* heap_cap */
    int64_t heap_cap;     /* >= n + nnz + 1 */
} cover_scratch_t;

/* The greedy vertex cover of the bisection's cut edges
   (repro.partition.separator._greedy_cover_scalar): pop (-count, x)
   from a lazy max-heap, skip stale entries, take x and decrement the
   other end of every edge it newly covers.  A vertex's count only
   falls, so every key in the heap is unique and any correct heap pops
   the sequence of the twin's max-rescan (most uncovered edges, lower
   id on a tie).  Marks in_sep; returns 0, or -1 on heap overflow
   (cannot happen under the heap_cap bound). */
static int64_t greedy_cover(const csr_t *g, const int64_t *part,
                            uint8_t *in_sep, const cover_scratch_t *s)
{
    int64_t n = g->n;
    for (int64_t x = 0; x < n; x++) {
        s->count[x] = 0;
        in_sep[x] = 0;
    }
    int64_t m_cut = 0;
    for (int64_t u = 0; u < n; u++) {
        for (int64_t k = g->indptr[u]; k < g->indptr[u + 1]; k++) {
            int64_t v = g->indices[k];
            if (v > u && part[u] != part[v]) {
                s->cut_u[m_cut] = u;
                s->cut_v[m_cut] = v;
                s->covered[m_cut] = 0;
                m_cut++;
                s->count[u]++;
                s->count[v]++;
            }
        }
    }
    s->inc_ptr[0] = 0;
    for (int64_t x = 0; x < n; x++) {
        s->inc_ptr[x + 1] = s->inc_ptr[x] + s->count[x];
        s->cursor[x] = s->inc_ptr[x];
    }
    for (int64_t e = 0; e < m_cut; e++) {
        int64_t pu = s->cursor[s->cut_u[e]];
        s->cursor[s->cut_u[e]] = pu + 1;
        s->inc_edge[pu] = e;
        int64_t pv = s->cursor[s->cut_v[e]];
        s->cursor[s->cut_v[e]] = pv + 1;
        s->inc_edge[pv] = e;
    }
    int64_t heap_size = 0;
    for (int64_t x = 0; x < n; x++)
        if (s->count[x] > 0)
            heap_push(s->heap_g, s->heap_v, &heap_size,
                      (double)s->count[x], x);
    int64_t remaining = m_cut;
    while (remaining > 0 && heap_size > 0) {
        double c;
        int64_t x;
        heap_pop(s->heap_g, s->heap_v, &heap_size, &c, &x);
        if (in_sep[x] || c != (double)s->count[x])
            continue; /* stale entry */
        in_sep[x] = 1;
        for (int64_t k = s->inc_ptr[x]; k < s->inc_ptr[x + 1]; k++) {
            int64_t e = s->inc_edge[k];
            if (s->covered[e])
                continue;
            s->covered[e] = 1;
            remaining--;
            int64_t other = s->cut_u[e] == x ? s->cut_v[e] : s->cut_u[e];
            if (in_sep[other])
                continue;
            s->count[other]--;
            if (heap_size >= s->heap_cap)
                return -1;
            heap_push(s->heap_g, s->heap_v, &heap_size,
                      (double)s->count[other], other);
        }
    }
    return 0;
}

/* Nested dissection of the canonical unweighted root: nodes depth-first,
   left subtree first.  A node of more than leaf_size vertices counts
   the original graph's degrees of its vertices, is bisected by
   bisect_csr (unit vertex weights), and splits into left, right and a
   greedy-cover separator; the node's slice of sequence becomes left ++
   right ++ separator and the two sides recurse.  Leaves, and nodes
   whose separator leaves a side empty, keep their ascending slice.
   Writes the elimination sequence, stats[0] = the deepest node's depth
   and stats[1] = the edge operations; returns 0, -1 when memory ran
   out, -2 on a cannot-happen bound. */
int64_t dissect_tree(const int64_t *indptr,
                     const int64_t *indices,
                     int64_t n,
                     const int64_t *degrees,
                     int64_t leaf_size,
                     double target_fraction,
                     double imbalance,
                     int64_t trials,
                     int64_t coarsest_size,
                     int64_t max_negative_moves,
                     int64_t max_passes,
                     next_uint32_fn next,
                     void *state,
                     int64_t *sequence,        /* n out */
                     int64_t *stats)           /* 2 out */
{
    csr_t root = {indptr, indices, NULL, n};
    draws_t d = {next, state};
    int64_t m = indptr[n];
    int64_t m1 = m > 0 ? m : 1;
    int64_t stack_cap = n + 1;
    int64_t heap_cap = n + m1 + 1;
    size_t n8 = (size_t)n * 8;
    size_t bytes = 8 * n8 + 16                     /* n-arrays, two n + 1 */
                   + 5 * (size_t)m1 * 8            /* nnz arrays */
                   + (size_t)heap_cap * 16         /* heap */
                   + (size_t)stack_cap * sizeof(node_t)
                   + (size_t)n + (size_t)m1;       /* in_sep, covered */
    unsigned char *block = malloc(bytes);
    if (!block)
        return -1;
    node_t *stack = (node_t *)block;
    int64_t *part = (int64_t *)(stack + stack_cap);
    int64_t *tmp = part + n;
    int64_t *local_of = tmp + n;
    int64_t *sub_indptr = local_of + n;          /* n + 1 */
    int64_t *sub_indices = sub_indptr + n + 1;
    int64_t *count = sub_indices + m1;
    int64_t *inc_ptr = count + n;                /* n + 1 */
    int64_t *cursor = inc_ptr + n + 1;
    int64_t *inc_edge = cursor + n;
    int64_t *cut_u = inc_edge + 2 * m1;
    int64_t *cut_v = cut_u + m1;
    int64_t *heap_v = cut_v + m1;
    double *heap_g = (double *)(heap_v + heap_cap);
    double *ones = heap_g + heap_cap;
    uint8_t *in_sep = (uint8_t *)(ones + n);
    uint8_t *covered = in_sep + n;
    induce_scratch_t is = {local_of, sub_indptr, sub_indices, NULL};
    cover_scratch_t cs = {count, inc_ptr, cursor, inc_edge, cut_u, cut_v,
                          covered, heap_g, heap_v, heap_cap};

    for (int64_t v = 0; v < n; v++) {
        sequence[v] = v;
        local_of[v] = -1;
        ones[v] = 1.0;
    }
    int64_t status = 0;
    int64_t max_depth = 0;
    int64_t edge_ops = 0;
    int64_t top = 0;
    stack[top++] = (node_t){0, n, 0, 0};
    while (top > 0) {
        node_t node = stack[--top];
        int64_t *verts = sequence + node.lo;
        int64_t size = node.hi - node.lo;
        if (node.a > max_depth)
            max_depth = node.a;
        if (size <= leaf_size)
            continue;
        for (int64_t i = 0; i < size; i++)
            edge_ops += degrees[verts[i]];
        csr_t sub;
        induce(&root, verts, size, &is, &sub);
        double cut;
        status = bisect_csr(&sub, ones, target_fraction, imbalance, trials,
                            coarsest_size, max_negative_moves, max_passes,
                            &d, part, &cut);
        if (status != 0)
            break;
        if (greedy_cover(&sub, part, in_sep, &cs) < 0) {
            status = -2;
            break;
        }
        int64_t counts[3] = {0, 0, 0};
        for (int64_t i = 0; i < size; i++) {
            if (in_sep[i])
                part[i] = 2;
            counts[part[i]]++;
        }
        if (counts[0] == 0 || counts[1] == 0)
            continue; /* the separator did not split the node */
        stable_split(verts, size, part, counts, tmp);
        if (top + 2 > stack_cap) {
            status = -2;
            break;
        }
        int64_t mid = node.lo + counts[0];
        stack[top++] = (node_t){mid, mid + counts[1], node.a + 1, 0};
        stack[top++] = (node_t){node.lo, mid, node.a + 1, 0};
    }
    stats[0] = max_depth;
    stats[1] = edge_ops;
    free(block);
    return status;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)
#: numpy's ``bitgen_t.next_uint32``, as ``bit_generator.ctypes`` hands it out.
_NEXT_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)

KERNEL = NativeKernel(
    "partition_fm",
    _SOURCE,
    symbols={
        "partition_tree": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # edge_w
                ctypes.c_int64,  # has_edge_w
                ctypes.c_int64,  # n
                _P_F64,  # vertex_weights
                ctypes.c_int64,  # num_parts
                ctypes.c_double,  # imbalance
                ctypes.c_int64,  # trials
                ctypes.c_int64,  # coarsest_size
                ctypes.c_int64,  # max_negative_moves
                ctypes.c_int64,  # max_passes
                _NEXT_U32,  # next
                ctypes.c_void_p,  # state
                _P_I64,  # assignment
            ],
            ctypes.c_int64,
        ),
        "dissect_tree": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                ctypes.c_int64,  # n
                _P_I64,  # degrees
                ctypes.c_int64,  # leaf_size
                ctypes.c_double,  # target_fraction
                ctypes.c_double,  # imbalance
                ctypes.c_int64,  # trials
                ctypes.c_int64,  # coarsest_size
                ctypes.c_int64,  # max_negative_moves
                ctypes.c_int64,  # max_passes
                _NEXT_U32,  # next
                ctypes.c_void_p,  # state
                _P_I64,  # sequence
                _P_I64,  # stats
            ],
            ctypes.c_int64,
        ),
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
        "draw_permutation_into": (
            [_NEXT_U32, ctypes.c_void_p, ctypes.c_int64, _P_I64],
            None,
        ),
        "draw_integers_into": (
            [
                _NEXT_U32, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
                _P_I64,
            ],
            None,
        ),
        "pairwise_sum_f64": ([_P_F64, ctypes.c_int64], ctypes.c_double),
    },
    scalar_twin="repro.partition.multilevel:_bisect_python",
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

#: the largest vertex count whose draws stay within numpy's 32-bit paths.
_MAX_DRAW_N = 1 << 32


def _kernel_for(
    n: int, vertex_weights: np.ndarray | None, edge_w: np.ndarray | None
) -> ctypes.CDLL | None:
    """The library when the kernel may run on these arrays, else None.

    Every decline happens here, before the first draw: weights that are
    not finite float64 (the twin's float paths differ there), a graph
    too large for 32-bit draws, or a kernel that is unavailable.
    ``vertex_weights`` None means unit weights.
    """
    if (
        n >= _MAX_DRAW_N
        or (
            vertex_weights is not None
            and (
                vertex_weights.dtype != np.float64
                or not np.isfinite(vertex_weights).all()
            )
        )
        or (edge_w is not None and not np.isfinite(edge_w).all())
    ):
        return None
    lib = KERNEL.lib()
    if lib is None:
        return None
    return lib


@contextmanager
def _drawing_from(rng: np.random.Generator) -> Iterator[tuple]:
    """``(next_uint32, state_address)`` of ``rng``, its lock held."""
    bit_generator = rng.bit_generator
    iface = bit_generator.ctypes
    with bit_generator.lock:
        yield iface.next_uint32, iface.state_address


def _check_status(name: str, status: int, n: int) -> None:
    """Raise on a failed kernel call.

    The kernel has drawn by the time it fails, so there is no fallback:
    status -1 raises :class:`MemoryError`, any other failure
    :class:`RuntimeError`.
    """
    if status == -1:
        raise MemoryError(f"{name}: out of memory on {n} vertices")
    if status != 0:
        raise RuntimeError(f"{name} failed with status {status}")


def partition_tree(
    indptr: np.ndarray,
    indices: np.ndarray,
    edge_w: np.ndarray | None,
    vertex_weights: np.ndarray,
    rng: np.random.Generator,
    *,
    num_parts: int,
    imbalance: float,
    trials: int,
    coarsest_size: int,
    max_negative_moves: int,
    max_passes: int,
) -> np.ndarray | None:
    """The whole recursive-bisection k-way partition in C; None when declined.

    The graph must be canonical (sorted, merged rows without self-loops,
    as :class:`~repro.graph.builder.GraphBuilder` builds them) so that
    every node's subgraph is a row filter of it.  Returns the part of
    every vertex, drawing from ``rng`` exactly as the recursion in
    :func:`repro.partition.multilevel.partition_graph` does.  Declines
    and failures as in the module docstring.
    """
    n = indptr.size - 1
    if vertex_weights.shape != (n,):
        raise ValueError("partition_tree: one vertex weight per vertex")
    lib = _kernel_for(n, vertex_weights, edge_w)
    if lib is None:
        return None
    vw = np.ascontiguousarray(vertex_weights)
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    has_w = edge_w is not None
    weights = np.ascontiguousarray(edge_w) if has_w else _EMPTY_F64
    assignment = np.empty(n, dtype=np.int64)
    with _drawing_from(rng) as (next_u32, state):
        status = lib.partition_tree(
            _i64(indptr), _i64(indices), _f64(weights), int(has_w), n,
            _f64(vw), int(num_parts), float(imbalance), int(trials),
            int(coarsest_size), int(max_negative_moves), int(max_passes),
            next_u32, state, _i64(assignment),
        )
    _check_status("partition_tree", status, n)
    return assignment


def dissect_tree(
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
    rng: np.random.Generator,
    *,
    leaf_size: int,
    target_fraction: float,
    imbalance: float,
    trials: int,
    coarsest_size: int,
    max_negative_moves: int,
    max_passes: int,
) -> tuple[np.ndarray, int, int] | None:
    """The whole nested dissection in C; None when declined.

    The unweighted graph must be canonical, as for
    :func:`partition_tree`; ``degrees`` are the degrees the edge
    operations count (the original graph's, one per vertex).  Returns
    ``(sequence, max_depth, edge_ops)``, drawing from ``rng`` exactly
    as :class:`repro.ordering.nested_dissection.NestedDissectionOrder`'s
    recursion does.  Declines and failures as for
    :func:`partition_tree`.
    """
    n = indptr.size - 1
    if degrees.shape != (n,):
        raise ValueError("dissect_tree: one degree per vertex")
    lib = _kernel_for(n, None, None)
    if lib is None:
        return None
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    degrees = np.ascontiguousarray(degrees, dtype=np.int64)
    sequence = np.empty(n, dtype=np.int64)
    stats = np.zeros(2, dtype=np.int64)
    with _drawing_from(rng) as (next_u32, state):
        status = lib.dissect_tree(
            _i64(indptr), _i64(indices), n, _i64(degrees), int(leaf_size),
            float(target_fraction), float(imbalance), int(trials),
            int(coarsest_size), int(max_negative_moves), int(max_passes),
            next_u32, state, _i64(sequence), _i64(stats),
        )
    _check_status("dissect_tree", status, n)
    return sequence, int(stats[0]), int(stats[1])


def draw_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """The kernel's ``permutation(n)`` draw on ``rng`` (test hook)."""
    out = np.empty(n, dtype=np.int64)
    with _drawing_from(rng) as (next_u32, state):
        KERNEL.lib().draw_permutation_into(next_u32, state, n, _i64(out))
    return out


def draw_integers(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """``count`` of the kernel's ``integers(m)`` draws on ``rng`` (test hook)."""
    out = np.empty(count, dtype=np.int64)
    with _drawing_from(rng) as (next_u32, state):
        KERNEL.lib().draw_integers_into(
            next_u32, state, m, count, _i64(out)
        )
    return out


def pairwise_sum(values: np.ndarray) -> float:
    """The kernel's float64 sum of ``values`` (test hook)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return float(KERNEL.lib().pairwise_sum_f64(_f64(values), values.size))


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
    with one entry per vertex and ``part`` must hold one 0/1 label per
    vertex (:func:`repro.partition.refine.fm_refine` checks).
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = part.size
    heap_cap = n + indices.size + 1
    heap_g = _scratch("heap_g", heap_cap, np.float64)
    heap_v = _scratch("heap_v", heap_cap, np.int64)
    gains = _scratch("gains", n, np.float64)
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


def coarse_map(match: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Native matching-to-coarse-map; None when unavailable."""
    lib = KERNEL.lib()
    if lib is None:
        return None
    n = match.size
    coarse_of = np.empty(n, dtype=np.int64)
    num_coarse = lib.coarse_map_from_matching(_i64(match), n, _i64(coarse_of))
    return coarse_of, int(num_coarse)
