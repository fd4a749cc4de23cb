"""Compiled parallel-region replay: one whole region in C.

:class:`repro.simulator.parallel.SimulatedMachine` executes a region
under one of two schedules.  A static region (:meth:`run`) maps every
work item to a thread up front and issues items round by round; a
dynamic region (:meth:`run_dynamic`) hands each chunk of items to the
thread with the lowest simulated clock, so its schedule depends on every
latency before it.  The only difference is how an item picks its
thread; the kernel replays either region in one call.

Bit-identity argument against the per-access model (scalar twin
:meth:`repro.simulator.hierarchy.MemoryHierarchy.access`, which
:meth:`SimulatedMachine.run_reference` drives for static regions and
``SimulatedMachine._run_dynamic_python`` for dynamic ones):

* with an ``item_thread`` array, item ``i`` runs on thread
  ``item_thread[i]``, one item at a time, in the order the caller
  passes them — ``run`` passes the round-robin issue order of
  ``run_reference``; without it, each chunk goes to the *first* thread
  with the lowest clock — ``min(range(T), key=clocks.__getitem__)``;
* every load walks L1 → L2 → L3 with allocate-on-miss at each level it
  misses (inclusive fill); each cache set holds its tags in LRU → MRU
  order, a hit moves the tag to the MRU slot and a miss evicts slot 0
  when the set is full — the transitions of :class:`Cache.access`;
* a line maps to set ``line % sets`` and tag ``line // sets``, which C
  and Python agree on for non-negative lines only: the kernel returns
  ``-1`` on the first negative line and the caller replays the region
  in Python (the kernel owns its cache state and the region always
  starts from an empty hierarchy, so nothing needs undoing);
* stall cycles are the same integer sums of per-level latencies, and
  the per-thread counters are reported as loads per service level, from
  which the Python side rebuilds :class:`ThreadCounters` exactly.

Items arrive block-indexed (:class:`repro.simulator.parallel.BlockTrace`):
one int64 line stream cut into blocks by ``block_offsets``, and per item
a run of block ids — item ``i`` issues blocks
``item_blocks[item_offsets[i]:item_offsets[i + 1]]`` in order.  A
per-vertex table (the Louvain sweep's blocks, the RRR sampler's
adjacency blocks) is passed once and items name the vertices they
visit, so no item's trace is ever materialised.  The caller validates
every id and offset the kernel indexes with before the call.  Loads
only: no store ever dirties a line in a simulated region, so writebacks
cannot occur and are not modelled.  The next-line prefetcher is not
supported; the caller keeps it on the Python path.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel

__all__ = ["KERNEL", "run_region"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* One LRU access on a set holding `*len` tags in LRU -> MRU order.
 * Returns 1 on a hit; a miss installs the tag, evicting slot 0 when
 * the set is full. */
static int64_t lru_touch(int64_t *ways, int64_t *len, int64_t assoc,
                         int64_t tag)
{
    const int64_t count = *len;
    int64_t j = count - 1;
    while (j >= 0 && ways[j] != tag)
        j--;
    if (j >= 0) {
        for (int64_t i = j; i < count - 1; i++)
            ways[i] = ways[i + 1];
        ways[count - 1] = tag;
        return 1;
    }
    if (count >= assoc) {
        for (int64_t i = 0; i < count - 1; i++)
            ways[i] = ways[i + 1];
        ways[count - 1] = tag;
    } else {
        ways[count] = tag;
        *len = count + 1;
    }
    return 0;
}

/* Returns 0, -1 on a negative line (caller replays in Python) or -2
 * when the cache state cannot be allocated. */
int64_t sim_region(const int64_t *blocks,        /* line stream */
                   const int64_t *block_offsets, /* num_blocks + 1 */
                   const int64_t *item_blocks,   /* block ids per item */
                   const int64_t *item_offsets,  /* num_items + 1 */
                   const int64_t *item_compute,
                   const int64_t *item_thread, /* NULL: dynamic chunks */
                   int64_t num_items,
                   int64_t chunk,
                   int64_t num_threads,
                   const int64_t *geometry,  /* sets, ways: L1, L2, L3 */
                   const int64_t *latency,   /* L1, L2, L3, DRAM */
                   int64_t *clocks,          /* num_threads, zeroed */
                   int64_t *compute,         /* num_threads, zeroed */
                   int64_t *level_loads)     /* num_threads * 4, zeroed */
{
    const int64_t s1 = geometry[0], w1 = geometry[1];
    const int64_t s2 = geometry[2], w2 = geometry[3];
    const int64_t s3 = geometry[4], w3 = geometry[5];
    /* per level: tags (sets * ways) then set lengths (sets) */
    const int64_t l1_size = s1 * (w1 + 1);
    const int64_t l2_size = s2 * (w2 + 1);
    const int64_t l3_size = s3 * (w3 + 1);
    int64_t *state = (int64_t *)calloc(
        (size_t)(num_threads * (l1_size + l2_size) + l3_size),
        sizeof(int64_t));
    if (!state)
        return -2;
    int64_t *l3_tags = state + num_threads * (l1_size + l2_size);
    int64_t *l3_len = l3_tags + s3 * w3;
    int64_t status = 0;
    int64_t pos = 0;
    while (pos < num_items) {
        int64_t t = 0;
        int64_t end = pos + 1;
        if (item_thread) {
            t = item_thread[pos];
        } else {
            for (int64_t x = 1; x < num_threads; x++)
                if (clocks[x] < clocks[t])
                    t = x;
            end = num_items - pos > chunk ? pos + chunk : num_items;
        }
        int64_t *l1_tags = state + t * (l1_size + l2_size);
        int64_t *l1_len = l1_tags + s1 * w1;
        int64_t *l2_tags = l1_tags + l1_size;
        int64_t *l2_len = l2_tags + s2 * w2;
        int64_t *loads = level_loads + t * 4;
        for (int64_t i = pos; i < end; i++) {
            int64_t stall = 0;
            for (int64_t b = item_offsets[i]; b < item_offsets[i + 1]; b++) {
                const int64_t block = item_blocks[b];
                const int64_t a_hi = block_offsets[block + 1];
                for (int64_t a = block_offsets[block]; a < a_hi; a++) {
                    const int64_t line = blocks[a];
                    if (line < 0) {
                        status = -1;
                        goto done;
                    }
                    int64_t level = 0;
                    const int64_t set1 = line % s1;
                    if (!lru_touch(l1_tags + set1 * w1, l1_len + set1, w1,
                                   line / s1)) {
                        const int64_t set2 = line % s2;
                        level = 1;
                        if (!lru_touch(l2_tags + set2 * w2, l2_len + set2,
                                       w2, line / s2)) {
                            const int64_t set3 = line % s3;
                            level = 2;
                            if (!lru_touch(l3_tags + set3 * w3,
                                           l3_len + set3, w3, line / s3))
                                level = 3;
                        }
                    }
                    stall += latency[level];
                    loads[level]++;
                }
            }
            clocks[t] += stall + item_compute[i];
            compute[t] += item_compute[i];
        }
        pos = end;
    }
done:
    free(state);
    return status;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)

KERNEL = NativeKernel(
    "sim_region",
    _SOURCE,
    symbols={
        "sim_region": (
            [
                _P_I64,  # blocks
                _P_I64,  # block_offsets
                _P_I64,  # item_blocks
                _P_I64,  # item_offsets
                _P_I64,  # item_compute
                _P_I64,  # item_thread (NULL for dynamic chunks)
                ctypes.c_int64,  # num_items
                ctypes.c_int64,  # chunk
                ctypes.c_int64,  # num_threads
                _P_I64,  # geometry
                _P_I64,  # latency
                _P_I64,  # clocks
                _P_I64,  # compute
                _P_I64,  # level_loads
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.simulator.hierarchy:MemoryHierarchy.access",
)


def run_region(
    trace,
    item_thread: np.ndarray | None,
    chunk: int,
    num_threads: int,
    geometry: np.ndarray,
    latency: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Replay one parallel region natively; None to replay in Python.

    ``trace`` is a validated :class:`repro.simulator.parallel.BlockTrace`
    (contiguous int64 arrays, every block id and offset in range),
    ``item_thread`` each item's thread for a static region (items in
    issue order; ``chunk`` is then unused) or None for dynamic chunks of
    ``chunk`` items, ``geometry`` the ``(sets, ways)`` pairs of L1, L2
    and L3, and ``latency`` the four service latencies.  Returns
    ``(clocks, compute, level_loads)`` per thread, ``level_loads``
    shaped ``(num_threads, 4)``.  None also covers a negative line,
    which the kernel declines.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    num_items = trace.num_items
    clocks = np.zeros(num_threads, dtype=np.int64)
    busy = np.zeros(num_threads, dtype=np.int64)
    level_loads = np.zeros((num_threads, 4), dtype=np.int64)
    status = lib.sim_region(
        trace.blocks.ctypes.data_as(_P_I64),
        trace.block_offsets.ctypes.data_as(_P_I64),
        trace.item_blocks.ctypes.data_as(_P_I64),
        trace.item_offsets.ctypes.data_as(_P_I64),
        trace.compute.ctypes.data_as(_P_I64),
        None if item_thread is None else item_thread.ctypes.data_as(_P_I64),
        num_items,
        min(chunk, max(num_items, 1)),
        num_threads,
        geometry.ctypes.data_as(_P_I64),
        latency.ctypes.data_as(_P_I64),
        clocks.ctypes.data_as(_P_I64),
        busy.ctypes.data_as(_P_I64),
        level_loads.ctypes.data_as(_P_I64),
    )
    if status != 0:
        return None
    return clocks, busy, level_loads
