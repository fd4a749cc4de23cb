"""Compiled LRU-replay kernel for the batched cache engine.

The exact batched replay (:mod:`repro.simulator.batch`) spends nearly all
of its time walking short per-set tag runs through an LRU list — a loop
with no numpy-friendly structure.  The C walk below is bit-identical to
the pure-Python set walk in :func:`repro.simulator.batch._replay_python`
(the scalar twin) and to the grouped batch driver
:func:`repro.simulator.batch.cache_access_batch` (the vector twin
dispatching it).
"""

from __future__ import annotations

import ctypes

from .core import NativeKernel

__all__ = ["KERNEL"]

#: Exact set-associative LRU replay over set-grouped tag runs.
#:
#: ``ways``/``dirty`` hold each touched set's resident tags in LRU→MRU
#: order (the same order as the Python dict), ``-1`` padded.  A hit moves
#: the tag to the MRU slot; a miss evicts slot 0 when the set is full and
#: appends the tag clean (loads never dirty lines).  A tag equal to the
#: set's current MRU hits with no state change — the same collapse the
#: Python engine applies.  ``miss_out`` is per *sorted* position.
_SOURCE = r"""
#include <stdint.h>

int64_t lru_replay(const int64_t *sorted_tags,
                   const int64_t *group_off,
                   int64_t num_groups,
                   int64_t assoc,
                   int64_t *state_tags,
                   uint8_t *state_dirty,
                   int64_t *state_len,
                   uint8_t *miss_out,
                   int64_t *writebacks_out)
{
    int64_t misses = 0;
    int64_t writebacks = 0;
    for (int64_t gi = 0; gi < num_groups; gi++) {
        int64_t *ways = state_tags + gi * assoc;
        uint8_t *dirty = state_dirty + gi * assoc;
        int64_t len = state_len[gi];
        const int64_t lo = group_off[gi];
        const int64_t hi = group_off[gi + 1];
        for (int64_t i = lo; i < hi; i++) {
            const int64_t tag = sorted_tags[i];
            if (len && ways[len - 1] == tag)
                continue; /* MRU hit: refresh is a no-op */
            int64_t j = len - 1;
            while (j >= 0 && ways[j] != tag)
                j--;
            if (j >= 0) {
                /* hit: shift up, reinsert at MRU */
                const uint8_t was_dirty = dirty[j];
                for (int64_t k = j; k < len - 1; k++) {
                    ways[k] = ways[k + 1];
                    dirty[k] = dirty[k + 1];
                }
                ways[len - 1] = tag;
                dirty[len - 1] = was_dirty;
            } else {
                misses++;
                miss_out[i] = 1;
                if (len >= assoc) {
                    if (dirty[0])
                        writebacks++;
                    for (int64_t k = 0; k < len - 1; k++) {
                        ways[k] = ways[k + 1];
                        dirty[k] = dirty[k + 1];
                    }
                    ways[len - 1] = tag;
                    dirty[len - 1] = 0;
                } else {
                    ways[len] = tag;
                    dirty[len] = 0;
                    len++;
                }
            }
        }
        state_len[gi] = len;
    }
    *writebacks_out = writebacks;
    return misses;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "lru_replay",
    _SOURCE,
    symbols={
        "lru_replay": (
            [
                _P_I64,  # sorted_tags
                _P_I64,  # group_off
                ctypes.c_int64,  # num_groups
                ctypes.c_int64,  # assoc
                _P_I64,  # state_tags
                _P_U8,  # state_dirty
                _P_I64,  # state_len
                _P_U8,  # miss_out
                _P_I64,  # writebacks_out
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.simulator.batch:_replay_python",
    vector_twin="repro.simulator.batch:cache_access_batch",
)
