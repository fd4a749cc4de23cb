"""Compiled stable counting sort (BOBA-style placement).

The lightweight degree-driven schemes (Degree Sort, Hub Sort, Hub
Cluster, Degree-Based Grouping) all reduce to one primitive: a *stable*
sort of the vertex ids by a small integer key.  BOBA builds that exact
primitive from two linear passes: count the keys, take the exclusive
prefix sum to give every key a placement window, then scatter the ids
in input order.  Within a key, output order is input order, so the
result equals ``np.argsort(key, kind="stable")``.

The scalar twin in :mod:`repro.ordering.degree` is that argsort; the
kernel is bit-identical to it by construction.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "run"]

#: Keys above this bucket count fall back to numpy's argsort — the
#: count array would dwarf the payload.
_MAX_BUCKETS = 1 << 22

_SOURCE = r"""
#include <stdint.h>

int64_t counting_sort(const int64_t *keys,
                      int64_t n,
                      int64_t num_buckets,
                      int64_t *counts,
                      int64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        counts[keys[i]]++;
    /* Exclusive prefix sum: key k's placement window starts after
     * every smaller key. */
    int64_t running = 0;
    for (int64_t k = 0; k < num_buckets; k++) {
        const int64_t c = counts[k];
        counts[k] = running;
        running += c;
    }
    /* Accepted hazard: each cursor walks its key's prefix-sum window,
     * which holds exactly that key's count, so the windows cannot
     * overflow by construction and an in-loop bound would be pure
     * overhead. */
    for (int64_t i = 0; i < n; i++)
        out[counts[keys[i]]++] = i; /* clint: disable=c-unchecked-write */
    return running;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)

KERNEL = NativeKernel(
    "counting_sort",
    _SOURCE,
    symbols={
        "counting_sort": (
            [
                _P_I64,  # keys
                ctypes.c_int64,  # n
                ctypes.c_int64,  # num_buckets
                _P_I64,  # counts
                _P_I64,  # out
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.ordering.degree:_stable_key_order_scalar",
)


@guarded(KERNEL)
def run(keys: np.ndarray, num_buckets: int) -> np.ndarray | None:
    """Stable argsort of small-integer ``keys``, or None on fallback.

    ``keys`` must be int64 in ``[0, num_buckets)``; the caller owns that
    invariant (degree-derived keys satisfy it by construction).
    """
    native = KERNEL.lib()
    if native is None or num_buckets <= 0 or num_buckets > _MAX_BUCKETS:
        return None
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.size)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    counts = np.zeros(num_buckets, dtype=np.int64)
    placed = native.counting_sort(
        keys.ctypes.data_as(_P_I64),
        n,
        int(num_buckets),
        counts.ctypes.data_as(_P_I64),
        out.ctypes.data_as(_P_I64),
    )
    if placed != n:  # pragma: no cover - keys out of range
        return None
    return out
