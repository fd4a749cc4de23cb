"""Compiled parallel stable counting sort (BOBA-style placement).

The lightweight degree-driven schemes (Degree Sort, Hub Sort, Hub
Cluster, Degree-Based Grouping) all reduce to one primitive: a *stable*
sort of the vertex ids by a small integer key.  BOBA showed that exact
primitive parallelises with near-linear scaling while staying fully
deterministic: each thread counts keys over its contiguous chunk, an
exclusive prefix sum over ``(key, chunk)`` assigns every chunk a private
placement window per key, and each thread scatters its chunk in input
order.  Within a key, output order is (chunk, position-in-chunk) — i.e.
natural order — so the result equals ``np.argsort(key, kind="stable")``
for **every** thread count, including one.

The scalar and vector twins in :mod:`repro.ordering.degree` are that
argsort; the kernel is bit-identical to both by construction.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import MAX_THREADS, NativeKernel, guarded, native_threads

__all__ = ["KERNEL", "run"]

#: Keys above this bucket count fall back to numpy's argsort — the
#: per-thread count arrays would dwarf the payload.
_MAX_BUCKETS = 1 << 22

_SOURCE = r"""
typedef struct {
    const int64_t *keys;
    int64_t n;
    int64_t num_buckets;
    int64_t *counts;   /* nthreads * num_buckets, zeroed by the caller */
    int64_t *out;      /* n */
} csort_job;

static void csort_count(void *argp, int64_t tid, int64_t nthreads)
{
    csort_job *job = (csort_job *)argp;
    int64_t lo, hi;
    repro_shard(job->n, tid, nthreads, &lo, &hi);
    int64_t *counts = job->counts + tid * job->num_buckets;
    for (int64_t i = lo; i < hi; i++)
        counts[job->keys[i]]++;
}

static void csort_place(void *argp, int64_t tid, int64_t nthreads)
{
    csort_job *job = (csort_job *)argp;
    int64_t lo, hi;
    repro_shard(job->n, tid, nthreads, &lo, &hi);
    int64_t *cursor = job->counts + tid * job->num_buckets;
    /* Accepted hazard: each cursor walks the exclusive (key, shard)
     * prefix-sum windows computed in counting_sort below; every shard
     * writes exactly hi - lo slots, so the windows cannot overflow by
     * construction and an in-loop bound would be pure overhead. */
    for (int64_t i = lo; i < hi; i++)
        job->out[cursor[job->keys[i]]++] = i; /* clint: disable=c-unchecked-write */
}

int64_t counting_sort(const int64_t *keys,
                      int64_t n,
                      int64_t num_buckets,
                      int64_t *counts,
                      int64_t *out,
                      int64_t nthreads)
{
    csort_job job;
    job.keys = keys;
    job.n = n;
    job.num_buckets = num_buckets;
    job.counts = counts;
    job.out = out;
    if (nthreads > n)
        nthreads = n > 0 ? n : 1;
    if (nthreads > REPRO_MAX_THREADS)
        nthreads = REPRO_MAX_THREADS;
    if (nthreads < 1)
        nthreads = 1;
    repro_parallel_for(csort_count, &job, nthreads);
    /* Exclusive prefix sum over (key-major, chunk-minor): chunk t's
     * placement window for key k starts after every smaller key and
     * after key-k items owned by earlier chunks — the stable order. */
    int64_t running = 0;
    for (int64_t k = 0; k < num_buckets; k++) {
        for (int64_t t = 0; t < nthreads; t++) {
            const int64_t c = counts[t * num_buckets + k];
            counts[t * num_buckets + k] = running;
            running += c;
        }
    }
    repro_parallel_for(csort_place, &job, nthreads);
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
                ctypes.c_int64,  # nthreads
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.ordering.degree:_stable_key_order_scalar",
    vector_twin="repro.ordering.degree:_stable_key_order_scalar",
    threaded=True,
    serial_twin="repro.ordering.degree:_stable_key_order_native",
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
    nthreads = max(1, min(native_threads(), MAX_THREADS, n))
    counts = np.zeros(nthreads * num_buckets, dtype=np.int64)
    placed = native.counting_sort(
        keys.ctypes.data_as(_P_I64),
        n,
        int(num_buckets),
        counts.ctypes.data_as(_P_I64),
        out.ctypes.data_as(_P_I64),
        nthreads,
    )
    if placed != n:  # pragma: no cover - keys out of range
        return None
    return out
