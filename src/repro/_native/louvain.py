"""Compiled Louvain sweep: one whole greedy pass over the vertices in C.

Every Louvain-backed ordering (``grappolo``, ``grappolo_rcm``) and the
community-detection application run through
:meth:`repro.community.louvain._LouvainState.sweep`, a dict loop that
moves each vertex into the neighbouring community with the best
modularity gain.  The greedy is order-dependent (each move changes the
community totals the next vertex sees), so the kernel stays serial and
runs the complete sweep on the CSR arrays.

Bit-identity argument against the scalar twin
(``_LouvainState._sweep_scalar``) and the vector twin (the list-based
``_LouvainState._sweep_vector``):

* neighbour-community weights accumulate in a dense ``n``-sized
  ``link`` scratch in neighbour order, so every link sum is the same
  chain of IEEE additions as ``link.get(cu, 0.0) + w``;
* candidates are visited in the dict's insertion order — the vertex's
  own community first, then neighbouring communities in first-seen
  order (the ``cand`` list; ``in_list`` marks membership and is cleared
  after each vertex);
* the gain keeps the Python evaluation order
  ``(w - tot * kv / (2m)) - base``, and the ``1e-15`` tolerance with the
  lower-id tie-break is the same comparison.

``link``, ``in_list`` and ``cand`` are caller-owned scratch of size
``n``; ``in_list`` must be all zero on entry and is all zero on return.
The caller guarantees every ``order`` entry lies in ``[0, n)``.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel, guarded

__all__ = ["KERNEL", "sweep"]

_SOURCE = r"""
#include <stdint.h>
#include <math.h>

void louvain_sweep(const int64_t *indptr,
                   const int64_t *indices,
                   const double *weights,
                   const int64_t *order,
                   int64_t order_len,
                   const double *k,
                   double m,
                   int64_t *community,   /* n, updated in place */
                   double *comm_tot,     /* n, updated in place */
                   double *link,         /* n scratch */
                   uint8_t *in_list,     /* n scratch, zero on entry */
                   int64_t *cand,        /* n scratch */
                   int64_t *counts)      /* [moves, comms, edges] */
{
    const double two_m = 2.0 * m;
    int64_t moves = 0;
    int64_t comms_scanned = 0;
    int64_t edges_scanned = 0;
    for (int64_t i = 0; i < order_len; i++) {
        const int64_t v = order[i];
        const int64_t cv = community[v];
        const int64_t lo = indptr[v];
        const int64_t hi = indptr[v + 1];
        edges_scanned += hi - lo;
        int64_t ncand = 0;
        cand[ncand++] = cv;
        in_list[cv] = 1;
        link[cv] = 0.0;
        for (int64_t e = lo; e < hi; e++) {
            const int64_t cu = community[indices[e]];
            if (!in_list[cu]) {
                in_list[cu] = 1;
                link[cu] = 0.0;
                cand[ncand++] = cu;
            }
            link[cu] += weights[e];
        }
        comms_scanned += ncand;
        const double kv = k[v];
        comm_tot[cv] -= kv;
        const double base = link[cv] - comm_tot[cv] * kv / two_m;
        int64_t best_c = cv;
        double best_gain = 0.0;
        for (int64_t j = 1; j < ncand; j++) {
            const int64_t c = cand[j];
            const double gain = (link[c] - comm_tot[c] * kv / two_m) - base;
            if (gain > best_gain + 1e-15
                || (fabs(gain - best_gain) <= 1e-15 && c < best_c)) {
                best_c = c;
                best_gain = gain;
            }
        }
        for (int64_t j = 0; j < ncand; j++)
            in_list[cand[j]] = 0;
        community[v] = best_c;
        comm_tot[best_c] += kv;
        if (best_c != cv)
            moves++;
    }
    counts[0] = moves;
    counts[1] = comms_scanned;
    counts[2] = edges_scanned;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "louvain_sweep",
    _SOURCE,
    symbols={
        "louvain_sweep": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # weights
                _P_I64,  # order
                ctypes.c_int64,  # order_len
                _P_F64,  # k
                ctypes.c_double,  # m
                _P_I64,  # community
                _P_F64,  # comm_tot
                _P_F64,  # link
                _P_U8,  # in_list
                _P_I64,  # cand
                _P_I64,  # counts
            ],
            None,
        ),
    },
    scalar_twin="repro.community.louvain:_LouvainState._sweep_scalar",
    vector_twin="repro.community.louvain:_LouvainState._sweep_vector",
)


@guarded(KERNEL)
def sweep(
    csr: tuple[np.ndarray, ...],
    order: np.ndarray,
    k: np.ndarray,
    m: float,
    community: np.ndarray,
    comm_tot: np.ndarray,
) -> tuple[int, int, int] | None:
    """Run one sweep natively; None when the kernel is unavailable.

    ``csr`` is ``(indptr, indices, weights, link, in_list, cand)``: the
    contiguous CSR arrays (unit weights materialised) plus the three
    scratch arrays, built once per compaction level by the caller.
    ``community`` and ``comm_tot`` are updated in place.  Returns
    ``(moves, comms_scanned, edges_scanned)``.
    """
    lib = KERNEL.lib()
    if lib is None:
        return None
    indptr, indices, weights, link, in_list, cand = csr
    counts = np.zeros(3, dtype=np.int64)
    lib.louvain_sweep(
        indptr.ctypes.data_as(_P_I64),
        indices.ctypes.data_as(_P_I64),
        weights.ctypes.data_as(_P_F64),
        order.ctypes.data_as(_P_I64),
        order.size,
        k.ctypes.data_as(_P_F64),
        m,
        community.ctypes.data_as(_P_I64),
        comm_tot.ctypes.data_as(_P_F64),
        link.ctypes.data_as(_P_F64),
        in_list.ctypes.data_as(_P_U8),
        cand.ctypes.data_as(_P_I64),
        counts.ctypes.data_as(_P_I64),
    )
    return int(counts[0]), int(counts[1]), int(counts[2])
