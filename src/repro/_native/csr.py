"""Compiled CSR assembly, relabelling and text formatting.

The file tool's path is read, order, write.  Around the orderings it
runs three whole-array pipelines, and each is one kernel here:

* ``csr_build`` — the body of
  :meth:`repro.graph.builder.GraphBuilder.build`: drop self-loops, put
  each pair in ``(min, max)`` form, sort stably by ``(lo, hi)``, merge
  duplicates, symmetrise and write rows in ascending order.  The sort
  is two counting-sort scatters of the pairs themselves (by ``hi``,
  then by ``lo`` walking the ``hi`` windows in order), so no pass
  chases edge ids through the input.  A merged weight is summed from
  ``0.0`` over its group in sorted order, which the stable sort makes
  input order: the same chain of additions as the twin's
  ``np.add.at``.  Walking the groups in ``(lo, hi)`` order and
  appending ``hi`` to row ``lo`` and ``lo`` to row ``hi`` leaves every
  row ascending: a row's smaller neighbours arrive (in ``lo`` order)
  before the groups it leads.  Twin: ``GraphBuilder._build_python``.
* ``csr_relabel`` — the body of :func:`repro.graph.permute.apply_ordering`:
  row ``v`` moves to row ``pi[v]`` with its relabelled columns (and
  weights) in ascending order, ties in CSR order.  A stable counting
  sort of the entries by new column, then one pass appending each
  column to its rows in column order, gives exactly that.  Every new
  row comes from one old row, so this is the twin's stable
  ``(pi[src], pi[dst])`` pair sort; raw CSRs with duplicates,
  self-loops, one-sided entries or unsorted rows come out identical.
  Twin: ``repro.graph.permute._apply_ordering_python``.
* ``format_lines`` — the text of :mod:`repro.graph.io`'s writers:
  ``u v[ w]`` lines for one triangle of the CSR (edge lists and
  MatrixMarket), METIS adjacency rows, or one value per line (the
  permutation file).  It fills one reused buffer block by block, so a
  write holds no per-line strings.  Integers are printed exactly;
  weights with ``%g``, which is Python's ``{:g}`` except that it may
  print a sign on a NaN, so every NaN is written ``nan``.  Twin:
  ``repro.graph.io._format_lines_python``.
"""

from __future__ import annotations

import ctypes
from typing import Iterator

import numpy as np

from .core import NativeKernel

__all__ = [
    "BUILD_KERNEL",
    "RELABEL_KERNEL",
    "FORMAT_KERNEL",
    "csr_build",
    "csr_relabel",
    "format_lines",
]

_BUILD_SOURCE = r"""
#include <stdint.h>

/* Sort the non-loop pairs by (lo, hi), stably, and merge duplicates.
 * A counting sort by hi scatters each pair's lo (and weight) into
 * hi's window of los/ws1; walking the hi windows in ascending order
 * and appending hi to lo's window of his/ws2 leaves every lo window
 * ascending in hi, ties in input order.  Each lo window is then
 * compacted in place to one entry per distinct hi, weights summed
 * from 0.0 in that order.  lo_end and hi_end (n + 1 entries) and deg
 * (n entries) are zero on entry; on return lo_end[l] ends lo's
 * compacted window, deg holds each vertex's merged degree and info
 * [0] the number of distinct pairs.  ws1/ws2 are NULL when
 * unweighted.  Returns the number of non-loop pairs. */
int64_t csr_build_sort(const int64_t *src,
                       const int64_t *dst,
                       const double *wgt,
                       int64_t m,
                       int64_t n,
                       int64_t *lo_end,
                       int64_t *hi_end,
                       int64_t *los,
                       double *ws1,
                       int64_t *his,
                       double *ws2,
                       int64_t *deg,
                       int64_t *info)
{
    int64_t kept = 0;
    for (int64_t i = 0; i < m; i++) {
        const int64_t u = src[i], v = dst[i];
        if (u != v) {
            lo_end[(u < v ? u : v) + 1]++;
            hi_end[(u < v ? v : u) + 1]++;
            kept++;
        }
    }
    for (int64_t k = 0; k < n; k++) {
        lo_end[k + 1] += lo_end[k];
        hi_end[k + 1] += hi_end[k];
    }
    /* Accepted hazard (both scatters): each cursor walks its key's
     * prefix-sum window, which holds exactly that key's count. */
    for (int64_t i = 0; i < m; i++) {
        const int64_t u = src[i], v = dst[i];
        if (u != v) {
            const int64_t j = hi_end[u < v ? v : u]++;
            los[j] = u < v ? u : v;
            if (ws1)
                ws1[j] = wgt[i];
        }
    }
    int64_t j = 0;
    for (int64_t h = 0; h < n; h++) {
        for (; j < hi_end[h]; j++) {
            const int64_t p = lo_end[los[j]]++;
            his[p] = h;
            if (ws2)
                ws2[p] = ws1[j];
        }
    }
    int64_t q = 0;
    j = 0;
    for (int64_t l = 0; l < n; l++) {
        const int64_t end = lo_end[l];
        while (j < end) {
            const int64_t h = his[j];
            double sum = 0.0;
            for (; j < end && his[j] == h; j++)
                if (ws2)
                    sum += ws2[j];
            his[q] = h;
            if (ws2)
                ws2[q] = sum;
            q++;
            deg[l]++;
            deg[h]++;
        }
        lo_end[l] = q;
    }
    info[0] = q;
    return kept;
}

/* The symmetrised CSR of the merged pairs: walking lo in ascending
 * order, each pair (l, his[q]) goes to the end of both rows, so every
 * row holds its smaller neighbours (arriving in lo order) before the
 * ascending his of its own window.  cursor is n entries of scratch;
 * ws and weights are NULL when unweighted. */
void csr_build_fill(const int64_t *lo_end,
                    const int64_t *his,
                    const double *ws,
                    int64_t n,
                    const int64_t *indptr,
                    int64_t *cursor,
                    int64_t *indices,
                    double *weights)
{
    for (int64_t v = 0; v < n; v++)
        cursor[v] = indptr[v];
    int64_t q = 0;
    for (int64_t l = 0; l < n; l++) {
        for (; q < lo_end[l]; q++) {
            const int64_t h = his[q];
            const int64_t a = cursor[l]++;
            const int64_t b = cursor[h]++;
            indices[a] = h;
            indices[b] = l;
            if (weights) {
                weights[a] = ws[q];
                weights[b] = ws[q];
            }
        }
    }
}
"""

_RELABEL_SOURCE = r"""
#include <stdint.h>

/* Row v of the input becomes row pi[v] of the output, its columns
 * relabelled through pi, in ascending order with ties in CSR order
 * (weights follow when weights is not NULL).  A stable counting sort
 * by new column (cols[c] counts, then walks, column c's window of
 * rows/wbuf) followed by one pass appending each column to its rows
 * in ascending column order.  cols and cursor hold n + 1 and n
 * entries, rows and wbuf one per CSR entry (wbuf only when
 * weighted). */
void csr_relabel(const int64_t *indptr,
                 const int64_t *indices,
                 const double *weights,
                 const int64_t *pi,
                 int64_t n,
                 int64_t *out_indptr,
                 int64_t *out_indices,
                 double *out_weights,
                 int64_t *cols,
                 int64_t *cursor,
                 int64_t *rows,
                 double *wbuf)
{
    const int64_t m = indptr[n];
    out_indptr[0] = 0;
    for (int64_t v = 0; v < n; v++)
        out_indptr[pi[v] + 1] = indptr[v + 1] - indptr[v];
    for (int64_t r = 0; r < n; r++) {
        out_indptr[r + 1] += out_indptr[r];
        cols[r] = 0;
    }
    cols[n] = 0;
    for (int64_t k = 0; k < m; k++)
        cols[pi[indices[k]] + 1]++;
    for (int64_t c = 0; c < n; c++)
        cols[c + 1] += cols[c];
    /* Accepted hazard: each cursor walks its column's prefix-sum
     * window, which holds exactly that column's count. */
    for (int64_t v = 0; v < n; v++) {
        const int64_t r = pi[v];
        for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
            const int64_t j = cols[pi[indices[k]]]++;
            rows[j] = r;
            if (weights)
                wbuf[j] = weights[k];
        }
    }
    /* cols[c] now ends column c; rows fill from their starts. */
    for (int64_t r = 0; r < n; r++)
        cursor[r] = out_indptr[r];
    int64_t j = 0;
    for (int64_t c = 0; c < n; c++) {
        for (; j < cols[c]; j++) {
            const int64_t at = cursor[rows[j]]++;
            out_indices[at] = c;
            if (out_weights)
                out_weights[at] = wbuf[j];
        }
    }
}
"""

_FORMAT_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdio.h>

/* Kinds of text, and the room one item (integer or weight) may take. */
enum { FL_UPPER = 0, FL_LOWER = 1, FL_ROWS = 2, FL_VALUES = 3 };
enum { FL_ITEM = 32, FL_LINE = 4 * FL_ITEM };

/* Decimal digits of v at out; returns their count. */
static int64_t fl_int(char *out, int64_t v)
{
    char digits[24];
    int64_t len = 0;
    uint64_t u = v < 0 ? (uint64_t)0 - (uint64_t)v : (uint64_t)v;
    do {
        digits[len] = (char)('0' + u % 10);
        len++;
        u /= 10;
    } while (u != 0);
    const int64_t sign = v < 0;
    if (sign)
        out[0] = '-';
    for (int64_t i = 0; i < len; i++)
        out[sign + i] = digits[len - 1 - i];
    return sign + len;
}

/* Python's format(w, "g"): C's %g, with every NaN spelled "nan". */
static int64_t fl_weight(char *out, double w)
{
    if (isnan(w)) {
        out[0] = 'n';
        out[1] = 'a';
        out[2] = 'n';
        return 3;
    }
    return snprintf(out, FL_ITEM, "%g", w);
}

/* Format lines into buf[0, cap) from cursor = [row, entry] and return
 * the bytes written, leaving cursor where the next call resumes; the
 * text is done when cursor[0] reaches n.  FL_UPPER/FL_LOWER write
 * "u v[ w]\n" for each entry with u <= v (v <= u), ids plus base;
 * FL_ROWS writes one line per row, its ids plus base (each followed by
 * " w" when weighted) joined by spaces; FL_VALUES writes
 * "indices[i]\n" for i < n.  cap must exceed FL_LINE. */
int64_t format_lines(int64_t kind,
                     const int64_t *indptr,
                     const int64_t *indices,
                     const double *weights,
                     int64_t n,
                     int64_t base,
                     int64_t *cursor,
                     char *buf,
                     int64_t cap)
{
    int64_t row = cursor[0], k = cursor[1], pos = 0;
    const int64_t limit = cap - FL_LINE;
    if (kind == FL_VALUES) {
        for (; row < n && pos <= limit; row++) {
            pos += fl_int(buf + pos, indices[row]);
            buf[pos++] = '\n';
        }
    } else if (kind == FL_ROWS) {
        while (row < n && pos <= limit) {
            if (k == indptr[row + 1]) {
                buf[pos++] = '\n';
                row++;
                continue;
            }
            if (k > indptr[row])
                buf[pos++] = ' ';
            pos += fl_int(buf + pos, indices[k] + base);
            if (weights) {
                buf[pos++] = ' ';
                pos += fl_weight(buf + pos, weights[k]);
            }
            k++;
        }
    } else {
        while (row < n && pos <= limit) {
            if (k == indptr[row + 1]) {
                row++;
                continue;
            }
            const int64_t v = indices[k];
            if (kind == FL_UPPER ? row <= v : v <= row) {
                pos += fl_int(buf + pos, row + base);
                buf[pos++] = ' ';
                pos += fl_int(buf + pos, v + base);
                if (weights) {
                    buf[pos++] = ' ';
                    pos += fl_weight(buf + pos, weights[k]);
                }
                buf[pos++] = '\n';
            }
            k++;
        }
    }
    cursor[0] = row;
    cursor[1] = k;
    return pos;
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_CHAR = ctypes.POINTER(ctypes.c_char)

BUILD_KERNEL = NativeKernel(
    "csr_build",
    _BUILD_SOURCE,
    symbols={
        "csr_build_sort": (
            [
                _P_I64,  # src
                _P_I64,  # dst
                _P_F64,  # wgt (NULL: unweighted)
                ctypes.c_int64,  # m
                ctypes.c_int64,  # n
                _P_I64,  # lo_end
                _P_I64,  # hi_end
                _P_I64,  # los
                _P_F64,  # ws1 (NULL: unweighted)
                _P_I64,  # his
                _P_F64,  # ws2 (NULL: unweighted)
                _P_I64,  # deg
                _P_I64,  # info
            ],
            ctypes.c_int64,
        ),
        "csr_build_fill": (
            [
                _P_I64,  # lo_end
                _P_I64,  # his
                _P_F64,  # ws (NULL: unweighted)
                ctypes.c_int64,  # n
                _P_I64,  # indptr
                _P_I64,  # cursor
                _P_I64,  # indices
                _P_F64,  # weights (NULL: unweighted)
            ],
            None,
        ),
    },
    scalar_twin="repro.graph.builder:GraphBuilder._build_python",
)

RELABEL_KERNEL = NativeKernel(
    "csr_relabel",
    _RELABEL_SOURCE,
    symbols={
        "csr_relabel": (
            [
                _P_I64,  # indptr
                _P_I64,  # indices
                _P_F64,  # weights (NULL: unweighted)
                _P_I64,  # pi
                ctypes.c_int64,  # n
                _P_I64,  # out_indptr
                _P_I64,  # out_indices
                _P_F64,  # out_weights (NULL: unweighted)
                _P_I64,  # cols
                _P_I64,  # cursor
                _P_I64,  # rows
                _P_F64,  # wbuf (NULL: unweighted)
            ],
            None,
        ),
    },
    scalar_twin="repro.graph.permute:_apply_ordering_python",
)

FORMAT_KERNEL = NativeKernel(
    "format_lines",
    _FORMAT_SOURCE,
    symbols={
        "format_lines": (
            [
                ctypes.c_int64,  # kind
                _P_I64,  # indptr (NULL for values)
                _P_I64,  # indices
                _P_F64,  # weights (NULL: unweighted)
                ctypes.c_int64,  # n
                ctypes.c_int64,  # base
                _P_I64,  # cursor
                _P_CHAR,  # buf
                ctypes.c_int64,  # cap
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.graph.io:_format_lines_python",
)


def _i64(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.int64)


def _f64_or_none(array: np.ndarray | None) -> np.ndarray | None:
    if array is None:
        return None
    return np.ascontiguousarray(array, dtype=np.float64)


def _ptr(array: np.ndarray | None, kind):
    return None if array is None else array.ctypes.data_as(kind)


def csr_build(
    src: np.ndarray,
    dst: np.ndarray,
    wgt: np.ndarray | None,
    num_vertices: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, int, int] | None:
    """The canonical CSR of an edge array, or None on fallback.

    ``src``/``dst`` hold ids in ``[0, num_vertices)`` (the caller's
    range check); ``wgt`` is None for an unweighted build.  Returns
    ``(indptr, indices, weights, self_loops, duplicates)``.
    """
    lib = BUILD_KERNEL.lib()
    if lib is None:
        return None
    n = int(num_vertices)
    src, dst, wgt = _i64(src), _i64(dst), _f64_or_none(wgt)
    m = int(src.size)
    lo_end = np.zeros(n + 1, dtype=np.int64)
    hi_end = np.zeros(n + 1, dtype=np.int64)
    los = np.empty(m, dtype=np.int64)
    his = np.empty(m, dtype=np.int64)
    ws1 = None if wgt is None else np.empty(m, dtype=np.float64)
    ws2 = None if wgt is None else np.empty(m, dtype=np.float64)
    deg = np.zeros(n, dtype=np.int64)
    info = np.zeros(1, dtype=np.int64)
    kept = int(lib.csr_build_sort(
        _ptr(src, _P_I64), _ptr(dst, _P_I64), _ptr(wgt, _P_F64), m, n,
        _ptr(lo_end, _P_I64), _ptr(hi_end, _P_I64), _ptr(los, _P_I64),
        _ptr(ws1, _P_F64), _ptr(his, _P_I64), _ptr(ws2, _P_F64),
        _ptr(deg, _P_I64), _ptr(info, _P_I64),
    ))
    del hi_end, los, ws1
    groups = int(info[0])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.empty(2 * groups, dtype=np.int64)
    weights = None if wgt is None else np.empty(2 * groups, dtype=np.float64)
    lib.csr_build_fill(
        _ptr(lo_end, _P_I64), _ptr(his, _P_I64), _ptr(ws2, _P_F64), n,
        _ptr(indptr, _P_I64), _ptr(deg, _P_I64), _ptr(indices, _P_I64),
        _ptr(weights, _P_F64),
    )
    return indptr, indices, weights, m - kept, kept - groups


def csr_relabel(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None,
    pi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None] | None:
    """CSR arrays of the graph relabelled by ``pi``, or None on fallback.

    ``pi`` must be a permutation of ``[0, n)`` and every index lie in
    ``[0, n)`` (a validated ordering of a :class:`CSRGraph`).
    """
    lib = RELABEL_KERNEL.lib()
    if lib is None:
        return None
    indptr, indices = _i64(indptr), _i64(indices)
    weights, pi = _f64_or_none(weights), _i64(pi)
    n = int(pi.size)
    out_indptr = np.empty(n + 1, dtype=np.int64)
    out_indices = np.empty(indices.size, dtype=np.int64)
    out_weights = None if weights is None else np.empty_like(weights)
    cols = np.empty(n + 1, dtype=np.int64)
    cursor = np.empty(n, dtype=np.int64)
    rows = np.empty(indices.size, dtype=np.int64)
    wbuf = None if weights is None else np.empty_like(weights)
    lib.csr_relabel(
        _ptr(indptr, _P_I64), _ptr(indices, _P_I64), _ptr(weights, _P_F64),
        _ptr(pi, _P_I64), n, _ptr(out_indptr, _P_I64),
        _ptr(out_indices, _P_I64), _ptr(out_weights, _P_F64),
        _ptr(cols, _P_I64), _ptr(cursor, _P_I64), _ptr(rows, _P_I64),
        _ptr(wbuf, _P_F64),
    )
    return out_indptr, out_indices, out_weights


#: what :func:`format_lines` writes, by name.
_KINDS = {"upper": 0, "lower": 1, "rows": 2, "values": 3}
#: bytes per formatted block: one reused buffer per write.
_BLOCK = 1 << 20


def format_lines(
    kind: str,
    indptr: np.ndarray | None,
    indices: np.ndarray,
    weights: np.ndarray | None,
    base: int,
) -> Iterator[memoryview] | None:
    """Blocks of text for one of the writers, or None on fallback.

    ``kind`` is ``"upper"``/``"lower"`` (``u v[ w]`` per CSR entry on
    or above/below the diagonal), ``"rows"`` (METIS adjacency rows) or
    ``"values"`` (``indices`` one per line; ``indptr`` unused).  Each
    block is a view of one reused buffer, valid until the next one is
    drawn.
    """
    lib = FORMAT_KERNEL.lib()
    if lib is None:
        return None
    code = _KINDS[kind]
    indices = _i64(indices)
    if kind == "values":
        indptr, count = None, int(indices.size)
    else:
        indptr = _i64(indptr)
        count = int(indptr.size) - 1
    return _blocks(lib, code, indptr, indices, _f64_or_none(weights),
                   count, int(base))


def _blocks(
    lib,
    code: int,
    indptr: np.ndarray | None,
    indices: np.ndarray,
    weights: np.ndarray | None,
    count: int,
    base: int,
) -> Iterator[memoryview]:
    buf = np.empty(_BLOCK, dtype=np.uint8)
    view = memoryview(buf)
    cursor = np.zeros(2, dtype=np.int64)
    while cursor[0] < count:
        size = lib.format_lines(
            code, _ptr(indptr, _P_I64), _ptr(indices, _P_I64),
            _ptr(weights, _P_F64), count, base, _ptr(cursor, _P_I64),
            buf.ctypes.data_as(_P_CHAR), _BLOCK,
        )
        yield view[:size]
