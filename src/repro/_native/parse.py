"""Compiled threaded edge-list parser (sharded byte scan).

Cold-start wall time is dominated by reading text edge lists: the scalar
reader in :mod:`repro.graph.io` walks the file one Python line at a
time.  This kernel gives ingestion the same treatment as the other hot
loops — a two-pass scan over the raw bytes, sharded across threads:

* **pass 1** (``parse_count``) splits the byte range into contiguous
  shards (:c:func:`repro_shard`), finds each shard's first line
  boundary, and counts the candidate edge lines whose *start* falls
  inside the shard (a line near a boundary is parsed by exactly one
  thread, running past its shard end to the terminator);
* **pass 2** (``parse_fill``) re-walks the same lines and writes each
  shard's edges into a private window of the output arrays at the
  exclusive prefix of the pass-1 counts.

Shard ownership is a pure function of the byte offsets, and shard
windows concatenate in shard order — i.e. file order — so the output is
**bit-identical for every thread count** by construction.

Identity with the scalar reader is kept honest by a *strict grammar*:
ids are plain decimal int64s, weights are plain decimal floats
(``strtod`` and Python ``float()`` round those identically), comments
and ``n=<count>`` headers follow the reader's rules, and anything else
— non-ASCII bytes, underscored literals, ``inf``/``nan``, overlong
numbers — sets a per-shard error flag that makes the wrapper return
``None`` so the caller falls back to the scalar parse for the whole
file.  The fallback therefore also reproduces the scalar parse's
*exceptions* on malformed files, not just its results.  The kernel has
no vector twin: both twin slots name the scalar parse.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import MAX_THREADS, NativeKernel, guarded, native_threads

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdlib.h>

enum { PR_MAX_ID_DIGITS = 18, PR_MAX_FLOAT_CHARS = 48 };

/* Intra-line whitespace: what bytes.split() splits on, minus the two
 * line terminators handled by the line walk itself. */
static int pr_isws(uint8_t c)
{
    return c == ' ' || c == '\t' || c == '\v' || c == '\f';
}

static int pr_isterm(uint8_t c)
{
    return c == '\n' || c == '\r';
}

static int pr_isdigit(uint8_t c)
{
    return c >= '0' && c <= '9';
}

/* Strict base-10 int64 over [s, e): optional sign, 1..18 digits. */
static int pr_parse_int(const uint8_t *d, int64_t s, int64_t e,
                        int64_t *out)
{
    int neg = 0;
    if (s < e && (d[s] == '+' || d[s] == '-')) {
        neg = d[s] == '-';
        s++;
    }
    if (s >= e || e - s > PR_MAX_ID_DIGITS)
        return 0;
    int64_t val = 0;
    for (int64_t i = s; i < e; i++) {
        if (!pr_isdigit(d[i]))
            return 0;
        val = val * 10 + (d[i] - '0');
    }
    *out = neg ? -val : val;
    return 1;
}

/* Strict decimal float over [s, e): sign, digits with optional point,
 * optional e-exponent.  The accepted subset is exactly where strtod and
 * Python float() agree bit-for-bit (both correctly rounded). */
static int pr_parse_float(const uint8_t *d, int64_t s, int64_t e,
                          double *out)
{
    int64_t len = e - s;
    if (len <= 0 || len >= PR_MAX_FLOAT_CHARS)
        return 0;
    int64_t i = s;
    int64_t mant = 0;
    if (d[i] == '+' || d[i] == '-')
        i++;
    while (i < e && pr_isdigit(d[i])) { i++; mant++; }
    if (i < e && d[i] == '.') {
        i++;
        while (i < e && pr_isdigit(d[i])) { i++; mant++; }
    }
    if (mant == 0)
        return 0;
    if (i < e && (d[i] == 'e' || d[i] == 'E')) {
        int64_t ex = 0;
        i++;
        if (i < e && (d[i] == '+' || d[i] == '-'))
            i++;
        while (i < e && pr_isdigit(d[i])) { i++; ex++; }
        if (ex == 0)
            return 0;
    }
    if (i != e)
        return 0;
    char buf[PR_MAX_FLOAT_CHARS];
    for (int64_t k = 0; k < len; k++)
        buf[k] = (char)d[s + k];
    buf[len] = '\0';
    char *endp = NULL;
    *out = strtod(buf, &endp);
    return endp == buf + len;
}

typedef struct {
    const uint8_t *data;
    int64_t nbytes;
    int64_t one_based;
    int64_t fill;               /* 0 = count pass, 1 = fill pass */
    const int64_t *offsets;     /* fill: per-shard output start */
    int64_t *src;
    int64_t *dst;
    double *wgt;
    int64_t *counts;            /* count: candidate lines per shard */
    int64_t *flags;             /* nonzero = fall back to scalar */
    int64_t *saw_weight;
    int64_t *max_id;            /* INT64_MIN when the shard has no edge */
    int64_t *header_off;        /* byte offset of last n= token, or -1 */
    int64_t *header_val;
} parse_job;

static void parse_shard(void *argp, int64_t tid, int64_t nthreads)
{
    parse_job *job = (parse_job *)argp;
    const uint8_t *d = job->data;
    const int64_t nbytes = job->nbytes;
    int64_t blo, bhi;
    repro_shard(nbytes, tid, nthreads, &blo, &bhi);

    int64_t count = 0, flag = 0, saw = 0;
    int64_t maxid = INT64_MIN;
    int64_t hoff = -1, hval = 0;
    int64_t write = job->fill ? job->offsets[tid] : 0;

    if (!job->fill) {
        /* Non-ASCII anywhere defers the whole file to the scalar
         * reader (Python-level unicode semantics).  Byte shards
         * partition the file, so together the shards scan every byte. */
        for (int64_t i = blo; i < bhi; i++)
            if (d[i] >= 0x80)
                flag = 1;
    }

    /* A shard owns the lines *starting* in [blo, bhi); its first line
     * start is the first position at/after blo preceded by a
     * terminator (or byte 0). */
    int64_t pos = blo;
    if (pos > 0)
        while (pos < nbytes && !pr_isterm(d[pos - 1]))
            pos++;

    while (pos < bhi && !flag) {
        int64_t lend = pos;
        while (lend < nbytes && !pr_isterm(d[lend]))
            lend++;
        int64_t s = pos;
        while (s < lend && pr_isws(d[s]))
            s++;
        if (s < lend && (d[s] == '#' || d[s] == '%')) {
            /* comment line: last n=<digits> token in file order wins */
            if (job->fill) {
                int64_t i = s + 1;
                while (i < lend) {
                    while (i < lend && pr_isws(d[i]))
                        i++;
                    int64_t t0 = i;
                    while (i < lend && !pr_isws(d[i]))
                        i++;
                    if (i - t0 > 2 && d[t0] == 'n' && d[t0 + 1] == '=') {
                        int64_t all = 1;
                        for (int64_t k = t0 + 2; k < i; k++)
                            if (!pr_isdigit(d[k])) { all = 0; break; }
                        if (all) {
                            int64_t val;
                            if (!pr_parse_int(d, t0 + 2, i, &val))
                                flag = 1;   /* header overflows int64 */
                            else { hoff = t0; hval = val; }
                        }
                    }
                }
            }
        } else if (s < lend) {
            if (!job->fill) {
                count++;
            } else {
                int64_t a1 = s;
                while (a1 < lend && !pr_isws(d[a1]))
                    a1++;
                int64_t b0 = a1;
                while (b0 < lend && pr_isws(d[b0]))
                    b0++;
                int64_t b1 = b0;
                while (b1 < lend && !pr_isws(d[b1]))
                    b1++;
                int64_t c0 = b1;
                while (c0 < lend && pr_isws(d[c0]))
                    c0++;
                int64_t c1 = c0;
                while (c1 < lend && !pr_isws(d[c1]))
                    c1++;
                int64_t u = 0, v = 0;
                double w = 1.0;
                if (b0 == b1 || !pr_parse_int(d, s, a1, &u)
                             || !pr_parse_int(d, b0, b1, &v)) {
                    flag = 1;
                } else {
                    if (job->one_based) { u -= 1; v -= 1; }
                    if (c0 < c1) {
                        if (!pr_parse_float(d, c0, c1, &w))
                            flag = 1;
                        else
                            saw = 1;
                    }
                    /* tokens past the third are ignored, like the
                     * scalar reader's parts[3:] */
                    if (!flag) {
                        job->src[write] = u;
                        job->dst[write] = v;
                        job->wgt[write] = w;
                        write++;
                        if (u > maxid) maxid = u;
                        if (v > maxid) maxid = v;
                    }
                }
            }
        }
        pos = lend + 1;
    }

    job->flags[tid] = flag;
    if (!job->fill) {
        job->counts[tid] = count;
    } else {
        job->saw_weight[tid] = saw;
        job->max_id[tid] = maxid;
        job->header_off[tid] = hoff;
        job->header_val[tid] = hval;
    }
}

static int64_t pr_clamp_threads(int64_t nthreads, int64_t nbytes)
{
    if (nthreads > nbytes)
        nthreads = nbytes > 0 ? nbytes : 1;
    if (nthreads > REPRO_MAX_THREADS)
        nthreads = REPRO_MAX_THREADS;
    if (nthreads < 1)
        nthreads = 1;
    return nthreads;
}

int64_t parse_count(const uint8_t *data, int64_t nbytes, int64_t nthreads,
                    int64_t *counts, int64_t *flags)
{
    parse_job job = {0};
    job.data = data;
    job.nbytes = nbytes;
    job.fill = 0;
    job.counts = counts;
    job.flags = flags;
    nthreads = pr_clamp_threads(nthreads, nbytes);
    repro_parallel_for(parse_shard, &job, nthreads);
    int64_t total = 0;
    for (int64_t t = 0; t < nthreads; t++)
        total += counts[t];
    return total;
}

void parse_fill(const uint8_t *data, int64_t nbytes, int64_t nthreads,
                const int64_t *offsets, int64_t one_based,
                int64_t *src, int64_t *dst, double *wgt,
                int64_t *flags, int64_t *saw_weight, int64_t *max_id,
                int64_t *header_off, int64_t *header_val)
{
    parse_job job = {0};
    job.data = data;
    job.nbytes = nbytes;
    job.one_based = one_based;
    job.fill = 1;
    job.offsets = offsets;
    job.src = src;
    job.dst = dst;
    job.wgt = wgt;
    job.flags = flags;
    job.saw_weight = saw_weight;
    job.max_id = max_id;
    job.header_off = header_off;
    job.header_val = header_val;
    nthreads = pr_clamp_threads(nthreads, nbytes);
    repro_parallel_for(parse_shard, &job, nthreads);
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

KERNEL = NativeKernel(
    "parse_edges",
    _SOURCE,
    symbols={
        "parse_count": (
            [
                _P_U8,  # data
                ctypes.c_int64,  # nbytes
                ctypes.c_int64,  # nthreads
                _P_I64,  # counts
                _P_I64,  # flags
            ],
            ctypes.c_int64,
        ),
        "parse_fill": (
            [
                _P_U8,  # data
                ctypes.c_int64,  # nbytes
                ctypes.c_int64,  # nthreads
                _P_I64,  # offsets
                ctypes.c_int64,  # one_based
                _P_I64,  # src
                _P_I64,  # dst
                _P_F64,  # wgt
                _P_I64,  # flags
                _P_I64,  # saw_weight
                _P_I64,  # max_id
                _P_I64,  # header_off
                _P_I64,  # header_val
            ],
            None,
        ),
    },
    scalar_twin="repro.graph.io:_parse_edge_text_scalar",
    vector_twin="repro.graph.io:_parse_edge_text_scalar",
    threaded=True,
    serial_twin="repro._native.parse:run",
)

#: sentinel for "shard saw no edge line" in the per-shard max-id output.
_I64_MIN = np.iinfo(np.int64).min


@guarded(KERNEL)
def run(
    data: bytes, one_based: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool, int, int | None] | None:
    """Parse raw edge-list bytes, or ``None`` on fallback.

    Returns ``(src, dst, wgt, saw_weight, max_id, header_n)`` matching
    the scalar reader's parse of the same bytes, or ``None`` when the
    kernel is unavailable or the file leaves the strict grammar (the
    caller must then re-parse with the scalar tier).
    """
    native = KERNEL.lib()
    if native is None:
        return None
    nbytes = len(data)
    if nbytes == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            False,
            -1,
            None,
        )
    buf = np.frombuffer(data, dtype=np.uint8)
    nthreads = max(1, min(native_threads(), MAX_THREADS))
    counts = np.zeros(nthreads, dtype=np.int64)
    flags = np.zeros(nthreads, dtype=np.int64)
    total = int(
        native.parse_count(
            buf.ctypes.data_as(_P_U8),
            nbytes,
            nthreads,
            counts.ctypes.data_as(_P_I64),
            flags.ctypes.data_as(_P_I64),
        )
    )
    if np.any(flags):
        return None
    offsets = np.zeros(nthreads, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    src = np.empty(total, dtype=np.int64)
    dst = np.empty(total, dtype=np.int64)
    wgt = np.empty(total, dtype=np.float64)
    flags[:] = 0
    saw = np.zeros(nthreads, dtype=np.int64)
    max_ids = np.full(nthreads, _I64_MIN, dtype=np.int64)
    header_off = np.full(nthreads, -1, dtype=np.int64)
    header_val = np.zeros(nthreads, dtype=np.int64)
    native.parse_fill(
        buf.ctypes.data_as(_P_U8),
        nbytes,
        nthreads,
        offsets.ctypes.data_as(_P_I64),
        1 if one_based else 0,
        src.ctypes.data_as(_P_I64),
        dst.ctypes.data_as(_P_I64),
        wgt.ctypes.data_as(_P_F64),
        flags.ctypes.data_as(_P_I64),
        saw.ctypes.data_as(_P_I64),
        max_ids.ctypes.data_as(_P_I64),
        header_off.ctypes.data_as(_P_I64),
        header_val.ctypes.data_as(_P_I64),
    )
    if np.any(flags):
        return None
    max_id = -1
    if np.any(max_ids != _I64_MIN):
        max_id = int(max_ids[max_ids != _I64_MIN].max())
    header_n: int | None = None
    if np.any(header_off >= 0):
        header_n = int(header_val[int(np.argmax(header_off))])
    return src, dst, wgt, bool(np.any(saw)), max_id, header_n
