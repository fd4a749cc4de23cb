"""Compiled edge-list parser (two-pass byte scan).

Cold-start wall time is dominated by reading text edge lists: the scalar
reader in :mod:`repro.graph.io` walks the file one Python line at a
time.  This kernel gives ingestion the same treatment as the other hot
loops — two passes over the raw bytes:

* **pass 1** (``parse_count``) counts the candidate edge lines, so the
  output arrays are allocated at their exact size;
* **pass 2** (``parse_fill``) re-walks the same lines and writes the
  edges in file order.

Identity with the scalar reader is kept honest by a *strict grammar*:
ids are plain decimal int64s, weights are plain decimal floats
(``strtod`` and Python ``float()`` round those identically), comments
and ``n=<count>`` headers follow the reader's rules, and anything else
— non-ASCII bytes, underscored literals, ``inf``/``nan``, overlong
numbers — makes the pass return -1 and the wrapper return
``None`` so the caller falls back to the scalar parse for the whole
file.  The fallback therefore also reproduces the scalar parse's
*exceptions* on malformed files, not just its results.  The kernel's
twin is the scalar parse; the reader has no vector tier.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .core import NativeKernel

__all__ = ["KERNEL", "run"]

_SOURCE = r"""
#include <stdint.h>
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

/* One walk over the lines of data[0, nbytes).  The count pass
 * (fill = 0) returns the number of candidate edge lines; the fill pass
 * writes them to src/dst/wgt in file order and reports into info:
 * [0] saw a weight, [1] max id (INT64_MIN when no edge line),
 * [2] 1 when an n=<count> header was seen, [3] the last header value.
 * Either pass returns -1 when the file leaves the strict grammar. */
static int64_t parse_scan(const uint8_t *d, int64_t nbytes, int64_t fill,
                          int64_t one_based, int64_t *src, int64_t *dst,
                          double *wgt, int64_t *info)
{
    int64_t count = 0, saw = 0;
    int64_t maxid = INT64_MIN;
    int64_t have_header = 0, hval = 0;

    if (!fill) {
        /* Non-ASCII anywhere defers the whole file to the scalar
         * reader (Python-level unicode semantics). */
        for (int64_t i = 0; i < nbytes; i++)
            if (d[i] >= 0x80)
                return -1;
    }

    int64_t pos = 0;
    while (pos < nbytes) {
        int64_t lend = pos;
        while (lend < nbytes && !pr_isterm(d[lend]))
            lend++;
        int64_t s = pos;
        while (s < lend && pr_isws(d[s]))
            s++;
        if (s < lend && (d[s] == '#' || d[s] == '%')) {
            /* comment line: last n=<digits> token in file order wins */
            if (fill) {
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
                            if (!pr_parse_int(d, t0 + 2, i, &hval))
                                return -1;   /* header overflows int64 */
                            have_header = 1;
                        }
                    }
                }
            }
        } else if (s < lend) {
            if (fill) {
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
                             || !pr_parse_int(d, b0, b1, &v))
                    return -1;
                if (one_based) { u -= 1; v -= 1; }
                if (c0 < c1) {
                    if (!pr_parse_float(d, c0, c1, &w))
                        return -1;
                    saw = 1;
                }
                /* tokens past the third are ignored, like the scalar
                 * reader's parts[3:] */
                src[count] = u;
                dst[count] = v;
                wgt[count] = w;
                if (u > maxid) maxid = u;
                if (v > maxid) maxid = v;
            }
            count++;
        }
        pos = lend + 1;
    }

    if (fill) {
        info[0] = saw;
        info[1] = maxid;
        info[2] = have_header;
        info[3] = hval;
    }
    return count;
}

int64_t parse_count(const uint8_t *data, int64_t nbytes)
{
    return parse_scan(data, nbytes, 0, 0, NULL, NULL, NULL, NULL);
}

int64_t parse_fill(const uint8_t *data, int64_t nbytes, int64_t one_based,
                   int64_t *src, int64_t *dst, double *wgt, int64_t *info)
{
    return parse_scan(data, nbytes, 1, one_based, src, dst, wgt, info);
}
"""

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)

#: the fill pass's max id when the file has no edge line.
_I64_MIN = np.iinfo(np.int64).min

KERNEL = NativeKernel(
    "parse_edges",
    _SOURCE,
    symbols={
        "parse_count": (
            [
                _P_U8,  # data
                ctypes.c_int64,  # nbytes
            ],
            ctypes.c_int64,
        ),
        "parse_fill": (
            [
                _P_U8,  # data
                ctypes.c_int64,  # nbytes
                ctypes.c_int64,  # one_based
                _P_I64,  # src
                _P_I64,  # dst
                _P_F64,  # wgt
                _P_I64,  # info
            ],
            ctypes.c_int64,
        ),
    },
    scalar_twin="repro.graph.io:_parse_edge_text_scalar",
)


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
    total = int(native.parse_count(buf.ctypes.data_as(_P_U8), nbytes))
    if total < 0:
        return None
    src = np.empty(total, dtype=np.int64)
    dst = np.empty(total, dtype=np.int64)
    wgt = np.empty(total, dtype=np.float64)
    info = np.zeros(4, dtype=np.int64)
    filled = native.parse_fill(
        buf.ctypes.data_as(_P_U8),
        nbytes,
        1 if one_based else 0,
        src.ctypes.data_as(_P_I64),
        dst.ctypes.data_as(_P_I64),
        wgt.ctypes.data_as(_P_F64),
        info.ctypes.data_as(_P_I64),
    )
    if filled < 0:
        return None
    saw, max_id, have_header, header_val = (int(x) for x in info)
    if max_id == _I64_MIN:
        max_id = -1
    header_n = header_val if have_header else None
    return src, dst, wgt, bool(saw), max_id, header_n
