"""Content-addressed mmap-backed binary graph store (``.rgr`` files).

Text parsing — even through the native kernel — costs time linear in
the *formatted* size of a graph.  Once a graph has been built, its CSR
arrays are already the densest representation we will ever want, so
this store persists them verbatim: a warm load is an ``mmap`` attach of
page-aligned ``int64``/``float64`` arrays, costing milliseconds and no
heap copies regardless of graph size.  Pages fault in lazily as the
arrays are traversed, and read-only mappings of the same file are
shared between processes by the page cache, so pool workers that load
the same entry share its pages.

File layout (little-endian)::

    offset 0   : magic b"RGR1"
    offset 4   : uint64 header length H
    offset 12  : H bytes of JSON header
    page-aligned (4096) after the header:
        indptr   (num_vertices + 1) int64
        indices  num_directed_edges int64   [next page boundary]
        weights  num_directed_edges float64 [next page boundary, weighted only]

The JSON header records the array geometry, the graph's
:meth:`~repro.graph.csr.CSRGraph.content_hash`, and its provenance
``meta`` dict; array offsets are *derived* from the geometry, never
stored, so the header cannot contradict the layout.

Like the ordering cache (:mod:`repro.ordering.store`), the store is
self-healing and never raises on damaged entries: a bad magic, torn
header, short file, or (when verification is on) a content-hash
mismatch quarantines the file to ``<entry>.bad`` and reports a miss, so
callers rebuild and rewrite.  Writes are atomic (temp + ``os.replace``)
and the ``cache-corrupt`` injected fault tears fresh entries to keep
the recovery path property-tested.  The store always lives at
``$REPRO_CACHE_DIR/graphs`` (:attr:`repro.config.Config.cache_dir`).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from ..analysis import sanitize
from ..resilience import degrade, faults
from ..resilience.store import EntryStore
from .csr import CSRGraph

__all__ = [
    "GraphStore",
    "write_graph_file",
    "read_graph_file",
    "FORMAT_VERSION",
]

MAGIC = b"RGR1"
FORMAT_VERSION = 1

#: arrays start on page boundaries so mappings are alignment-friendly.
_PAGE = 4096

#: magic + uint64 header length.
_PREAMBLE = 12

#: damaged entries raise these at parse time; all mean "quarantine".
_CORRUPTION_ERRORS = (OSError, EOFError, KeyError, ValueError, TypeError)


def _page_ceil(offset: int) -> int:
    return (offset + _PAGE - 1) // _PAGE * _PAGE


def _layout(header_len: int, n: int, mdir: int, weighted: bool):
    """(indptr, indices, weights, end) byte offsets, derived not stored."""
    indptr_off = _page_ceil(_PREAMBLE + header_len)
    indices_off = _page_ceil(indptr_off + 8 * (n + 1))
    weights_off = _page_ceil(indices_off + 8 * mdir)
    end = weights_off + 8 * mdir if weighted else indices_off + 8 * mdir
    return indptr_off, indices_off, weights_off, end


def _json_safe_meta(meta: dict | None) -> dict:
    """The JSON-representable subset of a graph's ``meta`` dict."""
    if not meta:
        return {}
    safe = {}
    for key, value in meta.items():
        try:
            json.dumps({key: value})
        except (TypeError, ValueError):
            continue
        safe[key] = value
    return safe


def write_graph_file(path: str, graph: CSRGraph) -> str:
    """Serialise ``graph`` to ``path`` atomically; returns ``path``.

    The write goes to a temp file in the target directory and is
    published with ``os.replace``, so concurrent writers of the same
    entry land identical bytes and readers never see a torn file
    (except through the deliberate ``cache-corrupt`` fault).
    """
    n = graph.num_vertices
    mdir = graph.num_directed_edges
    weighted = graph.is_weighted
    header = {
        "format": FORMAT_VERSION,
        "num_vertices": n,
        "num_directed_edges": mdir,
        "weighted": weighted,
        "content_hash": graph.content_hash(),
        "meta": _json_safe_meta(graph._meta),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    indptr_off, indices_off, weights_off, _end = _layout(
        len(header_bytes), n, mdir, weighted
    )
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".rgr"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            handle.write(len(header_bytes).to_bytes(8, "little"))
            handle.write(header_bytes)
            for offset, array in (
                (indptr_off, graph.indptr),
                (indices_off, graph.indices),
                (weights_off, graph.weights),
            ):
                if array is None:
                    continue
                handle.seek(offset)
                handle.write(np.ascontiguousarray(array).tobytes())
            # zero-length arrays write nothing; pad so the file always
            # spans the derived layout and the load-side size check is
            # uniform.
            handle.truncate(_end)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass  # degrade: scratch file on a refusing volume; no route
        raise
    faults.maybe_cache_corrupt(path)
    return path


def _read_arrays(path: str, header: dict):
    """The three CSR arrays for a parsed header, as read-only mmaps."""
    n = int(header["num_vertices"])
    mdir = int(header["num_directed_edges"])
    weighted = bool(header["weighted"])
    header_len = int(header["_header_len"])
    indptr_off, indices_off, weights_off, end = _layout(
        header_len, n, mdir, weighted
    )
    if os.path.getsize(path) < end:
        raise ValueError("short file")

    def attach(offset, dtype, count):
        if count == 0:  # zero bytes cannot be mapped
            return np.empty(0, dtype=dtype)
        return np.memmap(
            path, mode="r", dtype=dtype, offset=offset, shape=(count,)
        )

    indptr = attach(indptr_off, np.int64, n + 1)
    indices = attach(indices_off, np.int64, mdir)
    weights = attach(weights_off, np.float64, mdir) if weighted else None
    return indptr, indices, weights


def read_graph_file(path: str, *, verify: bool = False) -> CSRGraph:
    """Deserialise a ``.rgr`` file (raises on damage; see ``GraphStore``).

    With ``verify=True`` — or whenever the numeric sanitizer is armed —
    the CSR content hash is recomputed and checked against the header,
    which faults in every page.  The default trusts the structural
    validation done by the :class:`CSRGraph` constructor and stays lazy.
    """
    with open(path, "rb") as handle:
        preamble = handle.read(_PREAMBLE)
        if len(preamble) != _PREAMBLE or preamble[:4] != MAGIC:
            raise ValueError("bad magic")
        header_len = int.from_bytes(preamble[4:], "little")
        if header_len > 1 << 20:
            raise ValueError("implausible header length")
        header_bytes = handle.read(header_len)
        if len(header_bytes) != header_len:
            raise ValueError("truncated header")
    header = json.loads(header_bytes)
    if header.get("format") != FORMAT_VERSION:
        raise ValueError("stale format version")
    header["_header_len"] = header_len
    indptr, indices, weights = _read_arrays(path, header)
    graph = CSRGraph(indptr, indices, weights)
    if verify or sanitize.enabled():
        if graph.content_hash() != header["content_hash"]:
            raise ValueError("content hash mismatch")
    else:
        # the arrays were hashed at write time; adopt the digest so
        # downstream consumers (ordering and cell cache keys) do not
        # fault in every page just to recompute it.
        graph._content_hash = str(header["content_hash"])
    for key, value in dict(header.get("meta") or {}).items():
        graph.meta[key] = value
    return graph


class GraphStore(EntryStore):
    """A keyed on-disk collection of ``.rgr`` graphs with quarantine.

    Keys are caller-chosen strings (the dataset registry derives them
    from the recipe's source digest, making entries content-addressed);
    the store maps them to ``<root>/<key>.rgr`` and gives the same
    never-raise load contract as the other caches
    (:class:`repro.resilience.store.EntryStore`).  Entries are written
    and mapped in place by :func:`write_graph_file` /
    :func:`read_graph_file` rather than through a byte payload, so a
    warm load stays an ``mmap`` attach.
    """

    site = "graph-store"
    suffix = ".rgr"
    directory = "graphs"

    def path(self, key: str) -> str:
        """Full path of the entry for ``key``."""
        return os.path.join(self.root, f"{key}.rgr")

    def load(self, key: str, *, verify: bool = False) -> CSRGraph | None:
        """The stored graph, or ``None`` on a miss (never raises).

        Damaged entries are quarantined to ``<entry>.bad`` and counted
        as misses; the caller rebuilds and :meth:`save` overwrites.
        """
        path = self.path(key)
        if self.torn_read(path):
            return None
        try:
            graph = read_graph_file(path, verify=verify)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _CORRUPTION_ERRORS as exc:
            return self.reject(path, f"{exc.__class__.__name__}: {exc}")
        self.hits += 1
        return graph

    def save(self, key: str, graph: CSRGraph) -> str | None:
        """Persist ``graph`` under ``key``; returns the entry path.

        A volume refusing the write (``ENOSPC``, read-only, …) degrades
        to compute-without-cache: the error is counted and warned once
        (:mod:`repro.resilience.degrade`) and ``None`` is returned.
        ``write_graph_file`` stays strict — only the store layer owns
        the degrade-not-crash contract.
        """
        path = self.path(key)
        try:
            faults.maybe_disk_full(path)
            return write_graph_file(path, graph)
        except OSError as exc:
            # degrade: the built graph stays usable in memory; only the
            # persistent layer is lost for this entry
            degrade.record("graph-store.write", "disk-full", exc)
            return None
