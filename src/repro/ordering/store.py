"""Persistent content-addressed ordering cache.

Orderings are pure functions of (graph content, scheme configuration):
every scheme is deterministic under a fixed seed, and the vector/scalar
engines are bit-identical by contract.  That makes orderings safe to cache
across processes — repeated figure runs, parallel bench workers, and CI
jobs all skip recomputation once a cache entry exists.

Layout (under ``$REPRO_CACHE_DIR``, default ``.repro-cache/``)::

    .repro-cache/orderings/<graph-hash>/<scheme>-<key-hash>.npz

``graph-hash`` is :meth:`repro.graph.csr.CSRGraph.content_hash` (sha256 of
the CSR arrays), ``key-hash`` digests the scheme's
:meth:`~repro.ordering.base.OrderingScheme.cache_token` (name, algorithm
version, and every declared constructor parameter).  Entries store the
permutation plus the operation count and metadata, so a cache hit
reproduces the fresh :class:`~repro.ordering.base.Ordering` exactly.

The store is **self-healing**: every entry records a sha256 over its
payload (permutation bytes, cost, metadata, schema version) at write
time, and loads verify it.  A corrupt, truncated, or stale-schema entry
is quarantined to ``<entry>.bad`` and treated as a miss — it gets
recomputed and rewritten, and no exception ever escapes the store.  The
file mechanics (atomic writes, quarantine, disk-full degrade, fault
seams) are shared with the other caches through
:class:`repro.resilience.store.EntryStore`.

The store is always on; a volume that refuses writes degrades to
compute-without-cache (see :class:`~repro.resilience.store.EntryStore`).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile

import numpy as np

from ..graph.csr import CSRGraph
from ..resilience.store import EntryStore
from .base import Ordering, OrderingScheme

__all__ = ["OrderingStore", "cached_order"]

#: bump to invalidate every persisted entry at once (format changes).
#: v2 added the per-entry schema tag and payload checksum.
_FORMAT_VERSION = 2

#: every array an entry must carry; anything less is a stale schema.
_REQUIRED_FIELDS = frozenset(
    {"permutation", "cost", "metadata", "schema", "checksum"}
)

#: parse-level failures a damaged npz can raise; anything in here is
#: treated as corruption (quarantine + miss), never propagated.
_CORRUPTION_ERRORS = (
    OSError,
    EOFError,
    KeyError,
    ValueError,
    zipfile.BadZipFile,
)


class OrderingStore(EntryStore):
    """A content-addressed on-disk cache of :class:`Ordering` results."""

    site = "ordering-store"
    suffix = ".npz"
    directory = "orderings"

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def entry_name(scheme: OrderingScheme) -> str:
        """File name (sans directory) for a scheme configuration."""
        token = scheme.cache_token()
        digest = hashlib.sha256(
            f"fmt{_FORMAT_VERSION}:{token}".encode()
        ).hexdigest()[:16]
        return f"{scheme.name}-{digest}.npz"

    def entry_path(self, graph: CSRGraph, scheme: OrderingScheme) -> str:
        """Full path of the cache entry for (graph, scheme config)."""
        return os.path.join(
            self.root, graph.content_hash(), self.entry_name(scheme)
        )

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    @staticmethod
    def _payload_digest(
        permutation: np.ndarray, cost: int, metadata_json: str
    ) -> str:
        """sha256 over everything an entry stores (the write-time seal)."""
        digest = hashlib.sha256()
        digest.update(
            f"fmt{_FORMAT_VERSION}:{int(cost)}:{metadata_json}:".encode()
        )
        digest.update(
            np.ascontiguousarray(permutation, dtype=np.int64).tobytes()
        )
        return digest.hexdigest()

    def load(
        self, graph: CSRGraph, scheme: OrderingScheme
    ) -> Ordering | None:
        """The cached ordering, or ``None`` on a miss (counted).

        Damaged entries — truncated archives, checksum mismatches,
        stale schemas, wrong-sized permutations — are quarantined to
        ``<entry>.bad`` and reported as a miss; no exception escapes.
        """
        path = self.entry_path(graph, scheme)
        data = self.read(path)
        if data is None:
            return None
        try:
            with np.load(io.BytesIO(data), allow_pickle=False) as bundle:
                if not _REQUIRED_FIELDS <= set(bundle.files):
                    return self.reject(path, "stale schema (missing fields)")
                if int(bundle["schema"]) != _FORMAT_VERSION:
                    return self.reject(path, "stale schema version")
                permutation = bundle["permutation"].astype(np.int64)
                cost = int(bundle["cost"])
                metadata_json = str(bundle["metadata"])
                checksum = str(bundle["checksum"])
        except _CORRUPTION_ERRORS:
            return self.reject(path, "unreadable entry")
        if checksum != self._payload_digest(permutation, cost, metadata_json):
            return self.reject(path, "checksum mismatch")
        if permutation.size != graph.num_vertices:
            return self.reject(path, "wrong-sized permutation (stale entry)")
        self.hits += 1
        return Ordering(
            scheme=scheme.name,
            permutation=permutation,
            cost=cost,
            metadata=json.loads(metadata_json),
        )

    def store(
        self, graph: CSRGraph, scheme: OrderingScheme, ordering: Ordering
    ) -> str | None:
        """Persist ``ordering`` atomically; returns the entry path.

        The entry carries its schema version and a sha256 over the full
        payload so :meth:`load` can verify it byte-for-byte.  ``None``
        means the cache volume refused the write (``ENOSPC``,
        read-only, …): the run continues without the persistent copy.
        """
        permutation = ordering.permutation.astype(np.int64)
        metadata_json = json.dumps(ordering.metadata, sort_keys=True)
        payload = io.BytesIO()
        np.savez(
            payload,
            permutation=permutation,
            cost=np.int64(ordering.cost),
            metadata=metadata_json,
            schema=np.int64(_FORMAT_VERSION),
            checksum=self._payload_digest(
                permutation, ordering.cost, metadata_json
            ),
        )
        return self.write(
            self.entry_path(graph, scheme), payload.getvalue()
        )

    def get_or_compute(
        self, graph: CSRGraph, scheme: OrderingScheme
    ) -> Ordering:
        """Cache-through ordering computation."""
        cached = self.load(graph, scheme)
        if cached is not None:
            return cached
        ordering = scheme.order(graph)
        self.store(graph, scheme, ordering)
        return ordering


def cached_order(graph: CSRGraph, scheme: OrderingScheme) -> Ordering:
    """``scheme`` on ``graph``, through the process-wide store.

    The one way bench code turns a configured scheme instance into an
    ordering: a hit skips the computation, and a miss is stored for
    every later run (and every pool worker) to reuse.
    """
    return OrderingStore.default().get_or_compute(graph, scheme)
