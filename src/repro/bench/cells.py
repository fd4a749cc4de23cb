"""Content-addressed store of the application cells of Figures 9–12.

A community-detection or influence-maximization cell is a deterministic
simulation: its report is a pure function of (graph content, the
ordering's permutation, the cell parameters, the code).  Every warm
paper run used to recompute all of them anyway — Louvain runs and cache
replays whose answers were already known — and within one cold run
Figure 10 recomputed Figure 9's cells and Figure 12 recomputed Figure
11's.  This store persists each report once::

    $REPRO_CACHE_DIR/cells/<kind>/<key>.json

    key = cell_key(kind, graph.content_hash(), sha256(permutation),
                   params, source_digest())

``params`` carries everything else the report depends on (the ordering
scheme's name, which the report records, plus thread count, sample
budget, …).  :func:`source_digest` hashes the source of every module in
the ``repro`` package — the same idiom as the dataset registry's recipe
digest — so *any* code edit invalidates every entry and a stale result
can never be replayed.

Entries hold the report dataclass as JSON under a sha256 seal: float
``repr`` round-trips exactly (``NaN``/``Infinity`` included), tuples
come back as tuples, and numpy scalars keep their dtype, so a replayed
report ``==`` the computed one and renders the same text.  The file
mechanics — atomic writes, quarantine of damaged entries, disk-full
degrade, fault seams — are the shared
:class:`repro.resilience.store.EntryStore`'s.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from ..apps.community_detection import (
    ColoredExecutionResult,
    CommunityDetectionReport,
)
from ..apps.influence_max import InfluenceMaxReport
from ..graph.csr import CSRGraph
from ..ordering.base import Ordering
from ..resilience.store import EntryStore
from ..simulator.counters import CounterReport
from ..simulator.parallel import ExecutionResult

__all__ = [
    "CellStore",
    "cached_cell",
    "cell_key",
    "entry_key",
    "source_digest",
]

R = TypeVar("R")

#: bump to invalidate every persisted entry at once (format changes).
_FORMAT_VERSION = 1

#: the dataclasses an entry may hold, by class name (nothing else is
#: ever instantiated from disk).
_TYPES = {
    cls.__name__: cls
    for cls in (
        CommunityDetectionReport,
        InfluenceMaxReport,
        ExecutionResult,
        ColoredExecutionResult,
        CounterReport,
    )
}

#: failures a damaged or foreign entry can raise while being decoded.
_CORRUPTION_ERRORS = (ValueError, KeyError, TypeError, AttributeError)

#: memoised digest of the package source (computed once per process).
_source_digest: str | None = None


def cell_key(*parts: object) -> str:
    """A stable content-hash key for a cell identified by ``parts``.

    Parts are serialised canonically (JSON, sorted keys) before
    hashing, so logically equal cells map to equal keys across
    processes and sessions.
    """
    canonical = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


def source_digest() -> str:
    """sha256 over the path and bytes of every module in ``repro``."""
    global _source_digest
    if _source_digest is None:
        package = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        digest.update(f"cells{_FORMAT_VERSION}:".encode())
        for path in sorted(package.rglob("*.py")):
            digest.update(path.relative_to(package).as_posix().encode())
            digest.update(b":")
            digest.update(path.read_bytes())
            digest.update(b":")
        _source_digest = digest.hexdigest()
    return _source_digest


def entry_key(
    kind: str, graph: CSRGraph, ordering: Ordering, params: dict
) -> str:
    """The content-addressed key of one cell (see the module docstring)."""
    permutation = np.ascontiguousarray(ordering.permutation, dtype=np.int64)
    return cell_key(
        kind,
        graph.content_hash(),
        hashlib.sha256(permutation.tobytes()).hexdigest(),
        params,
        source_digest(),
    )


def _encode(value):
    """A JSON-ready view of a report that :func:`_decode` inverts."""
    if dataclasses.is_dataclass(value):
        fields = {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, np.generic):
        return {"__numpy__": value.dtype.str, "value": value.item()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot persist a {type(value).__name__} in a cell")


def _decode(value):
    if isinstance(value, list):
        return tuple(_decode(item) for item in value)
    if not isinstance(value, dict):
        return value
    if "__numpy__" in value:
        return np.dtype(value["__numpy__"]).type(value["value"])
    fields = dict(value)
    cls = _TYPES[fields.pop("__type__")]
    return cls(**{name: _decode(item) for name, item in fields.items()})


def _seal(report_json: str) -> str:
    return hashlib.sha256(
        f"fmt{_FORMAT_VERSION}:{report_json}".encode()
    ).hexdigest()


class CellStore(EntryStore):
    """A content-addressed on-disk cache of application-cell reports."""

    site = "cell-store"
    suffix = ".json"
    directory = "cells"

    def entry_path(self, kind: str, key: str) -> str:
        """Full path of the entry for ``key`` of ``kind``."""
        return os.path.join(self.root, kind, f"{key}{self.suffix}")

    def load(self, kind: str, key: str):
        """The stored report, or ``None`` on a miss (never raises).

        Damaged entries — torn JSON, checksum mismatch, stale schema,
        unknown types — are quarantined to ``<entry>.bad`` and counted
        as misses.
        """
        path = self.entry_path(kind, key)
        data = self.read(path)
        if data is None:
            return None
        try:
            entry = json.loads(data)
            if entry["schema"] != _FORMAT_VERSION:
                return self.reject(path, "stale schema version")
            report_json = json.dumps(entry["report"], sort_keys=True)
            if entry["checksum"] != _seal(report_json):
                return self.reject(path, "checksum mismatch")
            report = _decode(entry["report"])
        except _CORRUPTION_ERRORS as exc:
            return self.reject(path, f"unreadable entry: {exc!r}")
        self.hits += 1
        return report

    def store(self, kind: str, key: str, report) -> str | None:
        """Persist ``report`` atomically; ``None`` if the volume refused."""
        encoded = _encode(report)
        payload = json.dumps(
            {
                "schema": _FORMAT_VERSION,
                "kind": kind,
                "checksum": _seal(json.dumps(encoded, sort_keys=True)),
                "report": encoded,
            },
            sort_keys=True,
        )
        return self.write(self.entry_path(kind, key), payload.encode())

    def get_or_compute(
        self, kind: str, key: str, compute: Callable[[], R]
    ) -> R:
        """The stored report for ``key``, computing and storing on a miss."""
        cached = self.load(kind, key)
        if cached is not None:
            return cached
        report = compute()
        self.store(kind, key, report)
        return report


def cached_cell(
    kind: str,
    graph: CSRGraph,
    ordering: Ordering,
    params: dict,
    compute: Callable[[], R],
) -> R:
    """``compute()`` for one cell, through the process-wide store."""
    return CellStore.default().get_or_compute(
        kind, entry_key(kind, graph, ordering, params), compute
    )
