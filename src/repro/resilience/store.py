"""The file mechanics shared by the content-addressed on-disk caches.

The ordering cache (:mod:`repro.ordering.store`), the application cell
cache (:mod:`repro.bench.cells`) and the graph store
(:mod:`repro.graph.store`) keep different payloads under one contract,
implemented once here:

* **atomic writes** — a temp file in the entry's directory published
  with ``os.replace``, so concurrent pool workers can share a cache
  directory; the worst case is two workers landing identical bytes;
* **degrade, never crash** — a volume refusing a write (``ENOSPC``,
  read-only, …) is counted under ``<site>.write:disk-full`` and warned
  once (:mod:`repro.resilience.degrade`); the caller keeps its computed
  value and only loses the persistent copy;
* **quarantine** — a damaged entry (torn, truncated, stale schema,
  checksum mismatch) is moved aside to ``<entry>.bad``, counted under
  ``<site>:quarantined`` and reported as a miss, so the caller
  recomputes and rewrites it; no exception escapes a load;
* **fault seams** — the ``disk-full``, ``cache-corrupt`` and
  ``store-torn-read`` kinds of :mod:`repro.resilience.faults` fire here,
  which keeps every recovery path above tested.

Every store lives in its own directory under one cache root,
``$REPRO_CACHE_DIR`` (default ``.repro-cache/``); :func:`cache_root` is
the only reader of that variable.  Because every store is
content-addressed, re-running a killed command is how it resumes: the
entries it committed before the kill come back as hits.

Subclasses own their keys and payload formats (and their checksums);
this class owns the files and the hit/miss/quarantine counters.
"""

from __future__ import annotations

import os
import tempfile
from typing import TypeVar

from . import degrade, faults

__all__ = ["EntryStore", "cache_root"]

DEFAULT_CACHE_DIR = ".repro-cache"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_S = TypeVar("_S", bound="EntryStore")


def cache_root() -> str:
    """The directory every persistent store lives under.

    Re-read on every call (tests repoint it per test).
    """
    return os.environ.get(ENV_CACHE_DIR) or DEFAULT_CACHE_DIR


class EntryStore:
    """A directory of cache entries with the shared never-raise contract."""

    #: degradation site name (``<site>:quarantined``, ``<site>.write:…``).
    site = "store"

    #: entry file suffix; :meth:`entry_count` counts files ending in it.
    suffix = ""

    #: the store's subdirectory of the cache root (set by each subclass).
    directory: str

    def __init__(self, root: str | None = None) -> None:
        self.root = os.path.join(root or cache_root(), self.directory)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    @classmethod
    def default(cls: type[_S]) -> _S:
        """The process-wide store of this kind under :func:`cache_root`.

        The root is re-resolved on every call; hit/miss counters persist
        per (store kind, root) for the life of the process.
        """
        root = cache_root()
        store = _DEFAULTS.get((cls, root))
        if store is None:
            store = _DEFAULTS[(cls, root)] = cls(root)
        return store

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def quarantine(self, path: str, reason: str) -> None:
        """Move a damaged entry aside as ``<entry>.bad`` (never raises).

        Quarantined files keep the evidence for post-mortems without
        ever being picked up as entries again.  Every quarantine — and
        every failure to quarantine — increments a named degradation
        counter instead of vanishing.
        """
        try:
            os.replace(path, path + ".bad")
            self.quarantined += 1
        except OSError as exc:
            # degrade: could not even move the damaged entry aside
            degrade.record(self.site, "quarantine-failed", exc)
            return
        degrade.record(
            self.site, "quarantined", f"{os.path.basename(path)}: {reason}"
        )

    def reject(self, path: str, reason: str) -> None:
        """Quarantine ``path`` and count the lookup as a miss.

        Returns ``None`` so loads can ``return self.reject(...)``.
        """
        self.quarantine(path, reason)
        self.misses += 1

    def torn_read(self, path: str) -> bool:
        """Whether an injected ``store-torn-read`` hit ``path``.

        The deterministic stand-in for an mmap SIGBUS or a torn page:
        the entry takes the same quarantine-and-rebuild path a
        genuinely damaged file takes (and the miss is counted).
        """
        if os.path.isfile(path) and faults.maybe_store_torn_read(path):
            self.reject(path, "injected store-torn-read")
            return True
        return False

    def read(self, path: str) -> bytes | None:
        """The raw bytes of the entry at ``path``, or ``None`` on a miss.

        A missing file is a plain miss; an unreadable one is rejected.
        A hit is only counted once the caller has validated the bytes.
        """
        if self.torn_read(path):
            return None
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            return self.reject(path, f"unreadable entry: {exc}")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, path: str, payload: bytes) -> str | None:
        """Publish ``payload`` at ``path`` atomically; returns the path.

        ``None`` means the volume refused the write and the run goes on
        without this entry.  The ``cache-corrupt`` injected fault tears
        the freshly written entry here (a simulated torn write) so the
        next load's verification and quarantine path stays tested.
        """
        tmp_path = None
        try:
            faults.maybe_disk_full(path)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".tmp-", suffix=self.suffix
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except OSError as exc:
            _discard_tmp(tmp_path)
            # degrade: the run keeps the computed value in memory and
            # simply loses the persistent layer for this entry
            degrade.record(f"{self.site}.write", "disk-full", exc)
            return None
        except BaseException:
            _discard_tmp(tmp_path)
            raise
        faults.maybe_cache_corrupt(path)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _files(self):
        """``(directory, name)`` of every file under the root."""
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                yield dirpath, name

    def clear(self) -> int:
        """Delete every entry (and quarantined file); returns the count.

        Only files this store writes are removed — entries, their
        scratch files and ``.bad`` quarantines — so a root shared with
        other files keeps them.
        """
        removed = 0
        for dirpath, name in list(self._files()):
            if not name.endswith((self.suffix, ".bad")):
                continue
            try:
                os.unlink(os.path.join(dirpath, name))
                removed += 1
            except OSError:
                pass  # degrade: explicit maintenance; nothing to route
        return removed

    def entry_count(self) -> int:
        """Number of live entries on disk."""
        return sum(
            1 for _dirpath, name in self._files()
            if name.endswith(self.suffix) and not name.startswith(".tmp-")
        )

    def quarantined_count(self) -> int:
        """Number of quarantined ``.bad`` files currently on disk."""
        return sum(1 for _dirpath, name in self._files()
                   if name.endswith(".bad"))


def _discard_tmp(tmp_path: str | None) -> None:
    """Best-effort scratch-file cleanup after a failed write."""
    if tmp_path is None:
        return
    try:
        os.unlink(tmp_path)
    except OSError:
        pass  # degrade: scratch file on a refusing volume; no route


_DEFAULTS: dict[tuple[type, str], EntryStore] = {}
