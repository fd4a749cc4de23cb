"""Append-only run journal: checkpoint/resume for experiment grids.

Every supervised bench run can journal its cells to::

    $REPRO_CACHE_DIR/runs/<run-id>/journal.jsonl

The journal is append-only JSONL — one object per line — so a killed
run loses at most its torn final line (the reader skips unparsable
lines).  Record types (readers ignore unknown ones):

``{"type": "meta", ...}``
    Written once at run start: the experiment ids, dataset/scheme
    filters, and pool width, so ``python -m repro.bench --resume
    <run-id>`` can replay the same grid without re-specifying it.
``{"type": "cell", "key": ..., "kind": ..., "status": ...}``
    One per completed (or degraded) cell.  ``key`` is the cell's
    content-hash (:func:`cell_key` over the dataset name and the
    scheme's ``cache_token``), ``status`` is ``"ok"`` or ``"degraded"``,
    and small JSON-safe results (gap measures, perf-stage reports,
    rendered experiment text) ride along in ``value`` so a resumed run
    replays them without recomputing.  Ordering cells carry no value —
    their payload lives in the content-addressed ordering store, which a
    resume turns into pure cache hits.
``{"type": "health", ...}``
    Written once at run end: the degradation health report
    (:func:`repro.resilience.degrade.health_report`) — counters and
    events — so a journaled run records *how* it was
    computed, not just that it finished.

Only the process that opened the journal writes to it (pool workers
inherit the handle via fork but their ``record`` calls are no-ops), so
parallel fan-out cannot interleave torn records.

The process-wide *active* journal (:func:`activate` /
:func:`active_journal`) is what :mod:`repro.bench.runners` consults; it
is ``None`` unless a run id was given, so default runs pay nothing.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Iterator

import hashlib

from . import degrade, faults
from .store import cache_root

__all__ = [
    "RunJournal",
    "cell_key",
    "activate",
    "deactivate",
    "active_journal",
    "using_run",
    "run_directory",
    "list_runs",
]

def _runs_root(root: str | None) -> str:
    return os.path.join(root or cache_root(), "runs")


def run_directory(run_id: str, root: str | None = None) -> str:
    """The on-disk directory of ``run_id`` (not created)."""
    return os.path.join(_runs_root(root), run_id)


def list_runs(root: str | None = None) -> list[str]:
    """Journaled run ids under the cache root, sorted."""
    runs_root = _runs_root(root)
    if not os.path.isdir(runs_root):
        return []
    return sorted(
        name for name in os.listdir(runs_root)
        if os.path.isfile(os.path.join(runs_root, name, "journal.jsonl"))
    )


def cell_key(*parts: object) -> str:
    """A stable content-hash key for a cell identified by ``parts``.

    Parts are serialised canonically (JSON, sorted keys) before
    hashing, so logically equal cells map to equal keys across
    processes and sessions.
    """
    canonical = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class RunJournal:
    """One run's append-only journal (see module docstring)."""

    def __init__(self, run_id: str, root: str | None = None) -> None:
        if not run_id or any(sep in run_id for sep in ("/", "\\", "..")):
            raise ValueError(f"invalid run id {run_id!r}")
        self.run_id = run_id
        self.directory = run_directory(run_id, root)
        self.path = os.path.join(self.directory, "journal.jsonl")
        self._pid = os.getpid()
        self._meta: dict | None = None
        self._entries: dict[str, dict] = {}
        self._written: set[tuple[str, str]] = set()
        self._replayed_keys: set[str] = set()
        self._computed_keys: set[str] = set()
        self._records_written = 0
        self._torn_tail = False
        self._load()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Parse any existing journal, tolerating a torn final line."""
        if not os.path.isfile(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            content = handle.read()
        # A kill mid-write leaves a final line with no newline; the next
        # append must not glue a fresh record onto the torn fragment.
        self._torn_tail = bool(content) and not content.endswith("\n")
        for line in content.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue  # torn write from a killed run
            if not isinstance(obj, dict):
                continue
            if obj.get("type") == "meta":
                self._meta = obj
            elif obj.get("type") == "cell" and "key" in obj:
                key = str(obj["key"])
                self._entries[key] = obj
                # Replaying a resumed cell must not re-append it.
                self._written.add((key, str(obj.get("status"))))

    @property
    def exists(self) -> bool:
        """Whether a journal file is on disk for this run id."""
        return os.path.isfile(self.path)

    def meta(self) -> dict | None:
        """The run's meta record (experiment selection), or ``None``."""
        return self._meta

    def lookup(self, key: str) -> dict | None:
        """The journaled cell record for ``key`` (last write wins)."""
        return self._entries.get(key)

    def entries(self) -> dict[str, dict]:
        """Every journaled cell record, keyed by cell hash."""
        return dict(self._entries)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, obj: dict) -> None:
        """Append one record; a refusing volume degrades, never crashes.

        ``ENOSPC``/``OSError`` on the journal write costs this run its
        checkpoint/resume granularity for the record — a recorded,
        counted degradation (:mod:`repro.resilience.degrade`) — but must
        not take down the run the journal exists to protect.
        """
        line = json.dumps(obj, sort_keys=True, default=str)
        if self._torn_tail:
            line = "\n" + line
        try:
            faults.maybe_disk_full(self.path)
            os.makedirs(self.directory, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError as exc:
            # degrade: keep the in-memory record; only persistence is lost
            degrade.record("run-journal.write", "disk-full", exc)
            return
        self._torn_tail = False

    def write_meta(self, **fields: object) -> None:
        """Record the run's experiment selection (once, at run start)."""
        if os.getpid() != self._pid:
            return
        obj: dict = {"type": "meta", "run_id": self.run_id, **fields}
        self._append(obj)
        self._meta = obj

    def write_health(self, report: dict | None = None) -> None:
        """Append the run's degradation health report (parent only).

        One ``{"type": "health", ...}`` record at run end; readers of
        older journals ignore the unknown type (``_load`` only keeps
        ``meta``/``cell`` records), so the schema stays
        backwards-compatible.
        """
        if os.getpid() != self._pid:
            return
        if report is None:
            report = degrade.health_report()
        self._append({"type": "health", "run_id": self.run_id, **report})

    def record(
        self,
        key: str,
        *,
        kind: str,
        status: str,
        label: str | None = None,
        value: object = None,
        error: str | None = None,
        attempts: int = 1,
        duration: float = 0.0,
    ) -> None:
        """Append one cell record (idempotent per key/status, parent only).

        Pool workers that inherited this journal via fork never write —
        the parent records on their behalf from the supervised results —
        and re-recording an identical (key, status) pair is a no-op, so
        the sequential and warmed paths cannot duplicate records.
        """
        if os.getpid() != self._pid:
            return
        if (key, status) in self._written:
            return
        obj: dict = {
            "type": "cell",
            "key": key,
            "kind": kind,
            "status": status,
            "attempts": int(attempts),
            "duration": round(float(duration), 6),
        }
        if label is not None:
            obj["label"] = label
        if value is not None:
            obj["value"] = value
        if error is not None:
            obj["error"] = error
        self._append(obj)
        self._written.add((key, status))
        self._entries[key] = obj
        if status == "ok":
            self._computed_keys.add(key)
        self._records_written += 1
        faults.maybe_run_abort(self._records_written)

    # ------------------------------------------------------------------
    # Replay accounting
    # ------------------------------------------------------------------
    def mark_replayed(self, key: str) -> None:
        """Count ``key`` as served from the journal (once per process)."""
        self._replayed_keys.add(key)

    @property
    def replayed(self) -> int:
        """Distinct cells this process served from the journal."""
        return len(self._replayed_keys)

    @property
    def computed(self) -> int:
        """Distinct cells this process computed fresh (recorded ok)."""
        return len(self._computed_keys)


_active: RunJournal | None = None


def activate(journal: RunJournal) -> None:
    """Install ``journal`` as the process-wide active run journal."""
    global _active
    _active = journal


def deactivate() -> None:
    """Clear the active run journal."""
    global _active
    _active = None


def active_journal() -> RunJournal | None:
    """The active run journal, or ``None`` outside a journaled run."""
    return _active


@contextlib.contextmanager
def using_run(journal: RunJournal) -> Iterator[RunJournal]:
    """Scope ``journal`` as the active journal for a ``with`` block."""
    previous = _active
    activate(journal)
    try:
        yield journal
    finally:
        if previous is None:
            deactivate()
        else:
            activate(previous)
