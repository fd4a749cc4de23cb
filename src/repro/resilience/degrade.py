"""Process-wide degradation record: counters, events, health.

Every fallback the run absorbs instead of crashing routes through
:func:`record`: one warning per ``(site, kind)``, a named counter, a
bounded event log.  Two families feed it:

* **Native kernels.**  A kernel whose build fails is off for the rest
  of the process (:meth:`repro._native.core.NativeKernel.lib`); every
  call runs the Python tier — for most kernels their declared
  ``scalar_twin``.  A failed build stays failed, so there is nothing
  to retry.  Twins are bit-identical by contract, so the downgrade
  never changes results, only the tier recorded in
  :data:`~repro.engine.ENGINE_METADATA_KEY` metadata.  An exception a
  kernel's dispatch raises is a bug, not a fallback: it propagates.
* **Resource pressure** — disk-full cache write, quarantined store
  entry: the run degrades to compute-without-cache.

The whole picture is queryable as a **health report**
(:func:`health_report` / :func:`format_health`, surfaced by
``python -m repro.bench ... --health``).  Failed grid cells are a
different thing — missing results, not a slower tier —
and are reported by :mod:`repro.bench.runners` and the bench CLI.

State is per-process.  Supervised pool workers ship their degradation
events back to the parent piggybacked on result messages
(:func:`drain_outbox` in the worker, :func:`absorb` in the parent), so
the parent's health report covers the whole run.
"""

from __future__ import annotations

import sys
import threading

__all__ = [
    "MAX_EVENTS",
    "record",
    "counters",
    "events",
    "reset",
    "drain_outbox",
    "absorb",
    "health_report",
    "format_health",
]

#: cap on the retained event log (counters keep exact totals past it).
MAX_EVENTS = 256


_lock = threading.Lock()
_counters: dict[str, int] = {}
_events: list[dict] = []
_outbox: list[dict] = []
_warned: set[tuple[str, str]] = set()


def record(site: str, kind: str, detail: str) -> None:
    """Register one degradation at ``site`` of ``kind``.

    Increments the ``site:kind`` counter, appends a bounded event,
    queues it for worker-to-parent transport, and prints one warning per
    ``(site, kind)`` to stderr.
    """
    detail = str(detail)
    event = {"site": site, "kind": kind, "detail": detail}
    with _lock:
        _counters[f"{site}:{kind}"] = _counters.get(f"{site}:{kind}", 0) + 1
        if len(_events) < MAX_EVENTS:
            _events.append(event)
        _outbox.append(event)
        warn = (site, kind) not in _warned
        _warned.add((site, kind))
    if warn:
        print(f"[degrade] {site}: {kind}: {detail}", file=sys.stderr)


def counters() -> dict[str, int]:
    """A sorted snapshot of the degradation counters."""
    with _lock:
        return dict(sorted(_counters.items()))


def events() -> list[dict]:
    """A snapshot of the (bounded) degradation event log."""
    with _lock:
        return [dict(event) for event in _events]


def reset() -> None:
    """Clear all degradation state (tests; new in-process runs)."""
    with _lock:
        _counters.clear()
        _events.clear()
        _outbox.clear()
        _warned.clear()


# ---------------------------------------------------------------------------
# Worker-to-parent event transport
# ---------------------------------------------------------------------------
def drain_outbox() -> list[dict]:
    """Take (and clear) the events queued since the last drain.

    Pool workers call this when building a result message; the events
    ride back to the parent on the result pipe.
    """
    with _lock:
        drained = list(_outbox)
        _outbox.clear()
    return drained


def absorb(events_in: list[dict] | None) -> None:
    """Merge a worker's drained events into this process's state.

    Counters and the event log are updated; the warning dedup set is
    too, but no warning is re-printed — the worker already warned on
    its own stderr, which the supervisor inherits.
    """
    if not events_in:
        return
    with _lock:
        for event in events_in:
            site = str(event.get("site", "?"))
            kind = str(event.get("kind", "?"))
            key = f"{site}:{kind}"
            _counters[key] = _counters.get(key, 0) + 1
            if len(_events) < MAX_EVENTS:
                _events.append(dict(event))
            _warned.add((site, kind))


# ---------------------------------------------------------------------------
# Health reporting
# ---------------------------------------------------------------------------
def health_report() -> dict:
    """A JSON-safe snapshot of the process's degradation state."""
    with _lock:
        snapshot_counters = dict(sorted(_counters.items()))
        snapshot_events = [dict(event) for event in _events]
    return {
        "healthy": not snapshot_counters,
        "counters": snapshot_counters,
        "events": snapshot_events,
    }


def format_health(report: dict | None = None) -> str:
    """Human-readable health lines (the ``--health`` flag's output)."""
    if report is None:
        report = health_report()
    counts = report.get("counters", {})
    if report.get("healthy"):
        lines = ["[health] ok (no degradation recorded)"]
    else:
        lines = [f"[health] degraded-sites={len(counts)}"]
    for key, count in counts.items():
        lines.append(f"[counter] {key}: {count}")
    return "\n".join(lines)
