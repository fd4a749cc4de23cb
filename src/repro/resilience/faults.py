"""Deterministic fault injection at the pool / store / runner seams.

``REPRO_FAULTS=<spec>`` plants faults inside the execution substrate so
the recovery paths (retry, respawn, quarantine, fallback) are exercised by
tests instead of waiting for production to exercise them.  The spec is
parsed once per process, into the :mod:`repro.config` snapshot.  The
schedule is a pure function of the spec: decisions are derived by hashing
``(seed, site key)`` through sha256, so the same spec and seed always
reproduce the same fault schedule — no RNG state, no wall-clock jitter —
satisfying the reprolint determinism rules.

Spec grammar (``;``-separated clauses, ``:``-separated fields)::

    spec    := clause (";" clause)*
    clause  := kind (":" name "=" value)*
    kind    := "worker-crash" | "cache-corrupt" | "cell-timeout"
             | "native-build-fail" | "disk-full" | "store-torn-read"
    params  := p=<float in [0,1]>   fire probability      (default 1)
               seed=<int>           schedule seed          (default 0)
               cells=<i,j,...>      restrict to cell indices

Examples::

    REPRO_FAULTS="worker-crash:p=0.1:seed=7"
    REPRO_FAULTS="cache-corrupt"
    REPRO_FAULTS="cell-timeout:p=0.5:seed=3;worker-crash:p=1:cells=2"

Fault kinds and their seams:

``worker-crash``
    The supervised pool's worker wrapper.  In a pool worker process the
    fault is *hard* — ``os._exit`` — so the supervisor's death detection
    and respawn path runs; in the sequential (``jobs=1``) path it raises
    :class:`InjectedFault`, the in-process stand-in for a death, which
    the supervisor retries like one.
``cell-timeout``
    Same seam.  In a pool worker under a deadline the cell stalls past
    it (killed + retried); otherwise it raises :class:`InjectedFault`,
    the stand-in for a timeout, retried like one.
``cache-corrupt``
    The on-disk caches (the ordering, cell and graph stores) truncate
    the entry they just wrote (a simulated torn write), so the checksum
    verification and quarantine path runs on the next load.
``native-build-fail``
    :class:`repro._native.core.NativeKernel` compilation, including warm
    ``.so`` cache hits — the kernel raises
    :class:`~repro._native.core.NativeBuildError` as if ``cc`` failed, so
    the kernel is off for the process and its scalar twin runs
    (:meth:`repro._native.core.NativeKernel.lib`).
``disk-full``
    The cache write seams (:mod:`repro.resilience.store`, shared by the
    ordering and cell caches, and :mod:`repro.graph.store`) — the write
    raises ``OSError(ENOSPC)``; the run degrades to compute-without-cache
    instead of crashing.
``store-torn-read``
    The store *read* seams — a load reports a torn/bit-rotted payload,
    driving the quarantine-and-rebuild path without real mmap SIGBUS.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import os
import time

from .. import config

__all__ = [
    "KINDS",
    "CRASH_EXIT_CODE",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "parse_spec",
    "active_plan",
    "maybe_worker_crash",
    "maybe_cell_timeout",
    "maybe_cache_corrupt",
    "maybe_native_build_fail",
    "maybe_disk_full",
    "maybe_store_torn_read",
]

#: the recognised fault kinds (see module docstring for their seams).
KINDS = (
    "worker-crash",
    "cache-corrupt",
    "cell-timeout",
    "native-build-fail",
    "disk-full",
    "store-torn-read",
)

#: exit code of a hard injected worker crash (visible in CellResult errors).
CRASH_EXIT_CODE = 73


class InjectedFault(RuntimeError):
    """An injected worker death or timeout firing in-process.

    Raised only by :func:`maybe_worker_crash` and :func:`maybe_cell_timeout`;
    the supervisor retries it, never an exception the cell itself raised.
    """


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One parsed clause of a ``REPRO_FAULTS`` spec."""

    kind: str
    p: float = 1.0
    seed: int = 0
    cells: tuple[int, ...] | None = None


def _unit(seed: int, key: str) -> float:
    """A deterministic draw in ``[0, 1)`` from ``(seed, key)``."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def parse_spec(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` value into fault clauses (fail loud)."""
    specs: list[FaultSpec] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip()
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {KINDS}"
            )
        fields: dict[str, object] = {"kind": kind}
        if rest:
            for param in rest.split(":"):
                name, sep, value = param.partition("=")
                name = name.strip()
                if not sep:
                    raise ValueError(
                        f"malformed fault parameter {param!r} in "
                        f"{clause!r} (expected name=value)"
                    )
                if name == "p":
                    p = float(value)
                    if not 0.0 <= p <= 1.0:
                        raise ValueError(f"fault probability {p} not in [0, 1]")
                    fields["p"] = p
                elif name == "seed":
                    fields["seed"] = int(value)
                elif name == "cells":
                    fields["cells"] = tuple(
                        int(c) for c in value.split(",") if c.strip()
                    )
                else:
                    raise ValueError(
                        f"unknown fault parameter {name!r} in {clause!r}"
                    )
        specs.append(FaultSpec(**fields))  # type: ignore[arg-type]
    return tuple(specs)


class FaultPlan:
    """A parsed fault spec plus the per-process injection state.

    ``decide`` is pure — the same ``(kind, key, cell)`` always returns
    the same answer for a given spec — while the plan object carries the
    small amount of per-process bookkeeping injection needs (per-entry
    corruption and dispatch counters).
    """

    def __init__(self, specs: tuple[FaultSpec, ...]) -> None:
        self.specs = specs
        self._by_kind = {spec.kind: spec for spec in specs}
        self._entry_counts: dict[str, int] = {}

    def decide(self, kind: str, key: str, cell: int | None = None) -> bool:
        """Whether the fault of ``kind`` fires at injection site ``key``."""
        spec = self._by_kind.get(kind)
        if spec is None:
            return False
        if spec.cells is not None and (
            cell is None or cell not in spec.cells
        ):
            return False
        if spec.p >= 1.0:
            return True
        return _unit(spec.seed, f"{kind}:{key}") < spec.p

    def schedule(
        self, kind: str, keys: list[str], cells: list[int] | None = None
    ) -> list[bool]:
        """The fire/skip decisions over ``keys`` (pure; for tests)."""
        if cells is None:
            return [self.decide(kind, key) for key in keys]
        return [
            self.decide(kind, key, cell)
            for key, cell in zip(keys, cells)
        ]

    def next_entry_count(self, entry: str) -> int:
        """How many times ``entry`` was probed before (then increment)."""
        nth = self._entry_counts.get(entry, 0)
        self._entry_counts[entry] = nth + 1
        return nth


def active_plan() -> FaultPlan | None:
    """The plan parsed from ``$REPRO_FAULTS``, or ``None`` when unset.

    The plan lives in the :mod:`repro.config` snapshot, so its
    per-process injection state (corruption and dispatch counters)
    lasts until :func:`repro.config.reload` builds a fresh one.
    """
    return config.get().faults


# ---------------------------------------------------------------------------
# Injection helpers (called at the seams)
# ---------------------------------------------------------------------------
def _cell_site(index: int, attempt: int) -> str:
    return f"cell:{index}:attempt:{attempt}"


def maybe_worker_crash(index: int, attempt: int, *, hard: bool) -> None:
    """Crash the current worker for ``(cell, attempt)`` if scheduled.

    ``hard=True`` (a supervised pool worker) dies with ``os._exit`` so
    the supervisor sees genuine process death; ``hard=False`` (the
    sequential path) raises :class:`InjectedFault` instead.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.decide("worker-crash", _cell_site(index, attempt), cell=index):
        if hard:
            os._exit(CRASH_EXIT_CODE)
        raise InjectedFault(
            f"injected worker-crash at cell {index} attempt {attempt}"
        )


def maybe_cell_timeout(
    index: int, attempt: int, *, stall_seconds: float | None
) -> None:
    """Stall (or fail) the current cell for ``(cell, attempt)``.

    With a stall duration (a supervised worker under a configured
    timeout) the cell sleeps past its deadline so the supervisor's
    kill-and-retry path runs; without one it raises
    :class:`InjectedFault`.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.decide("cell-timeout", _cell_site(index, attempt), cell=index):
        if stall_seconds is not None:
            time.sleep(stall_seconds)
            return
        raise InjectedFault(
            f"injected cell-timeout at cell {index} attempt {attempt}"
        )


def _entry_key(path: str) -> str:
    """A machine-independent key for a cache entry path.

    Cache entries are content-addressed (``<graph-hash>/<scheme>-<key>``),
    so keying the schedule on the last two path components keeps it
    reproducible across cache roots and machines.
    """
    return "/".join(path.replace(os.sep, "/").split("/")[-2:])


def maybe_cache_corrupt(path: str) -> bool:
    """Truncate the cache entry at ``path`` if scheduled (torn write).

    Returns whether the entry was corrupted.  The schedule is keyed by
    the content-addressed entry name plus how many times this process
    wrote it, so repeated recomputations draw fresh (but reproducible)
    decisions.
    """
    plan = active_plan()
    if plan is None:
        return False
    entry = _entry_key(path)
    nth = plan.next_entry_count(entry)
    if not plan.decide("cache-corrupt", f"{entry}:{nth}"):
        return False
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 2))
    return True


def maybe_native_build_fail(kernel: str) -> bool:
    """Whether compilation of native ``kernel`` should fail this process.

    Checked at the very top of the build path so the fault fires even on
    a warm ``.so`` cache; the schedule is keyed by kernel name alone so
    one kernel fails identically in every process of a run.
    """
    plan = active_plan()
    if plan is None:
        return False
    return plan.decide("native-build-fail", f"native-build:{kernel}")


def maybe_disk_full(path: str) -> None:
    """Raise ``OSError(ENOSPC)`` for the cache write at ``path`` if scheduled.

    Keyed like :func:`maybe_cache_corrupt` — the content-addressed entry
    name plus this process's write count for it — so retried writes draw
    fresh reproducible decisions.
    """
    plan = active_plan()
    if plan is None:
        return
    entry = _entry_key(path)
    nth = plan.next_entry_count(f"disk-full:{entry}")
    if plan.decide("disk-full", f"{entry}:{nth}"):
        raise OSError(
            errno.ENOSPC, f"injected disk-full writing cache entry {entry}"
        )


def maybe_store_torn_read(path: str) -> bool:
    """Whether the store load of ``path`` should report a torn payload.

    Returns True when the reader must treat the entry as corrupted (the
    deterministic stand-in for an mmap SIGBUS / bit-rot mid-read);
    the caller routes it through its quarantine-and-rebuild path.  Keyed
    per entry and per-process read count so the rebuilt entry's next
    read draws a fresh decision instead of looping forever.
    """
    plan = active_plan()
    if plan is None:
        return False
    entry = _entry_key(path)
    nth = plan.next_entry_count(f"torn-read:{entry}")
    return plan.decide("store-torn-read", f"{entry}:{nth}")
