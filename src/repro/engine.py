"""Engine selection for the vectorized ordering/partition hot paths.

Mirroring the batched trace-replay engine of :mod:`repro.simulator.batch`,
every expensive ordering construction keeps a **tiered** implementation,
two tiers per loop:

* a *scalar* reference — the original per-vertex/per-edge Python loops,
  kept as ground truth and exercised by the equivalence tests;
* one faster tier, required to be **bit-identical** to the scalar path
  (same permutation, same operation counts, same metadata) — either
  a *vector* tier (numpy frontier-at-a-time traversals and array-based
  aggregation) or, for the few loops that resist vectorisation, a
  *native* lazily compiled C kernel (:mod:`repro._native`).

There are two engines.  ``"native"`` runs each loop's faster tier: its
C kernel where it has one, its vector tier otherwise.  On a host whose
kernels did not build (no C compiler, or a failed build) a loop with a
kernel runs the Python twin the kernel is checked against, and a loop
without one still runs its vector tier.  ``"scalar"`` runs every
reference loop.

This resolution is the one switch that decides which tier runs: every
dispatch site asks :func:`resolve_engine`, and nothing else (no
argument, no workload size) overrides it, so
``REPRO_ORDERING_ENGINE=scalar`` keeps the whole process in the
reference loops.  The engine is resolved per call:

1. a :func:`use_engine` context override (what the equivalence tests
   and the perf harness use),
2. then ``REPRO_ORDERING_ENGINE`` as parsed once per process by
   :mod:`repro.config`,
3. then the default, ``"native"``.

The tier that actually ran (``"native"``, ``"vector"`` or
``"scalar"``) is recorded under :data:`ENGINE_METADATA_KEY` in ordering
metadata; identity comparisons must ignore it
(:func:`strip_engine_metadata`).

The module also hosts :func:`gather_neighbors`, the multi-range CSR gather
primitive shared by every frontier-at-a-time traversal.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from . import config

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "ENGINE_METADATA_KEY",
    "resolve_engine",
    "use_engine",
    "strip_engine_metadata",
    "gather_ranges",
    "gather_neighbors",
]

ENGINES = ("native", "scalar")
DEFAULT_ENGINE = "native"

#: ordering-metadata key recording the tier that actually ran.
ENGINE_METADATA_KEY = "engine"

#: context override installed by :func:`use_engine` (None = no override).
_override: str | None = None


def resolve_engine() -> str:
    """The engine a hot path runs: context > config > default."""
    return _override or config.get().engine or DEFAULT_ENGINE


@contextmanager
def use_engine(engine: str) -> Iterator[None]:
    """Force ``engine`` for every hot path in the ``with`` block.

    Nested contexts stack; the innermost wins.
    """
    global _override
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {list(ENGINES)}"
        )
    previous = _override
    _override = engine
    try:
        yield
    finally:
        _override = previous


def strip_engine_metadata(metadata: dict) -> dict:
    """``metadata`` without the recorded execution tier.

    Orderings are bit-identical across tiers *except* for the
    :data:`ENGINE_METADATA_KEY` entry recording which tier ran; identity
    comparisons (equivalence tests, the perf harness, warm-cache
    checks) compare through this helper.
    """
    return {k: v for k, v in metadata.items() if k != ENGINE_METADATA_KEY}


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Concatenate ``values[starts[i]:ends[i]]`` for all ``i``, vectorized.

    The workhorse of frontier-at-a-time traversal: one call replaces a
    Python loop over per-vertex adjacency slices.
    """
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=values.dtype)
    # Global positions: for each range, starts[i] + (0 .. counts[i]-1).
    offsets = np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    positions = np.arange(total, dtype=np.int64) + offsets
    return values[positions]


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All neighbours of ``frontier`` vertices plus their frontier slots.

    Returns ``(targets, slots)`` where ``targets`` concatenates the CSR
    neighbour lists of the frontier vertices in frontier order and
    ``slots[j]`` is the position *within the frontier* of the vertex that
    contributed ``targets[j]``.  ``slots`` is what lets level-synchronous
    BFS reproduce the scalar queue's per-parent visit order exactly.
    """
    starts = indptr[frontier]
    ends = indptr[frontier + 1]
    counts = ends - starts
    targets = gather_ranges(indices, starts, ends)
    slots = np.repeat(
        np.arange(frontier.size, dtype=np.int64), counts
    )
    return targets, slots
