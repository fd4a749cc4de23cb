"""Engine selection for the vectorized ordering/partition hot paths.

Mirroring the batched trace-replay engine of :mod:`repro.simulator.batch`,
every expensive ordering construction keeps a **tiered** implementation:

* a *scalar* reference — the original per-vertex/per-edge Python loops,
  kept as ground truth and exercised by the equivalence tests;
* a *vector* engine — numpy frontier-at-a-time traversals and array-based
  aggregation, required to be **bit-identical** to the scalar path: same
  permutation, same operation counts, same metadata;
* a *native* tier — lazily compiled C kernels (:mod:`repro._native`) for
  the few loops that resist vectorisation, equally bit-identical.  A hot
  path with no native kernel (or whose kernel failed to build, or no C
  compiler available) simply runs its vector engine under the native
  tier, so ``"native"`` is always safe to request.

This resolution is the one switch that decides whether C runs: every
native dispatch site asks for its kernel only when the engine resolves
to ``"native"``, so ``REPRO_ORDERING_ENGINE=vector`` (or ``scalar``)
keeps the whole process in Python.

The active engine is resolved per call:

1. an explicit ``engine=`` argument wins,
2. then a :func:`use_engine` context override (what the equivalence tests
   and the perf harness use),
3. then the ``REPRO_ORDERING_ENGINE`` environment variable,
4. then the default, ``"native"``.

Trivial schemes additionally short-circuit through
:func:`engine_for_work`: below :data:`VECTOR_MIN_WORK` abstract
operations the vector/native dispatch overhead exceeds the loop itself,
so tiny workloads drop to the scalar path.  The tier that actually ran
is recorded under :data:`ENGINE_METADATA_KEY` in ordering metadata;
identity comparisons must ignore it (:func:`strip_engine_metadata`).

The module also hosts :func:`gather_neighbors`, the multi-range CSR gather
primitive shared by every frontier-at-a-time traversal.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "VECTOR_MIN_WORK",
    "ENGINE_METADATA_KEY",
    "resolve_engine",
    "engine_for_work",
    "use_engine",
    "strip_engine_metadata",
    "gather_ranges",
    "gather_neighbors",
]

ENGINES = ("native", "vector", "scalar")
DEFAULT_ENGINE = "native"

#: below this much estimated work (abstract operations), vector/native
#: dispatch overhead dominates and trivial schemes run scalar.
VECTOR_MIN_WORK = 16384

#: ordering-metadata key recording the tier that actually ran.
ENGINE_METADATA_KEY = "engine"

#: context override installed by :func:`use_engine` (None = no override).
_override: str | None = None


def resolve_engine(engine: str | None = None) -> str:
    """The engine a hot path should run: explicit > context > env > default."""
    if engine is None:
        engine = (
            _override
            if _override is not None
            else os.environ.get("REPRO_ORDERING_ENGINE", DEFAULT_ENGINE)
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def engine_for_work(
    work: int | None, engine: str | None = None
) -> str:
    """Resolve the engine, short-circuiting trivial workloads to scalar.

    ``work`` is the scheme's own estimate of its abstract operation
    count (``None`` = unknown: never short-circuit).  Schemes whose
    entire computation is a handful of array ops pay more in vector
    dispatch than the loop costs on small graphs — the BENCH regressions
    this threshold exists for.
    """
    resolved = resolve_engine(engine)
    if (
        work is not None
        and resolved != "scalar"
        and work < VECTOR_MIN_WORK
    ):
        return "scalar"
    return resolved


@contextmanager
def use_engine(engine: str) -> Iterator[None]:
    """Force ``engine`` for every hot path in the ``with`` block.

    Nested contexts stack; an explicit ``engine=`` argument still wins.
    """
    global _override
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
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
