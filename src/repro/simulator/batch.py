"""Batched trace-replay engines: vectorised cache simulation.

The per-access path (:meth:`Cache.access`) pays full Python call
overhead per simulated load.  This module replays whole numpy line
streams instead, two ways (a whole parallel region under the native
engine replays in C instead, :mod:`repro._native.machine`):

**Exact chunked replay** (:func:`cache_access_batch`).  Accesses to one
cache level are grouped by set with numpy (stable argsort), consecutive
duplicate lines are collapsed into guaranteed hits, and only each set's
short run of tags is walked through the per-set dict LRU.  Sets are
independent, so the results are **bit-identical** to the per-access
model (property-tested in ``tests/test_simulator_batch.py``).

**Reuse-distance replay** (:func:`lru_stack_distances`,
:func:`hit_ratio_curve`).  LRU stack distances are computed once per trace
with a Fenwick tree (O(N log N)); the hit ratio of *every* fully
associative capacity then falls out of one sorted pass.  This engine is a
fully-associative approximation — it ignores set conflicts and the
multi-level hierarchy — but it prices an entire cache-geometry sweep at
the cost of a single replay, which the ``ext_cache_sweep`` experiment
exploits.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize
from .cache import Cache

__all__ = [
    "cache_access_batch",
    "lru_stack_distances",
    "hit_ratio_curve",
    "miss_ratio_curve",
]


def _as_line_array(lines) -> np.ndarray:
    """The line stream as a contiguous one-dimensional int64 array."""
    lines = np.asarray(lines)
    if lines.size:  # an empty list reads as float64 but holds no value
        sanitize.check_integral(lines, where="simulator line stream")
    return np.ascontiguousarray(lines.astype(np.int64, copy=False).ravel())


def cache_access_batch(cache: Cache, lines: np.ndarray) -> np.ndarray:
    """Replay a load stream through one cache level; per-access hit flags.

    Exactly equivalent to ``[cache.access(l) for l in lines]`` (loads
    only), restructured for batch throughput:

    * accesses are grouped by set with a stable argsort — sets are
      independent and the stable sort preserves each set's temporal
      order;
    * within a set's run, consecutive duplicate tags are collapsed: a
      tag equal to the set's immediately previous access is the MRU way,
      so it hits and its LRU refresh is a no-op;
    * the surviving short tag runs are walked through the set's LRU.

    Statistics are updated in bulk.
    """
    lines = _as_line_array(lines)
    n = lines.size
    hits = np.ones(n, dtype=bool)
    if n == 0:
        return hits
    num_sets = cache._num_sets
    tags = lines // num_sets
    if num_sets == 1:
        order = np.arange(n, dtype=np.int64)
        offsets = np.array([0, n], dtype=np.int64)
        group_sets = np.zeros(1, dtype=np.int64)
    else:
        set_idx = lines - tags * num_sets
        order = np.argsort(set_idx, kind="stable")
        sorted_sets = set_idx[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_sets[1:] != sorted_sets[:-1]]
        )
        offsets = np.append(starts, n)
        group_sets = sorted_sets[starts]
    assoc = cache._assoc
    writebacks = 0
    misses_total = 0
    groups = [
        (int(group_sets[g]), order[offsets[g]: offsets[g + 1]])
        for g in range(group_sets.size)
    ]
    for s, positions in groups:
        cache_set = cache._sets[s]
        run = tags[positions]
        keep = np.empty(run.size, dtype=bool)
        keep[0] = True
        np.not_equal(run[1:], run[:-1], out=keep[1:])
        collapsed = run[keep].tolist()
        miss_local: list[int] = []
        if any(cache_set.values()):
            # dirty lines resident: dict walk preserves flags/writebacks
            for j, tag in enumerate(collapsed):
                if tag in cache_set:
                    cache_set[tag] = cache_set.pop(tag)
                else:
                    miss_local.append(j)
                    if len(cache_set) >= assoc:
                        victim = next(iter(cache_set))
                        if cache_set.pop(victim):
                            writebacks += 1
                    cache_set[tag] = False
        else:
            lru = list(cache_set)  # insertion order == LRU..MRU order
            append = lru.append
            remove = lru.remove
            for j, tag in enumerate(collapsed):
                if tag in lru:
                    if lru[-1] != tag:
                        remove(tag)
                        append(tag)
                else:
                    miss_local.append(j)
                    if len(lru) >= assoc:
                        del lru[0]
                    append(tag)
            cache._sets[s] = dict.fromkeys(lru, False)
        if miss_local:
            misses_total += len(miss_local)
            hits[positions[np.flatnonzero(keep)[miss_local]]] = False
    cache.writebacks += writebacks
    cache.stats.hits += n - misses_total
    cache.stats.misses += misses_total
    return hits


# ---------------------------------------------------------------------------
# Reuse-distance engine (fully-associative approximation)
# ---------------------------------------------------------------------------
def lru_stack_distances(lines) -> np.ndarray:
    """LRU stack distance of every access; ``-1`` for cold misses.

    The stack distance of an access is the number of *distinct* other
    lines touched since the previous access to the same line; a fully
    associative LRU cache of capacity ``C`` lines hits exactly the
    accesses with distance ``< C``.  Computed in one pass with a Fenwick
    tree over last-access positions (O(N log N)), so a single call prices
    every capacity at once.
    """
    lines = _as_line_array(lines)
    n = lines.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    tree = [0] * (n + 1)
    last: dict[int, int] = {}
    marked = 0
    for i, line in enumerate(lines.tolist()):
        prev = last.get(line, -1)
        if prev < 0:
            out[i] = -1
        else:
            # distinct lines since prev = marks at positions > prev
            # (every line keeps one mark, at its most recent position;
            # prev itself holds this line's mark and is excluded)
            k = prev + 1
            below = 0
            while k > 0:
                below += tree[k]
                k -= k & -k
            out[i] = marked - below
            k = prev + 1
            while k <= n:
                tree[k] -= 1
                k += k & -k
            marked -= 1
        k = i + 1
        while k <= n:
            tree[k] += 1
            k += k & -k
        marked += 1
        last[line] = i
    return out


def hit_ratio_curve(
    distances: np.ndarray, capacities_lines
) -> np.ndarray:
    """Fully-associative LRU hit ratio at each capacity (in lines).

    ``distances`` is the output of :func:`lru_stack_distances`; the hit
    count at capacity ``C`` is the number of accesses with a finite stack
    distance ``< C``, read off a single sorted pass for every capacity.
    """
    distances = np.asarray(distances, dtype=np.int64).ravel()
    caps = np.asarray(capacities_lines, dtype=np.int64).ravel()
    if distances.size == 0:
        return np.zeros(caps.size, dtype=np.float64)
    finite = np.sort(distances[distances >= 0])
    hits = np.searchsorted(finite, caps, side="left")
    return hits / float(distances.size)


def miss_ratio_curve(
    distances: np.ndarray, capacities_lines
) -> np.ndarray:
    """Complement of :func:`hit_ratio_curve` (miss-ratio curve, MRC)."""
    return 1.0 - hit_ratio_curve(distances, capacities_lines)
