"""Batched trace-replay engines: vectorised cache simulation.

The per-access path (:meth:`Cache.access` / :meth:`MemoryHierarchy.access`)
pays full Python call overhead per simulated load, which made the memory
experiments (Figures 6, 10, 12) the slowest part of the reproduction.
This module replays whole numpy line streams instead, two ways:

**Exact chunked replay** (:func:`cache_access_batch`,
:func:`hierarchy_access_batch`, :func:`run_exact_region`).  Accesses are
grouped by cache set with numpy (stable argsort), consecutive duplicate
lines are collapsed into guaranteed hits, and only each set's short run of
tags is replayed — through the compiled LRU kernel under the native
engine (:func:`repro.engine.resolve_engine`), through the per-set dict
LRU in Python otherwise.  Sets are
independent, misses are forwarded to the next level in original temporal
order, and private L1/L2 streams commute across thread interleavings, so
the results are **bit-identical** to the per-access model (property-tested
in ``tests/test_simulator_batch.py``).  The only unsupported feature is
the next-line prefetcher, whose installs couple neighbouring accesses;
with ``prefetch_next_line`` the callers fall back to the scalar path.

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

import ctypes

import numpy as np

from ..analysis import sanitize
from .._native import core as native_core
from .._native import lru as native_lru
from ..engine import resolve_engine
from .cache import Cache
from .hierarchy import MemoryHierarchy, ThreadCounters

__all__ = [
    "cache_access_batch",
    "hierarchy_access_batch",
    "run_exact_region",
    "lru_stack_distances",
    "hit_ratio_curve",
    "miss_ratio_curve",
]


def _as_line_array(lines) -> np.ndarray:
    """The line stream as a contiguous one-dimensional int64 array."""
    sanitize.check_integral(lines, where="simulator line stream")
    return np.ascontiguousarray(np.asarray(lines, dtype=np.int64).ravel())


#: Below this many lines, :func:`hierarchy_access_batch` replays through
#: the scalar per-access path: the batched engine's fixed per-call cost
#: (set grouping plus dict/array state conversion) only amortises on
#: streams of roughly a thousand accesses (measured crossover ~1k).
SCALAR_CUTOFF = 1024


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
    * the surviving short tag runs are replayed through the compiled LRU
      kernel (:mod:`repro._native.lru`) under the native engine
      (:func:`repro.engine.resolve_engine`) when the kernel is
      available, and through an equivalent pure-Python LRU walk
      otherwise.

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
    if resolve_engine() == "native":
        native = native_lru.KERNEL.lib()
        if native is not None and native_core.runtime_gate(native_lru.KERNEL):
            return _replay_native(
                cache, native, tags, order, offsets, group_sets, hits
            )
    return _replay_python(cache, tags, order, offsets, group_sets, hits)


def _replay_native(
    cache: Cache,
    native,
    tags: np.ndarray,
    order: np.ndarray,
    offsets: np.ndarray,
    group_sets: np.ndarray,
    hits: np.ndarray,
) -> np.ndarray:
    """Replay set-grouped runs through the compiled LRU kernel.

    The touched sets' dict state is flattened into LRU→MRU arrays, the C
    kernel replays every group in one call, and the dicts are rebuilt
    from the final state — identical transitions, identical counters.
    """
    n = hits.size
    assoc = cache._assoc
    sets = cache._sets
    num_groups = group_sets.size
    sorted_tags = np.ascontiguousarray(tags[order])
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    state_tags = np.full(num_groups * assoc, -1, dtype=np.int64)
    state_dirty = np.zeros(num_groups * assoc, dtype=np.uint8)
    state_len = np.zeros(num_groups, dtype=np.int64)
    group_list = group_sets.tolist()
    for gi, s in enumerate(group_list):
        resident = sets[s]
        count = len(resident)
        if count:
            base = gi * assoc
            state_tags[base: base + count] = list(resident.keys())
            if any(resident.values()):
                state_dirty[base: base + count] = np.fromiter(
                    resident.values(), dtype=np.uint8, count=count
                )
            state_len[gi] = count
    miss_out = np.zeros(n, dtype=np.uint8)
    writebacks = ctypes.c_int64(0)
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    misses = int(
        native.lru_replay(
            sorted_tags.ctypes.data_as(p_i64),
            offsets.ctypes.data_as(p_i64),
            num_groups,
            assoc,
            state_tags.ctypes.data_as(p_i64),
            state_dirty.ctypes.data_as(p_u8),
            state_len.ctypes.data_as(p_i64),
            miss_out.ctypes.data_as(p_u8),
            ctypes.byref(writebacks),
        )
    )
    lens = state_len.tolist()
    for gi, s in enumerate(group_list):
        base = gi * assoc
        count = lens[gi]
        sets[s] = dict(
            zip(
                state_tags[base: base + count].tolist(),
                map(bool, state_dirty[base: base + count].tolist()),
            )
        )
    if misses:
        hits[order[miss_out.view(bool)]] = False
    cache.writebacks += writebacks.value
    cache.stats.hits += n - misses
    cache.stats.misses += misses
    return hits


def _replay_python(
    cache: Cache,
    tags: np.ndarray,
    order: np.ndarray,
    offsets: np.ndarray,
    group_sets: np.ndarray,
    hits: np.ndarray,
) -> np.ndarray:
    """Pure-Python replay of set-grouped runs (native-kernel fallback)."""
    n = hits.size
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


def _latency_table(config) -> np.ndarray:
    """Per-level service latencies as an indexable array."""
    return np.array(
        [
            config.latency_l1,
            config.latency_l2,
            config.latency_l3,
            config.latency_dram,
        ],
        dtype=np.int64,
    )


def _tally_levels(
    counters: ThreadCounters, levels: np.ndarray, lat: np.ndarray
) -> None:
    """Accumulate a chunk's serviced levels into one thread's counters."""
    counts = np.bincount(levels, minlength=4)
    counters.loads += int(levels.size)
    for i in range(4):
        c = int(counts[i])
        cyc = c * int(lat[i])
        counters.level_loads[i] += c
        counters.level_cycles[i] += cyc
        counters.total_latency += cyc


def hierarchy_access_batch(
    hierarchy: MemoryHierarchy, thread: int, lines
) -> np.ndarray:
    """Replay one thread's contiguous load chunk; serviced level per load.

    Bit-identical to calling :meth:`MemoryHierarchy.access` per line,
    provided no *other* thread's accesses interleave inside the chunk
    (the shared L3 sees the chunk as one contiguous run).  Consecutive
    duplicate lines are guaranteed L1 hits and are collapsed before the
    set-grouped replay.  With the next-line prefetcher enabled the scalar
    path is used (prefetch installs couple neighbouring accesses).
    """
    lines = _as_line_array(lines)
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    cfg = hierarchy.config
    if cfg.prefetch_next_line or n < SCALAR_CUTOFF:
        return np.fromiter(
            (hierarchy.access(thread, int(line)) for line in lines),
            dtype=np.int64,
            count=n,
        )
    levels = np.zeros(n, dtype=np.int64)
    # A load to the line just loaded is an L1 hit with no state change.
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    uniq = lines[keep]
    pos = np.flatnonzero(keep)
    l1 = hierarchy.l1[thread]
    hits1 = cache_access_batch(l1, uniq)
    l1.stats.hits += n - uniq.size
    miss_pos = pos[~hits1]
    miss_lines = uniq[~hits1]
    hits2 = cache_access_batch(hierarchy.l2[thread], miss_lines)
    levels[miss_pos[hits2]] = 1
    l3_pos = miss_pos[~hits2]
    hits3 = cache_access_batch(hierarchy.l3, miss_lines[~hits2])
    levels[l3_pos[hits3]] = 2
    levels[l3_pos[~hits3]] = 3
    _tally_levels(hierarchy.counters[thread], levels, _latency_table(cfg))
    return levels


@sanitize.guarded
def run_exact_region(
    hierarchy: MemoryHierarchy,
    per_thread_items,
) -> tuple[list[int], list[int]]:
    """Execute a pre-scheduled parallel region with batched replay.

    Returns ``(cycles, compute)`` per thread, bit-identical to the
    round-robin per-access loop of :meth:`SimulatedMachine.run`:

    * private L1/L2 streams are replayed per thread in one chunk each
      (other threads never touch those caches, so interleaving is
      irrelevant to their state);
    * the shared L3 sees each thread's L2 misses merged back into the
      round-robin order — sorted by (item round, thread id, position in
      item), exactly the order the scalar loop issues them.
    """
    cfg = hierarchy.config
    lat = _latency_table(cfg)
    num_threads = hierarchy.num_threads
    cycles = [0] * num_threads
    compute = [0] * num_threads
    per_thread_levels: list[np.ndarray] = []
    l3_lines_parts: list[np.ndarray] = []
    l3_keys: list[tuple[np.ndarray, int]] = []  # (item idx per l3 access, t)
    l3_slots: list[tuple[int, np.ndarray]] = []  # (thread, positions)
    for t, items in enumerate(per_thread_items):
        items = list(items)
        compute[t] = sum(item.compute_cycles for item in items)
        parts = [_as_line_array(item.lines) for item in items]
        lens = np.array([p.size for p in parts], dtype=np.int64)
        all_lines = (
            np.concatenate(parts) if parts
            else np.zeros(0, dtype=np.int64)
        )
        n = all_lines.size
        levels = np.zeros(n, dtype=np.int64)
        if n:
            keep = np.empty(n, dtype=bool)
            keep[0] = True
            np.not_equal(all_lines[1:], all_lines[:-1], out=keep[1:])
            uniq = all_lines[keep]
            pos = np.flatnonzero(keep)
            l1 = hierarchy.l1[t]
            hits1 = cache_access_batch(l1, uniq)
            l1.stats.hits += n - uniq.size
            miss_pos = pos[~hits1]
            miss_lines = uniq[~hits1]
            hits2 = cache_access_batch(hierarchy.l2[t], miss_lines)
            levels[miss_pos[hits2]] = 1
            l3_pos = miss_pos[~hits2]
            if l3_pos.size:
                item_of = np.repeat(
                    np.arange(lens.size, dtype=np.int64), lens
                )
                l3_lines_parts.append(miss_lines[~hits2])
                l3_keys.append((item_of[l3_pos], t))
                l3_slots.append((t, l3_pos))
        per_thread_levels.append(levels)
    if l3_lines_parts:
        l3_lines = np.concatenate(l3_lines_parts)
        item_key = np.concatenate([k for k, _ in l3_keys])
        thread_key = np.concatenate([
            np.full(k.size, t, dtype=np.int64) for k, t in l3_keys
        ])
        seq_key = np.arange(l3_lines.size, dtype=np.int64)
        # within one (item, thread) the accesses already appear in
        # position order, so the running index breaks ties correctly
        order = np.lexsort((seq_key, thread_key, item_key))
        hits3 = np.empty(l3_lines.size, dtype=bool)
        hits3[order] = cache_access_batch(hierarchy.l3, l3_lines[order])
        offset = 0
        for (t, positions), (k, _) in zip(l3_slots, l3_keys):
            part = hits3[offset: offset + positions.size]
            per_thread_levels[t][positions] = np.where(part, 2, 3)
            offset += positions.size
    for t in range(num_threads):
        levels = per_thread_levels[t]
        _tally_levels(hierarchy.counters[t], levels, lat)
        cycles[t] = int(lat[levels].sum()) + compute[t] if levels.size \
            else compute[t]
    return cycles, compute


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
