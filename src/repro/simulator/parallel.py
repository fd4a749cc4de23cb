"""Simulated multithreaded execution over the memory hierarchy.

The paper runs Grappolo and Ripples with OpenMP threads on an 8-socket
machine.  We model the aspects that its analysis actually uses:

* a fixed pool of ``T`` threads with **private L1/L2 and a shared L3**;
* a **schedule** mapping work items (vertices, or batches of BFS samples)
  to threads — static block, static interleaved, or dynamic chunks;
* **per-thread cycle accounting** — compute cycles plus the simulated
  latency of every load — giving makespan, parallel efficiency ("Work%" in
  Figure 9) and load-balance numbers;
* **interleaved execution** so that threads share the L3 concurrently
  (items are executed round-robin across threads), which is the mechanism
  behind the paper's observation that parallel execution amplifies the
  divergence between orderings.

A *work item* is ``(lines, compute_cycles)``: the cache-line trace the
item issues plus the cycles it burns in the core.  A region reaches the
machine either as :class:`WorkItem` lists or as one
:class:`BlockTrace`, whose items name blocks of a shared line table
instead of carrying their own streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._native import machine as native_machine
from ..analysis import sanitize
from ..engine import gather_ranges, resolve_engine
from .counters import CounterReport, report_from_counters
from .hierarchy import HierarchyConfig, MemoryHierarchy, ThreadCounters

__all__ = [
    "WorkItem",
    "BlockTrace",
    "ExecutionResult",
    "SimulatedMachine",
    "static_block_schedule",
    "static_interleaved_schedule",
]


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit: a trace of cache-line loads plus core work."""

    lines: Sequence[int]
    compute_cycles: int = 0


def _index_array(values, where: str) -> np.ndarray:
    """``values`` as a contiguous one-dimensional int64 array."""
    values = np.asarray(values)
    if values.size:
        sanitize.check_integral(values, where=where)
    array = np.ascontiguousarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{where} must be one-dimensional")
    return array


def _check_offsets(offsets: np.ndarray, length: int, where: str) -> None:
    """``offsets`` must rise from 0 to ``length`` without a step down."""
    if (
        offsets.size == 0
        or offsets[0] != 0
        or offsets[-1] != length
        or bool((np.diff(offsets) < 0).any())
    ):
        raise ValueError(
            f"{where} must be non-decreasing from 0 to {length}"
        )


class BlockTrace:
    """A region's work items over one shared table of line blocks.

    ``blocks`` is one line stream cut into blocks by ``block_offsets``:
    block ``b`` is ``blocks[block_offsets[b]:block_offsets[b + 1]]``.
    Item ``i`` issues the blocks
    ``item_blocks[item_offsets[i]:item_offsets[i + 1]]`` in order, then
    burns ``compute[i]`` core cycles.  Blocks may be empty, shared
    between items and repeated within one, so a sweep over a per-vertex
    table costs one block id per visited vertex rather than a copy of
    its lines.

    Every array the replay kernel indexes with is checked here, under
    every engine: block ids must lie in ``[0, num_blocks)``, both
    offset arrays must rise from 0 to the length they index, and
    compute cycles must be integral (``ValueError`` otherwise).  Lines
    themselves are not range-checked: a negative line replays in
    Python.
    """

    __slots__ = (
        "blocks", "block_offsets", "item_blocks", "item_offsets", "compute",
    )

    def __init__(
        self,
        blocks,
        block_offsets,
        item_blocks,
        item_offsets,
        compute,
    ) -> None:
        self.blocks = _index_array(blocks, "BlockTrace.blocks")
        self.block_offsets = _index_array(
            block_offsets, "BlockTrace.block_offsets"
        )
        self.item_blocks = _index_array(
            item_blocks, "BlockTrace.item_blocks"
        )
        self.item_offsets = _index_array(
            item_offsets, "BlockTrace.item_offsets"
        )
        cycles = np.asarray(compute)
        if cycles.size and not np.issubdtype(cycles.dtype, np.integer):
            raise ValueError(
                f"compute cycles must be integral, got dtype {cycles.dtype}"
            )
        self.compute = _index_array(cycles, "BlockTrace.compute")
        _check_offsets(
            self.block_offsets, self.blocks.size, "block_offsets"
        )
        _check_offsets(
            self.item_offsets, self.item_blocks.size, "item_offsets"
        )
        num_blocks = self.block_offsets.size - 1
        if self.item_blocks.size and (
            int(self.item_blocks.min()) < 0
            or int(self.item_blocks.max()) >= num_blocks
        ):
            raise ValueError(
                f"block ids must lie in [0, {num_blocks})"
            )
        if self.compute.size != self.num_items:
            raise ValueError(
                f"{self.num_items} items need as many compute cycles, "
                f"got {self.compute.size}"
            )

    @classmethod
    def from_items(cls, items: Sequence[WorkItem]) -> "BlockTrace | None":
        """One block per item, flattened once; None for fractional cycles.

        The line streams are checked first (once per distinct dtype), so
        a float stream fails here under an armed sanitizer whatever the
        cycles.  Non-integral compute cycles keep Python's arithmetic,
        so the callers replay such a region through the Python twins
        instead.
        """
        count = len(items)
        parts = [np.asarray(item.lines).ravel() for item in items]
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((p.size for p in parts), np.int64, count),
            out=offsets[1:],
        )
        filled = [part for part in parts if part.size]
        # one integrality check per distinct dtype, not per item
        for sample in {part.dtype: part for part in filled}.values():
            sanitize.check_integral(sample, where="simulator line stream")
        compute = np.asarray([item.compute_cycles for item in items])
        if count and not np.issubdtype(compute.dtype, np.integer):
            return None
        blocks = (
            np.concatenate(filled, dtype=np.int64, casting="unsafe")
            if filled else np.zeros(0, dtype=np.int64)
        )
        ids = np.arange(count, dtype=np.int64)
        return cls(blocks, offsets, ids, np.arange(count + 1), compute)

    @property
    def num_items(self) -> int:
        """Number of work items in the region."""
        return self.item_offsets.size - 1

    def select(self, items) -> "BlockTrace":
        """The trace of ``items`` (item indices, in the order given)."""
        items = np.asarray(items, dtype=np.int64)
        if items.size and (
            int(items.min()) < 0 or int(items.max()) >= self.num_items
        ):
            raise ValueError(f"items must lie in [0, {self.num_items})")
        starts = self.item_offsets[items]
        ends = self.item_offsets[items + 1]
        offsets = np.zeros(items.size + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=offsets[1:])
        return BlockTrace(
            self.blocks,
            self.block_offsets,
            gather_ranges(self.item_blocks, starts, ends),
            offsets,
            self.compute[items],
        )

    def work_items(self) -> list[WorkItem]:
        """The region as :class:`WorkItem` lists (one gather, then views).

        Feeds the Python replays and the per-access reference.
        """
        block_starts = self.block_offsets[self.item_blocks]
        block_ends = self.block_offsets[self.item_blocks + 1]
        lines = gather_ranges(self.blocks, block_starts, block_ends)
        lines.setflags(write=False)
        ends = np.zeros(self.item_blocks.size + 1, dtype=np.int64)
        np.cumsum(block_ends - block_starts, out=ends[1:])
        bounds = ends[self.item_offsets].tolist()
        cycles = self.compute.tolist()
        return [
            WorkItem(lines=lines[bounds[i]: bounds[i + 1]],
                     compute_cycles=cycles[i])
            for i in range(self.num_items)
        ]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one simulated parallel region."""

    num_threads: int
    #: busy cycles per thread (compute + memory stall).
    thread_cycles: tuple[int, ...]
    #: loads per thread.
    thread_loads: tuple[int, ...]
    report: CounterReport

    @property
    def makespan(self) -> int:
        """Cycles until the last thread finishes (region runtime)."""
        return max(self.thread_cycles) if self.thread_cycles else 0

    @property
    def total_cycles(self) -> int:
        """Sum of busy cycles over all threads (total work)."""
        return sum(self.thread_cycles)

    @property
    def work_fraction(self) -> float:
        """Parallel efficiency: mean busy / makespan ('Work%' of Fig. 9)."""
        if self.makespan == 0 or self.num_threads == 0:
            return 1.0
        return self.total_cycles / (self.num_threads * self.makespan)

    @property
    def load_imbalance(self) -> float:
        """max/mean busy cycles (1.0 = perfectly balanced)."""
        if not self.thread_cycles:
            return 1.0
        mean = self.total_cycles / self.num_threads
        if mean == 0:
            return 1.0
        return self.makespan / mean


def static_block_schedule(
    num_items: int, num_threads: int
) -> list[np.ndarray]:
    """Contiguous blocks of items per thread (OpenMP ``schedule(static)``)."""
    bounds = np.linspace(0, num_items, num_threads + 1).astype(np.int64)
    return [
        np.arange(bounds[t], bounds[t + 1], dtype=np.int64)
        for t in range(num_threads)
    ]


def static_interleaved_schedule(
    num_items: int, num_threads: int
) -> list[np.ndarray]:
    """Round-robin item assignment (OpenMP ``schedule(static, 1)``)."""
    return [
        np.arange(t, num_items, num_threads, dtype=np.int64)
        for t in range(num_threads)
    ]


class SimulatedMachine:
    """A pool of simulated threads over one shared memory hierarchy."""

    def __init__(
        self,
        num_threads: int,
        config: HierarchyConfig | None = None,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be positive")
        self.num_threads = num_threads
        self.config = config or HierarchyConfig()

    def run(
        self,
        per_thread_items: Sequence[Iterable[WorkItem]] | BlockTrace,
        *,
        item_thread=None,
    ) -> ExecutionResult:
        """Execute a pre-scheduled region (items already mapped to threads).

        ``per_thread_items`` is one :class:`WorkItem` iterable per
        thread, or a :class:`BlockTrace` whose item ``i`` runs on thread
        ``item_thread[i]`` (each thread's items in trace order; a
        thread outside ``[0, num_threads)`` is a ``ValueError``, and so
        is an ``item_thread`` given with per-thread lists).
        Threads advance round-robin one item at a time, so L3 accesses of
        different threads interleave — the shared-cache contention model.
        Under the native engine the whole region replays in one compiled
        call (:mod:`repro._native.machine`) in the issue order of
        :meth:`run_reference`, bit-identical to it; other engines, the
        next-line prefetcher, negative lines and non-integer compute
        cycles replay through :meth:`run_reference` itself.
        """
        native = (
            resolve_engine() == "native" and not self.config.prefetch_next_line
        )
        if isinstance(per_thread_items, BlockTrace):
            trace = per_thread_items
            thread = _index_array(
                [] if item_thread is None else item_thread, "item_thread"
            )
            if thread.size != trace.num_items:
                raise ValueError("item_thread must give every item a thread")
            if thread.size and (
                int(thread.min()) < 0 or int(thread.max()) >= self.num_threads
            ):
                raise ValueError(
                    f"item threads must lie in [0, {self.num_threads})"
                )
            if native:
                result = self._run_static_native(trace, thread)
                if result is not None:
                    return result
            items = trace.work_items()
            return self.run_reference([
                [items[i] for i in np.flatnonzero(thread == t).tolist()]
                for t in range(self.num_threads)
            ])
        if item_thread is not None:
            raise ValueError("item_thread applies only to a BlockTrace")
        if len(per_thread_items) != self.num_threads:
            raise ValueError("one item list per thread required")
        # listed once: the fallback must not get iterators the kernel
        # attempt has already consumed
        per_thread = [list(items) for items in per_thread_items]
        # flattened on every engine: from_items checks the line streams
        trace = BlockTrace.from_items(
            [item for items in per_thread for item in items]
        )
        if native and trace is not None:
            counts = [len(items) for items in per_thread]
            result = self._run_static_native(trace, np.repeat(
                np.arange(self.num_threads, dtype=np.int64), counts
            ))
            if result is not None:
                return result
        return self.run_reference(per_thread)

    def _run_static_native(
        self, trace: BlockTrace, thread: np.ndarray
    ) -> ExecutionResult | None:
        """The compiled static replay, items reordered to issue order."""
        counts = np.bincount(thread, minlength=self.num_threads)
        by_thread = np.argsort(thread, kind="stable")
        round_of = np.empty(thread.size, dtype=np.int64)
        round_of[by_thread] = np.arange(thread.size, dtype=np.int64) - (
            np.repeat(np.cumsum(counts) - counts, counts)
        )
        # run_reference's issue order: by round, then thread id
        issue = np.lexsort((thread, round_of))
        return self._run_native(trace.select(issue), thread[issue], 1)

    def run_reference(
        self,
        per_thread_items: Sequence[Iterable[WorkItem]],
    ) -> ExecutionResult:
        """Per-access reference replay of :meth:`run` (same results).

        Kept as the ground truth the compiled replay is property-tested
        against, as :meth:`run`'s fallback whenever the kernel cannot
        replay the region, and as the baseline the perf-regression
        harness times.
        """
        if len(per_thread_items) != self.num_threads:
            raise ValueError("one item list per thread required")
        hierarchy = MemoryHierarchy(self.num_threads, self.config)
        cycles = [0] * self.num_threads
        compute = [0] * self.num_threads
        iters = [iter(items) for items in per_thread_items]
        live = set(range(self.num_threads))
        while live:
            finished = []
            for t in sorted(live):
                item = next(iters[t], None)
                if item is None:
                    finished.append(t)
                    continue
                stall = _stall(hierarchy, t, item.lines)
                cycles[t] += stall + item.compute_cycles
                compute[t] += item.compute_cycles
            for t in finished:
                live.discard(t)
        return _python_result(hierarchy, cycles, compute)

    def run_dynamic(
        self,
        items: Sequence[WorkItem] | BlockTrace,
        *,
        chunk: int = 8,
    ) -> ExecutionResult:
        """Execute with dynamic chunk scheduling (OpenMP ``dynamic``).

        ``items`` is a :class:`WorkItem` sequence or a
        :class:`BlockTrace`.  Chunks are handed to the thread with the
        lowest simulated clock, which models work stealing's
        load-balancing effect.  Under the native engine the whole region
        replays in one compiled call (:mod:`repro._native.machine`),
        bit-identical to the Python replay; the next-line prefetcher,
        negative line numbers and non-integer compute cycles keep the
        Python path.
        """
        if chunk < 1:
            raise ValueError("chunk must be positive")
        # flattened on every engine: from_items checks the line streams
        trace = (
            items if isinstance(items, BlockTrace)
            else BlockTrace.from_items(items)
        )
        if (
            trace is not None
            and resolve_engine() == "native"
            and not self.config.prefetch_next_line
        ):
            result = self._run_native(trace, None, chunk)
            if result is not None:
                return result
        if isinstance(items, BlockTrace):
            items = items.work_items()
        return self._run_dynamic_python(items, chunk)

    def _run_native(
        self,
        trace: BlockTrace,
        item_thread: np.ndarray | None,
        chunk: int,
    ) -> ExecutionResult | None:
        """The compiled replay; None when the kernel cannot run it.

        ``item_thread`` pins each item to a thread (a static region, items
        in issue order); None hands out dynamic chunks of ``chunk`` items.
        """
        cfg = self.config
        geometry = np.array(
            [
                cfg.l1.num_sets, cfg.l1.associativity,
                cfg.l2.num_sets, cfg.l2.associativity,
                cfg.l3.num_sets, cfg.l3.associativity,
            ],
            dtype=np.int64,
        )
        latency = [cfg.latency_of(level) for level in range(4)]
        out = native_machine.run_region(
            trace,
            item_thread,
            chunk,
            self.num_threads,
            geometry,
            np.array(latency, dtype=np.int64),
        )
        if out is None:
            return None
        clocks, busy, level_loads = out
        loads = level_loads.sum(axis=0).tolist()
        cycles = [count * lat for count, lat in zip(loads, latency)]
        merged = ThreadCounters(
            loads=sum(loads),
            total_latency=sum(cycles),
            level_cycles=cycles,
            level_loads=loads,
        )
        return ExecutionResult(
            num_threads=self.num_threads,
            thread_cycles=tuple(clocks.tolist()),
            thread_loads=tuple(level_loads.sum(axis=1).tolist()),
            report=report_from_counters(merged, sum(busy.tolist())),
        )

    def _run_dynamic_python(
        self, items: Sequence[WorkItem], chunk: int
    ) -> ExecutionResult:
        """Per-access replay of :meth:`run_dynamic` (its scalar twin).

        Each chunk goes to the thread with the lowest clock, and each of
        its loads walks :meth:`MemoryHierarchy.access` in turn, the
        prefetcher included.
        """
        hierarchy = MemoryHierarchy(self.num_threads, self.config)
        clocks = [0] * self.num_threads
        compute = [0] * self.num_threads
        for pos in range(0, len(items), chunk):
            t = min(range(self.num_threads), key=clocks.__getitem__)
            for item in items[pos: pos + chunk]:
                stall = _stall(hierarchy, t, item.lines)
                clocks[t] += stall + item.compute_cycles
                compute[t] += item.compute_cycles
        return _python_result(hierarchy, clocks, compute)


def _stall(hierarchy: MemoryHierarchy, thread: int, lines) -> int:
    """Replay one item's loads on ``thread``; the latency they were
    charged."""
    counters = hierarchy.counters[thread]
    before = counters.total_latency
    access = hierarchy.access
    for line in lines:
        access(thread, int(line))
    return counters.total_latency - before


def _python_result(
    hierarchy: MemoryHierarchy, cycles: list[int], compute: list[int]
) -> ExecutionResult:
    """The result of a Python replay that has run on ``hierarchy``."""
    return ExecutionResult(
        num_threads=hierarchy.num_threads,
        thread_cycles=tuple(cycles),
        thread_loads=tuple(c.loads for c in hierarchy.counters),
        report=report_from_counters(
            hierarchy.merged_counters(), sum(compute)
        ),
    )
