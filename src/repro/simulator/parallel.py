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
item issues plus the cycles it burns in the core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._native import machine as native_machine
from ..engine import resolve_engine
from .batch import _as_line_array, run_exact_region
from .counters import CounterReport, report_from_counters
from .hierarchy import HierarchyConfig, MemoryHierarchy, ThreadCounters

__all__ = [
    "WorkItem",
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
        self.num_threads = num_threads
        self.config = config or HierarchyConfig()

    def run(
        self,
        per_thread_items: Sequence[Iterable[WorkItem]],
    ) -> ExecutionResult:
        """Execute a pre-scheduled region (items already mapped to threads).

        Threads advance round-robin one item at a time, so L3 accesses of
        different threads interleave — the shared-cache contention model.
        Replayed by the exact batched engine (bit-identical to
        :meth:`run_reference`, which keeps the per-access loop for
        verification); the next-line prefetcher forces the scalar path
        because its installs couple neighbouring accesses.
        """
        if len(per_thread_items) != self.num_threads:
            raise ValueError("one item list per thread required")
        if self.config.prefetch_next_line:
            return self.run_reference(per_thread_items)
        hierarchy = MemoryHierarchy(self.num_threads, self.config)
        cycles, compute = run_exact_region(hierarchy, per_thread_items)
        merged = hierarchy.merged_counters()
        report = report_from_counters(merged, sum(compute))
        return ExecutionResult(
            num_threads=self.num_threads,
            thread_cycles=tuple(cycles),
            thread_loads=tuple(c.loads for c in hierarchy.counters),
            report=report,
        )

    def run_reference(
        self,
        per_thread_items: Sequence[Iterable[WorkItem]],
    ) -> ExecutionResult:
        """Per-access reference replay of :meth:`run` (same results).

        Kept as the ground truth the batched engine is property-tested
        against, as the fallback when the next-line prefetcher is enabled,
        and as the baseline the perf-regression harness times.
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
                stall = 0
                for line in item.lines:
                    level = hierarchy.access(t, int(line))
                    stall += hierarchy.config.latency_of(level)
                cycles[t] += stall + item.compute_cycles
                compute[t] += item.compute_cycles
            for t in finished:
                live.discard(t)
        merged = hierarchy.merged_counters()
        report = report_from_counters(merged, sum(compute))
        return ExecutionResult(
            num_threads=self.num_threads,
            thread_cycles=tuple(cycles),
            thread_loads=tuple(c.loads for c in hierarchy.counters),
            report=report,
        )

    def run_dynamic(
        self,
        items: Sequence[WorkItem],
        *,
        chunk: int = 8,
    ) -> ExecutionResult:
        """Execute with dynamic chunk scheduling (OpenMP ``dynamic``).

        Chunks are handed to the thread with the lowest simulated clock,
        which models work stealing's load-balancing effect.  Under the
        native engine the whole region replays in one compiled call
        (:mod:`repro._native.machine`), bit-identical to the Python
        replay; the next-line prefetcher and negative line numbers keep
        the Python path.
        """
        if chunk < 1:
            raise ValueError("chunk must be positive")
        if resolve_engine() == "native" and not self.config.prefetch_next_line:
            result = self._run_dynamic_native(items, chunk)
            if result is not None:
                return result
        return self._run_dynamic_python(items, chunk)

    def _run_dynamic_native(
        self, items: Sequence[WorkItem], chunk: int
    ) -> ExecutionResult | None:
        """The compiled replay; None when the kernel cannot run it."""
        # int64 arrays pass through without a copy
        lines = [_as_line_array(item.lines) for item in items]
        compute = [item.compute_cycles for item in items]
        if not all(isinstance(c, (int, np.integer)) for c in compute):
            return None  # non-integer cycles keep Python's arithmetic
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
        out = native_machine.run_dynamic(
            lines,
            np.array(compute, dtype=np.int64),
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
        """Python replay of :meth:`run_dynamic`: one engine call per item.

        Chunk assignment depends on the running clocks, so the schedule
        is computed item by item and each item's loads replay through the
        batched engine (:meth:`MemoryHierarchy.access_batch`) in turn.
        """
        hierarchy = MemoryHierarchy(self.num_threads, self.config)
        latency = np.array(
            [self.config.latency_of(level) for level in range(4)],
            dtype=np.int64,
        )
        clocks = [0] * self.num_threads
        compute = [0] * self.num_threads
        pos = 0
        while pos < len(items):
            t = min(range(self.num_threads), key=lambda x: clocks[x])
            for item in items[pos: pos + chunk]:
                levels = hierarchy.access_batch(t, item.lines)
                stall = int(latency[levels].sum()) if levels.size else 0
                clocks[t] += stall + item.compute_cycles
                compute[t] += item.compute_cycles
            pos += chunk
        merged = hierarchy.merged_counters()
        report = report_from_counters(merged, sum(compute))
        return ExecutionResult(
            num_threads=self.num_threads,
            thread_cycles=tuple(clocks),
            thread_loads=tuple(c.loads for c in hierarchy.counters),
            report=report,
        )
