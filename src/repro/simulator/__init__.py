"""Trace-driven hardware substrate: caches, hierarchy, parallel machine."""

from .batch import (
    cache_access_batch,
    hierarchy_access_batch,
    hit_ratio_curve,
    lru_stack_distances,
    miss_ratio_curve,
)
from .cache import Cache, CacheConfig, CacheStats
from .counters import CounterReport, report_from_counters
from .hierarchy import (
    LEVELS,
    HierarchyConfig,
    MemoryHierarchy,
    ThreadCounters,
)
from .parallel import (
    ExecutionResult,
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
    static_interleaved_schedule,
)
from .trace import ArraySpec, MemoryLayout, csr_layout

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "cache_access_batch",
    "hierarchy_access_batch",
    "lru_stack_distances",
    "hit_ratio_curve",
    "miss_ratio_curve",
    "HierarchyConfig",
    "MemoryHierarchy",
    "ThreadCounters",
    "LEVELS",
    "CounterReport",
    "report_from_counters",
    "ArraySpec",
    "MemoryLayout",
    "csr_layout",
    "WorkItem",
    "ExecutionResult",
    "SimulatedMachine",
    "static_block_schedule",
    "static_interleaved_schedule",
]
