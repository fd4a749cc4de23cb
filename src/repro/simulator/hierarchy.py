"""A multi-level memory hierarchy with private L1/L2 and shared L3.

This stands in for the paper's test platform (Cascade Lake: 32 KB L1 and
1 MB L2 per core, 38.5 MB shared L3).  The simulated geometry is scaled
down in proportion to the scaled-down surrogate graphs so that working sets
exercise every level, which is the property the paper's Figure 10/12
analysis depends on.

Latency model (cycles) follows the usual Skylake-generation figures; only
the *ratios* matter for reproducing the paper's relative shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import Cache, CacheConfig

__all__ = ["HierarchyConfig", "ThreadCounters", "MemoryHierarchy", "LEVELS"]

#: memory level names, nearest first.
LEVELS = ("L1", "L2", "L3", "DRAM")


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry and latencies for the whole hierarchy.

    The defaults are scaled for surrogate graphs of roughly 10k–60k edges:
    private 4 KB L1 and 32 KB L2 per thread, a 256 KB shared L3, 64-byte
    lines.  ``for_scale`` adjusts geometry for other working-set sizes.
    """

    line_bytes: int = 64
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024, 64, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(256 * 1024, 64, 16)
    )
    latency_l1: int = 4
    latency_l2: int = 14
    latency_l3: int = 50
    latency_dram: int = 200
    #: next-line prefetch: a DRAM-serviced demand load also fills line+1
    #: into L2/L3, so streaming access patterns stop paying DRAM latency
    #: on every line (the paper's DRAM-bound metric counts demand loads
    #: only, which this models).
    prefetch_next_line: bool = False

    @staticmethod
    def for_scale(factor: float) -> "HierarchyConfig":
        """A hierarchy scaled by ``factor`` relative to the default.

        Cache sizes scale; line size, associativity and latencies do not.
        Sizes are clamped so each level holds at least 4 sets.
        """

        def scaled(base: CacheConfig) -> CacheConfig:
            way = base.line_bytes * base.associativity
            size = max(4 * way, int(base.size_bytes * factor) // way * way)
            return CacheConfig(size, base.line_bytes, base.associativity)

        default = HierarchyConfig()
        return HierarchyConfig(
            line_bytes=default.line_bytes,
            l1=scaled(default.l1),
            l2=scaled(default.l2),
            l3=scaled(default.l3),
        )

    def latency_of(self, level: int) -> int:
        """Service latency (cycles) for a hit at ``level`` (0=L1..3=DRAM)."""
        return (
            self.latency_l1,
            self.latency_l2,
            self.latency_l3,
            self.latency_dram,
        )[level]


@dataclass
class ThreadCounters:
    """Per-thread memory performance counters (the VTune substitute)."""

    loads: int = 0
    total_latency: int = 0
    #: cycles attributed to each service level (L1, L2, L3, DRAM).
    level_cycles: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    #: loads serviced at each level.
    level_loads: list[int] = field(default_factory=lambda: [0, 0, 0, 0])

    @property
    def average_latency(self) -> float:
        """Average load-to-use latency in cycles."""
        if self.loads == 0:
            return 0.0
        return self.total_latency / self.loads

    def merge(self, other: "ThreadCounters") -> None:
        """Accumulate another counter set into this one."""
        self.loads += other.loads
        self.total_latency += other.total_latency
        for i in range(4):
            self.level_cycles[i] += other.level_cycles[i]
            self.level_loads[i] += other.level_loads[i]


class MemoryHierarchy:
    """Private L1/L2 per thread over one shared L3.

    ``access(thread, line)`` walks the hierarchy, installs the line at every
    level on the way (inclusive fill), and returns the serviced level.
    """

    def __init__(self, num_threads: int, config: HierarchyConfig | None = None):
        if num_threads < 1:
            raise ValueError("num_threads must be positive")
        self.config = config or HierarchyConfig()
        self.num_threads = num_threads
        self.l1 = [Cache(self.config.l1) for _ in range(num_threads)]
        self.l2 = [Cache(self.config.l2) for _ in range(num_threads)]
        self.l3 = Cache(self.config.l3)
        self.counters = [ThreadCounters() for _ in range(num_threads)]

    def access(self, thread: int, line: int, *, store: bool = False) -> int:
        """Perform one load (or store); returns the serviced level (0..3).

        Stores follow the write-allocate policy: they walk the hierarchy
        like loads and mark the L1 line dirty; dirty evictions accumulate
        in each cache's ``writebacks``.
        """
        cfg = self.config
        counters = self.counters[thread]
        counters.loads += 1
        # Each level's ``access`` allocates on miss, so a DRAM-serviced load
        # installs the line in L1, L2 and L3 on its way down (inclusive fill).
        if self.l1[thread].access(line, store=store):
            level = 0
        elif self.l2[thread].access(line):
            level = 1
        elif self.l3.access(line):
            level = 2
        else:
            level = 3
            if cfg.prefetch_next_line:
                self.l3.install(line + 1)
                self.l2[thread].install(line + 1)
        latency = cfg.latency_of(level)
        counters.total_latency += latency
        counters.level_cycles[level] += latency
        counters.level_loads[level] += 1
        return level

    def total_writebacks(self) -> int:
        """Dirty evictions across every cache in the hierarchy."""
        total = self.l3.writebacks
        for cache in self.l1:
            total += cache.writebacks
        for cache in self.l2:
            total += cache.writebacks
        return total

    def access_address(self, thread: int, byte_address: int) -> int:
        """Load by byte address (converted to a line number)."""
        return self.access(thread, byte_address // self.config.line_bytes)

    def merged_counters(self) -> ThreadCounters:
        """Counters aggregated over all threads."""
        total = ThreadCounters()
        for c in self.counters:
            total.merge(c)
        return total

    def flush(self) -> None:
        """Empty every cache (e.g. between measurement regions)."""
        for c in self.l1:
            c.flush()
        for c in self.l2:
            c.flush()
        self.l3.flush()
