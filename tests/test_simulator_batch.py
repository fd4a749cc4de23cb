"""Property tests: the batched replay engines vs the per-access model.

The batched engine (`repro.simulator.batch`) must be *bit-identical* to
the scalar `Cache`/`MemoryHierarchy` replay — same hits, same misses,
same writebacks, same final resident state — on arbitrary traces and
cache geometries, through both the compiled kernel and the pure-Python
fallback.  The reuse-distance engine must agree with brute force and
with an actual fully-associative cache.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    Cache,
    CacheConfig,
    HierarchyConfig,
    MemoryHierarchy,
    cache_access_batch,
    hierarchy_access_batch,
    hit_ratio_curve,
    lru_stack_distances,
    miss_ratio_curve,
)
from repro._native import lru as native_lru
from repro.engine import use_engine
from repro.simulator import batch
from repro.simulator.parallel import (
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
)

GEOMETRIES = [
    CacheConfig(1 * 64, 64, 1),     # one set, one way
    CacheConfig(4 * 64, 64, 1),     # direct-mapped
    CacheConfig(8 * 64, 64, 8),     # single set, fully associative
    CacheConfig(16 * 64, 64, 4),    # 4 sets x 4 ways
    CacheConfig(64 * 64, 64, 8),    # 8 sets x 8 ways
]


def scalar_replay(cache, lines):
    """Ground truth: the per-access loop over the same cache."""
    return np.array([cache.access(int(x)) for x in lines], dtype=bool)


def warmed_pair(config, warmup):
    """Two caches in the same state after a scalar warmup with stores."""
    a, b = Cache(config), Cache(config)
    for i, line in enumerate(warmup):
        store = i % 3 == 0  # leave a mix of dirty and clean lines
        a.access(int(line), store=store)
        b.access(int(line), store=store)
    return a, b


def assert_same_state(a, b):
    assert a._sets == b._sets  # tags, dirty bits, and LRU order
    assert a.stats == b.stats
    assert a.writebacks == b.writebacks


@pytest.fixture
def python_fallback(monkeypatch):
    """Force the pure-Python replay path regardless of the toolchain."""
    monkeypatch.setattr(native_lru.KERNEL, "lib", lambda: None)


class TestCacheAccessBatch:
    @pytest.mark.parametrize("config", GEOMETRIES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_scalar(self, config, data):
        warmup = data.draw(
            st.lists(st.integers(0, 200), max_size=60), label="warmup"
        )
        trace = data.draw(
            st.lists(st.integers(0, 200), min_size=1, max_size=250),
            label="trace",
        )
        a, b = warmed_pair(config, warmup)
        expected = scalar_replay(a, trace)
        got = cache_access_batch(b, np.asarray(trace, dtype=np.int64))
        assert np.array_equal(got, expected)
        assert_same_state(a, b)

    @pytest.mark.parametrize("config", GEOMETRIES)
    def test_python_path_matches_scalar(self, config, python_fallback):
        rng = np.random.default_rng(7)
        for _ in range(10):
            warmup = rng.integers(0, 150, size=40)
            trace = rng.integers(0, 150, size=300)
            a, b = warmed_pair(config, warmup)
            expected = scalar_replay(a, trace)
            got = cache_access_batch(b, trace)
            assert np.array_equal(got, expected)
            assert_same_state(a, b)

    def test_empty_trace(self):
        cache = Cache(GEOMETRIES[3])
        got = cache_access_batch(cache, np.array([], dtype=np.int64))
        assert got.size == 0
        assert cache.stats.accesses == 0

    def test_native_and_python_paths_agree(self, monkeypatch):
        if native_lru.KERNEL.lib() is None:
            pytest.skip("no compiler available for the native kernel")
        rng = np.random.default_rng(11)
        trace = rng.integers(0, 400, size=2000)
        native_cache = Cache(GEOMETRIES[4])
        native_hits = cache_access_batch(native_cache, trace)
        monkeypatch.setattr(native_lru.KERNEL, "lib", lambda: None)
        python_cache = Cache(GEOMETRIES[4])
        python_hits = cache_access_batch(python_cache, trace)
        assert np.array_equal(native_hits, python_hits)
        assert_same_state(native_cache, python_cache)

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_non_native_engines_never_ask_for_the_kernel(
        self, monkeypatch, engine
    ):
        rng = np.random.default_rng(13)
        warmup = rng.integers(0, 400, size=200)
        trace = rng.integers(0, 400, size=2000)
        native_cache, engine_cache = warmed_pair(GEOMETRIES[4], warmup)
        with use_engine("native"):
            native_hits = cache_access_batch(native_cache, trace)

        def refuse():
            raise AssertionError(f"LRU kernel requested under {engine!r}")

        monkeypatch.setattr(native_lru.KERNEL, "lib", refuse)
        with use_engine(engine):
            engine_hits = cache_access_batch(engine_cache, trace)
        assert np.array_equal(engine_hits, native_hits)
        assert_same_state(engine_cache, native_cache)


class TestHierarchyAccessBatch:
    @given(
        trace=st.lists(st.integers(0, 600), min_size=1, max_size=400),
        threads=st.integers(1, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_scalar(self, trace, threads):
        scalar = MemoryHierarchy(threads)
        batched = MemoryHierarchy(threads)
        lines = np.asarray(trace, dtype=np.int64)
        t = threads - 1
        expected = np.array(
            [scalar.access(t, int(x)) for x in lines], dtype=np.int64
        )
        # force the batched path even for tiny hypothesis traces
        saved = batch.SCALAR_CUTOFF
        batch.SCALAR_CUTOFF = 0
        try:
            got = hierarchy_access_batch(batched, t, lines)
        finally:
            batch.SCALAR_CUTOFF = saved
        assert np.array_equal(got, expected)
        for l1a, l1b in zip(scalar.l1, batched.l1):
            assert_same_state(l1a, l1b)
        for l2a, l2b in zip(scalar.l2, batched.l2):
            assert_same_state(l2a, l2b)
        assert_same_state(scalar.l3, batched.l3)
        assert scalar.merged_counters() == batched.merged_counters()

    def test_short_trace_uses_scalar_path(self):
        # below the cutoff the scalar loop runs; results stay identical
        trace = np.arange(batch.SCALAR_CUTOFF - 1, dtype=np.int64) % 97
        scalar = MemoryHierarchy(1)
        batched = MemoryHierarchy(1)
        expected = np.array(
            [scalar.access(0, int(x)) for x in trace], dtype=np.int64
        )
        assert np.array_equal(
            hierarchy_access_batch(batched, 0, trace), expected
        )

    def test_prefetcher_falls_back_to_scalar(self):
        cfg = HierarchyConfig(prefetch_next_line=True)
        trace = np.arange(3000, dtype=np.int64) % 511
        scalar = MemoryHierarchy(1, cfg)
        batched = MemoryHierarchy(1, cfg)
        expected = np.array(
            [scalar.access(0, int(x)) for x in trace], dtype=np.int64
        )
        got = hierarchy_access_batch(batched, 0, trace)
        assert np.array_equal(got, expected)
        assert scalar.merged_counters() == batched.merged_counters()


def random_region(rng, num_threads, num_items=60, lines_per_item=40):
    items = [
        WorkItem(
            lines=rng.integers(0, 800, size=rng.integers(1, lines_per_item)),
            compute_cycles=int(rng.integers(0, 20)),
        )
        for _ in range(num_items)
    ]
    schedule = static_block_schedule(len(items), num_threads)
    return [[items[i] for i in idx] for idx in schedule]


class TestRunExactRegion:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_run_matches_reference(self, threads):
        rng = np.random.default_rng(threads)
        per_thread = random_region(rng, threads)
        machine = SimulatedMachine(threads)
        reference = machine.run_reference(per_thread)
        batched = machine.run(per_thread)
        assert batched.thread_cycles == reference.thread_cycles
        assert batched.thread_loads == reference.thread_loads
        assert batched.report == reference.report

    def test_run_matches_reference_python_path(self, python_fallback):
        rng = np.random.default_rng(3)
        per_thread = random_region(rng, 4)
        machine = SimulatedMachine(4)
        assert (
            machine.run(per_thread).report
            == machine.run_reference(per_thread).report
        )

    def test_prefetch_config_still_exact(self):
        rng = np.random.default_rng(5)
        per_thread = random_region(rng, 2)
        machine = SimulatedMachine(
            2, HierarchyConfig(prefetch_next_line=True)
        )
        assert (
            machine.run(per_thread).report
            == machine.run_reference(per_thread).report
        )

    def test_empty_threads_ok(self):
        machine = SimulatedMachine(3)
        per_thread = [[WorkItem(lines=[1, 2, 3])], [], []]
        batched = machine.run(per_thread)
        reference = machine.run_reference(per_thread)
        assert batched.thread_cycles == reference.thread_cycles


def brute_force_distances(lines):
    out = []
    for i, line in enumerate(lines):
        prev = None
        for j in range(i - 1, -1, -1):
            if lines[j] == line:
                prev = j
                break
        if prev is None:
            out.append(-1)
        else:
            out.append(len(set(lines[prev + 1: i])))
    return np.asarray(out, dtype=np.int64)


class TestReuseDistances:
    @given(
        trace=st.lists(st.integers(0, 30), min_size=1, max_size=120)
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, trace):
        got = lru_stack_distances(np.asarray(trace, dtype=np.int64))
        assert np.array_equal(got, brute_force_distances(trace))

    @pytest.mark.parametrize("capacity", [1, 2, 4, 8, 16])
    def test_curve_matches_fully_associative_cache(self, capacity):
        rng = np.random.default_rng(capacity)
        trace = rng.integers(0, 40, size=600)
        cache = Cache(CacheConfig(capacity * 64, 64, capacity))
        hits = scalar_replay(cache, trace)
        distances = lru_stack_distances(trace)
        (ratio,) = hit_ratio_curve(distances, [capacity])
        assert ratio == pytest.approx(hits.mean())
        (miss,) = miss_ratio_curve(distances, [capacity])
        assert miss == pytest.approx(1.0 - hits.mean())

    def test_curve_monotone_in_capacity(self):
        rng = np.random.default_rng(0)
        distances = lru_stack_distances(rng.integers(0, 64, size=500))
        curve = hit_ratio_curve(distances, [1, 2, 4, 8, 16, 32, 64, 128])
        assert np.all(np.diff(curve) >= 0)

    def test_empty_trace(self):
        distances = lru_stack_distances(np.array([], dtype=np.int64))
        assert distances.size == 0
        assert np.array_equal(
            hit_ratio_curve(distances, [4, 8]), [0.0, 0.0]
        )
