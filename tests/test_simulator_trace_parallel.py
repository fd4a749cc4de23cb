"""Unit tests for memory layouts and the simulated parallel machine."""

import dataclasses

import numpy as np
import pytest

from repro.engine import use_engine
from repro.simulator import (
    BlockTrace,
    CacheConfig,
    HierarchyConfig,
    MemoryLayout,
    SimulatedMachine,
    WorkItem,
    csr_layout,
    static_block_schedule,
    static_interleaved_schedule,
)
from tests.conftest import LEGS, kernels_off, on_leg


class TestMemoryLayout:
    def test_arrays_do_not_overlap(self):
        layout = MemoryLayout()
        layout.add_array("a", 100, 8)
        layout.add_array("b", 100, 8)
        a_end = layout.address("a", 99) + 8
        b_start = layout.address("b", 0)
        assert b_start >= a_end

    def test_line_computation(self):
        layout = MemoryLayout(line_bytes=64)
        layout.add_array("a", 100, 8)
        # elements 0..7 share a line; element 8 starts the next line
        assert layout.line("a", 0) == layout.line("a", 7)
        assert layout.line("a", 8) == layout.line("a", 0) + 1

    def test_vectorised_lines(self):
        layout = MemoryLayout()
        layout.add_array("a", 100, 8)
        lines = layout.lines("a", np.asarray([0, 7, 8]))
        assert lines[0] == lines[1]
        assert lines[2] == lines[0] + 1

    def test_duplicate_array_rejected(self):
        layout = MemoryLayout()
        layout.add_array("a", 10, 8)
        with pytest.raises(ValueError):
            layout.add_array("a", 10, 8)

    def test_invalid_geometry_rejected(self):
        layout = MemoryLayout()
        with pytest.raises(ValueError):
            layout.add_array("a", -1, 8)
        with pytest.raises(ValueError):
            layout.add_array("b", 10, 0)

    def test_csr_layout_has_standard_arrays(self):
        layout = csr_layout(100, 400, extra_vertex_arrays=("extra",))
        for name in ("indptr", "indices", "vdata", "extra"):
            assert layout.line(name, 0) >= 0

    def test_total_bytes(self):
        layout = MemoryLayout()
        layout.add_array("a", 512, 8)  # 4096 bytes = 1 page
        assert layout.total_bytes == 4096


class TestSchedules:
    def test_block_covers_all(self):
        blocks = static_block_schedule(10, 3)
        flat = np.concatenate(blocks)
        assert sorted(flat) == list(range(10))

    def test_block_contiguity(self):
        blocks = static_block_schedule(10, 3)
        for b in blocks:
            if b.size > 1:
                assert (np.diff(b) == 1).all()

    def test_interleaved_covers_all(self):
        blocks = static_interleaved_schedule(10, 3)
        flat = np.concatenate(blocks)
        assert sorted(flat) == list(range(10))
        assert list(blocks[0]) == [0, 3, 6, 9]


def tiny_config() -> HierarchyConfig:
    return HierarchyConfig(
        l1=CacheConfig(2 * 64, 64, 2),
        l2=CacheConfig(4 * 64, 64, 2),
        l3=CacheConfig(8 * 64, 64, 2),
    )


class TestSimulatedMachine:
    def test_thread_count_enforced(self):
        machine = SimulatedMachine(2, tiny_config())
        with pytest.raises(ValueError, match="per thread"):
            machine.run([[]])

    def test_single_thread_full_efficiency(self):
        machine = SimulatedMachine(1, tiny_config())
        items = [WorkItem(lines=[0, 1], compute_cycles=5)]
        result = machine.run([items])
        assert result.work_fraction == 1.0
        assert result.makespan > 0

    def test_imbalanced_work_reduces_efficiency(self):
        machine = SimulatedMachine(2, tiny_config())
        heavy = [WorkItem(lines=list(range(50)), compute_cycles=100)]
        light: list[WorkItem] = []
        result = machine.run([heavy, light])
        assert result.work_fraction <= 0.55
        assert result.load_imbalance >= 1.8

    def test_balanced_work_high_efficiency(self):
        machine = SimulatedMachine(2, tiny_config())
        work = [WorkItem(lines=[i], compute_cycles=10) for i in range(20)]
        result = machine.run([work[:10], work[10:]])
        assert result.work_fraction > 0.8

    def test_counters_loads_match_trace(self):
        machine = SimulatedMachine(2, tiny_config())
        a = [WorkItem(lines=[0, 1, 2])]
        b = [WorkItem(lines=[3, 4])]
        result = machine.run([a, b])
        assert result.report.loads == 5
        assert result.thread_loads == (3, 2)

    def test_shared_l3_visible_across_threads(self):
        """Thread 1 re-reading thread 0's lines should hit shared L3."""
        machine = SimulatedMachine(2, tiny_config())
        # thread 0 touches lines first; thread 1 touches the same lines
        # in its second item (after thread 0's first item ran).
        t0 = [WorkItem(lines=[100, 101])]
        t1 = [WorkItem(lines=[200]), WorkItem(lines=[100, 101])]
        result = machine.run([t0, t1])
        # at least one L3 hit occurred
        assert result.report.bound[2] > 0

    def test_dynamic_scheduling_balances(self):
        machine = SimulatedMachine(2, tiny_config())
        items = [
            WorkItem(lines=[i % 8], compute_cycles=10 + (i % 3))
            for i in range(40)
        ]
        result = machine.run_dynamic(items, chunk=2)
        assert result.work_fraction > 0.85

    def test_dynamic_chunk_validated(self):
        machine = SimulatedMachine(1, tiny_config())
        with pytest.raises(ValueError):
            machine.run_dynamic([], chunk=0)

    @pytest.mark.parametrize("leg", ["native", "kernels_off"])
    def test_zero_threads_rejected(self, leg):
        # no thread to run the work on: refused up front, kernels on or
        # off, instead of a region that silently drops every load
        with on_leg(leg), pytest.raises(
            ValueError, match="num_threads must be positive"
        ):
            SimulatedMachine(0).run_dynamic(
                [WorkItem([1, 2, 3], 5)] * 3, chunk=1
            )

    def test_empty_run(self):
        machine = SimulatedMachine(2, tiny_config())
        result = machine.run([[], []])
        assert result.makespan == 0
        assert result.work_fraction == 1.0


# ---------------------------------------------------------------------------
# Block-indexed traces: the same regions as WorkItem lists and as the
# per-access twins, with the kernels on and off
# ---------------------------------------------------------------------------
def block_trace(seed, count=25, num_blocks=12, max_blocks=6, span=3000,
                max_len=120):
    """A random trace over a shared block table: empty blocks, repeated
    block ids within an item, items with no block at all."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len, size=num_blocks)
    lengths[::5] = 0
    block_offsets = np.concatenate(([0], np.cumsum(lengths)))
    blocks = rng.integers(0, span, size=int(block_offsets[-1]))
    per_item = rng.integers(0, max_blocks + 1, size=count)
    item_offsets = np.concatenate(([0], np.cumsum(per_item)))
    item_blocks = rng.integers(0, num_blocks, size=int(item_offsets[-1]))
    compute = rng.integers(0, 400, size=count)
    return BlockTrace(blocks, block_offsets, item_blocks, item_offsets,
                      compute)


def spelled_out(trace):
    """The trace's items with each stream concatenated by hand."""
    out = []
    for i in range(trace.num_items):
        ids = trace.item_blocks[
            trace.item_offsets[i]: trace.item_offsets[i + 1]
        ]
        lines = [
            int(line) for b in ids
            for line in trace.blocks[
                trace.block_offsets[b]: trace.block_offsets[b + 1]
            ]
        ]
        out.append(WorkItem(lines, int(trace.compute[i])))
    return out


def per_thread(items, thread, num_threads):
    return [
        [items[i] for i in range(len(items)) if thread[i] == t]
        for t in range(num_threads)
    ]


def as_lists(items):
    return [(list(map(int, item.lines)), item.compute_cycles)
            for item in items]


def test_block_trace_work_items_spell_out_the_blocks():
    trace = block_trace(1)
    expected = as_lists(spelled_out(trace))
    assert as_lists(trace.work_items()) == expected
    flat = BlockTrace.from_items(spelled_out(trace))
    assert as_lists(flat.work_items()) == expected
    picked = [4, 0, 4, 17]
    assert as_lists(trace.select(picked).work_items()) == [
        expected[i] for i in picked
    ]


@pytest.mark.parametrize("leg", ["native", "kernels_off"])
@pytest.mark.parametrize("threads", [1, 3, 5])
@pytest.mark.parametrize("seed", [2, 3])
def test_block_trace_static_matches_reference(leg, threads, seed):
    trace = block_trace(seed)
    rng = np.random.default_rng(seed + 10)
    thread = rng.integers(0, threads, size=trace.num_items)
    machine = SimulatedMachine(threads, HierarchyConfig.for_scale(0.05))
    items = spelled_out(trace)
    reference = machine.run_reference(per_thread(items, thread, threads))
    with on_leg(leg):
        assert machine.run(trace, item_thread=thread) == reference
        assert machine.run(per_thread(items, thread, threads)) == reference


def test_block_trace_replays_without_the_python_twins(monkeypatch):
    """Under the native engine a block trace never reaches Python."""
    from tests.test_native_kernels import native_available

    if not native_available():
        pytest.skip("no C compiler: the Python twins replay instead")
    trace = block_trace(7)
    machine = SimulatedMachine(3, HierarchyConfig.for_scale(0.05))
    expected_static = machine.run_reference(
        per_thread(spelled_out(trace), np.arange(25) % 3, 3)
    )
    with kernels_off():
        expected_dynamic = machine.run_dynamic(trace, chunk=4)

    def refuse(*args, **kwargs):
        raise AssertionError("replayed in Python")

    monkeypatch.setattr(SimulatedMachine, "run_reference", refuse)
    monkeypatch.setattr(SimulatedMachine, "_run_dynamic_python", refuse)
    with use_engine("native"):
        assert machine.run(
            trace, item_thread=np.arange(25) % 3
        ) == expected_static
        assert machine.run_dynamic(trace, chunk=4) == expected_dynamic


#: the shapes a dynamic region is replayed in: short items, items
#: longer than 1024 lines (several thousand loads each), and short
#: items under the next-line prefetcher, which only Python replays.
DYNAMIC_SHAPES = {
    "short": (dict(), False),
    "long": (dict(count=12, max_len=1500), False),
    "prefetch": (dict(), True),
}


@pytest.mark.parametrize("leg", ["native", "kernels_off"])
@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("shape", sorted(DYNAMIC_SHAPES))
def test_block_trace_dynamic_matches_per_access(leg, chunk, seed, shape):
    """Equal to the per-access loop on the lowest-clock chunk schedule,
    which the ``sim_region`` kernel equals wherever it runs."""
    from tests.test_native_kernels import run_dynamic_per_access

    sizes, prefetch = DYNAMIC_SHAPES[shape]
    trace = block_trace(seed, **sizes)
    config = dataclasses.replace(
        HierarchyConfig.for_scale(0.05), prefetch_next_line=prefetch
    )
    machine = SimulatedMachine(3, config)
    items = spelled_out(trace)
    expected = run_dynamic_per_access(machine, items, chunk)
    with on_leg(leg):
        assert machine.run_dynamic(trace, chunk=chunk) == expected
        assert machine.run_dynamic(items, chunk=chunk) == expected


@pytest.mark.parametrize("leg", ["native", "kernels_off"])
def test_block_trace_edge_shapes(leg):
    """Empty traces, zero-length blocks, one item spanning many blocks."""
    from tests.test_native_kernels import run_dynamic_per_access

    machine = SimulatedMachine(2, HierarchyConfig.for_scale(0.05))
    empty = BlockTrace([], [0], [], [0], [])
    one_block_table = dict(blocks=np.arange(40), block_offsets=[0, 0, 40])
    zero_length = BlockTrace(item_blocks=[0, 0, 0], item_offsets=[0, 1, 3],
                             compute=[5, 7], **one_block_table)
    spanning = BlockTrace(item_blocks=[1, 0, 1, 1] * 50,
                          item_offsets=[0, 200], compute=[3],
                          **one_block_table)
    with on_leg(leg):
        for trace in (empty, zero_length, spanning):
            items = spelled_out(trace)
            assert machine.run_dynamic(trace, chunk=2) == (
                run_dynamic_per_access(machine, items, 2)
            )
            thread = np.arange(trace.num_items) % 2
            assert machine.run(trace, item_thread=thread) == (
                machine.run_reference(per_thread(items, thread, 2))
            )
        assert machine.run_dynamic(empty).thread_cycles == (0, 0)
        assert sum(machine.run_dynamic(spanning).thread_loads) == 6000


@pytest.mark.parametrize("leg", ["native", "kernels_off"])
def test_block_trace_negative_line_replays_in_python(leg):
    from tests.test_native_kernels import run_dynamic_per_access

    trace = block_trace(6)
    blocks = trace.blocks.copy()
    blocks[blocks.size // 2] = -7
    negative = BlockTrace(blocks, trace.block_offsets, trace.item_blocks,
                          trace.item_offsets, trace.compute)
    machine = SimulatedMachine(3, HierarchyConfig.for_scale(0.05))
    items = spelled_out(negative)
    with on_leg(leg):
        assert machine.run_dynamic(negative, chunk=2) == (
            run_dynamic_per_access(machine, items, 2)
        )


# ---------------------------------------------------------------------------
# Every id and offset the replay kernel indexes with is checked up front
# ---------------------------------------------------------------------------
TRACE_TABLE = dict(blocks=np.arange(30), block_offsets=[0, 10, 10, 30])


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("bad", [[0, 3], [-1, 2], [2, 99]])
def test_block_ids_outside_the_table_rejected(leg, bad):
    with on_leg(leg), pytest.raises(ValueError, match="block ids"):
        SimulatedMachine(2).run_dynamic(BlockTrace(
            item_blocks=bad, item_offsets=[0, 1, 2], compute=[1, 1],
            **TRACE_TABLE,
        ))


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("block_offsets", [
    [1, 10, 10, 30],    # does not start at 0
    [0, 10, 10, 29],    # does not end at len(blocks)
    [0, 12, 10, 30],    # steps down
    [],                 # no offsets at all
])
def test_block_offsets_must_rise_from_zero_to_the_stream(
    leg, block_offsets
):
    with on_leg(leg), pytest.raises(
        ValueError, match="block_offsets must be non-decreasing"
    ):
        SimulatedMachine(2).run_dynamic(BlockTrace(
            np.arange(30), block_offsets, [0, 1], [0, 1, 2], [1, 1],
        ))


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("item_offsets", [
    [1, 1, 2], [0, 1, 3], [0, 2, 1], [0, 1, 1, 0],
])
def test_item_offsets_must_rise_from_zero_to_the_block_ids(
    leg, item_offsets
):
    with on_leg(leg), pytest.raises(
        ValueError, match="item_offsets must be non-decreasing"
    ):
        SimulatedMachine(2).run_dynamic(BlockTrace(
            item_blocks=[0, 2], item_offsets=item_offsets,
            compute=[1] * (len(item_offsets) - 1), **TRACE_TABLE,
        ))


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("thread", [[0, 2], [-1, 0], [0]])
def test_item_threads_outside_the_machine_rejected(leg, thread):
    trace = BlockTrace(item_blocks=[0, 2], item_offsets=[0, 1, 2],
                       compute=[1, 1], **TRACE_TABLE)
    with on_leg(leg), pytest.raises(ValueError, match="thread"):
        SimulatedMachine(2).run(trace, item_thread=thread)


@pytest.mark.parametrize("leg", LEGS)
def test_item_threads_with_per_thread_lists_rejected(leg):
    """Per-thread lists already place every item: a thread map beside
    them would be ignored."""
    items = [[WorkItem([1, 2], 3)], [WorkItem([4], 1)]]
    with on_leg(leg), pytest.raises(ValueError, match="item_thread"):
        SimulatedMachine(2).run(items, item_thread=[7, 9])


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("compute", [[1.5, 2], [1.0, 2.0], [1]])
def test_fractional_or_missing_compute_cycles_rejected(leg, compute):
    with on_leg(leg), pytest.raises(ValueError, match="compute"):
        SimulatedMachine(2).run_dynamic(BlockTrace(
            item_blocks=[0, 2], item_offsets=[0, 1, 2], compute=compute,
            **TRACE_TABLE,
        ))
