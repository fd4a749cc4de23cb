"""Unit tests for memory layouts and the simulated parallel machine."""

import numpy as np
import pytest

from repro.engine import use_engine
from repro.simulator import (
    CacheConfig,
    HierarchyConfig,
    MemoryLayout,
    SimulatedMachine,
    WorkItem,
    csr_layout,
    static_block_schedule,
    static_interleaved_schedule,
)


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

    @pytest.mark.parametrize("engine", ["native", "vector"])
    def test_zero_threads_rejected(self, engine):
        # no thread to run the work on: refused up front under every
        # engine, instead of a region that silently drops every load
        with use_engine(engine), pytest.raises(
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
