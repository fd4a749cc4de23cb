"""Tests for the bench fan-out pool, cache warming, and perf harness."""

import os
import time

import numpy as np
import pytest

from repro.bench import perf
from repro.bench.pool import (
    CellFailedError,
    default_jobs,
    default_retries,
    default_timeout,
    map_cells,
    map_cells_detailed,
    set_default_jobs,
    set_default_retries,
    set_default_timeout,
)
from repro.bench.runners import (
    _measures_cache,
    _ordering_cache,
    measures_for,
    ordering_for,
    warm_measures,
    warm_orderings,
)
from tests.conftest import run_bench, strip_stamps

SMALL = "euroroad"


def _double(cell):
    return cell * 2


def _tag_pid(cell):
    return (cell, os.getpid())


class TestMapCells:
    def test_sequential_matches_parallel(self):
        cells = list(range(20))
        assert map_cells(_double, cells, jobs=1) == map_cells(
            _double, cells, jobs=4
        )

    def test_order_preserved(self):
        cells = [5, 3, 8, 1, 9]
        assert map_cells(_double, cells, jobs=3) == [10, 6, 16, 2, 18]

    def test_parallel_engages_worker_processes(self):
        results = map_cells(_tag_pid, list(range(8)), jobs=2)
        pids = {pid for _, pid in results}
        assert os.getpid() not in pids
        assert [c for c, _ in results] == list(range(8))

    def test_single_cell_runs_in_process(self):
        ((_, pid),) = map_cells(_tag_pid, [0], jobs=4)
        assert pid == os.getpid()

    def test_jobs_one_runs_in_process(self):
        results = map_cells(_tag_pid, list(range(4)), jobs=1)
        assert {pid for _, pid in results} == {os.getpid()}

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            map_cells(_double, [1], jobs=0)
        with pytest.raises(ValueError):
            set_default_jobs(0)

    def test_default_jobs_round_trip(self):
        saved = default_jobs()
        try:
            set_default_jobs(3)
            assert default_jobs() == 3
        finally:
            set_default_jobs(saved)

    def test_empty_cells(self):
        assert map_cells(_double, [], jobs=4) == []


def _fail_on_three(cell):
    if cell == 3:
        raise RuntimeError("cell three always fails")
    return cell * 2


def _worker_default_jobs(cell):
    return default_jobs()


def _worker_default_timeout(cell):
    return default_timeout()


def _sleep_two(cell):
    time.sleep(2.0)
    return cell


class TestNestedFanOut:
    def test_pool_workers_are_leaves(self):
        """Workers must not inherit the parent's width and nest a pool."""
        set_default_jobs(2)
        assert map_cells(_worker_default_jobs, [0, 1, 2]) == [1, 1, 1]
        assert default_jobs() == 2

    def test_pool_workers_leave_the_deadline_to_the_supervisor(self):
        set_default_timeout(30.0)
        assert map_cells(_worker_default_timeout, [0, 1]) == [None, None]
        assert default_timeout() == 30.0

    def test_fig11_parallel_matches_sequential(self, tmp_path):
        """fig11 fans its cells out, and each cell samples in batches.

        Separate caches make both runs compute every cell.
        """
        args = ["fig11", "--datasets", SMALL]
        sequential = run_bench([*args, "--jobs", "1"], tmp_path / "one")
        parallel = run_bench([*args, "--jobs", "2"], tmp_path / "two")
        assert sequential.returncode == 0, sequential.stderr
        assert parallel.returncode == 0, parallel.stderr
        assert strip_stamps(parallel.stdout) == strip_stamps(
            sequential.stdout
        )


class TestSupervisedFailureModes:
    def test_strict_map_raises_cell_failed(self):
        with pytest.raises(CellFailedError) as excinfo:
            map_cells(
                _fail_on_three, list(range(6)), jobs=2, retries=1
            )
        err = excinfo.value
        assert [index for index, _ in err.failures] == [3]
        assert "cell three always fails" in err.failures[0][1]
        # The surviving cells are still inspectable on the exception.
        assert len(err.results) == 6
        assert [r.value for r in err.results if r.ok] == [0, 2, 4, 8, 10]

    def test_strict_map_enforces_timeout_at_one_job(self):
        with pytest.raises(CellFailedError, match="timed out"):
            map_cells(_sleep_two, [0], jobs=1, timeout=0.2, retries=0)

    def test_detailed_map_degrades_instead_of_raising(self):
        results = map_cells_detailed(
            _fail_on_three, list(range(6)), jobs=2, retries=1
        )
        assert not results[3].ok
        assert "cell three always fails" in results[3].error
        for index in (0, 1, 2, 4, 5):
            assert results[index].ok
            assert results[index].value == index * 2

    def test_default_timeout_round_trip(self):
        saved = default_timeout()
        try:
            set_default_timeout(12.5)
            assert default_timeout() == 12.5
            set_default_timeout(None)
            assert default_timeout() is None
        finally:
            set_default_timeout(saved)
        with pytest.raises(ValueError):
            set_default_timeout(0)
        with pytest.raises(ValueError):
            set_default_timeout(-1.0)

    def test_default_retries_round_trip(self):
        saved = default_retries()
        try:
            set_default_retries(5)
            assert default_retries() == 5
            set_default_retries(0)
            assert default_retries() == 0
        finally:
            set_default_retries(saved)
        with pytest.raises(ValueError):
            set_default_retries(-1)


class TestWarmCaches:
    @pytest.fixture(autouse=True)
    def clean_caches(self):
        saved_ord = dict(_ordering_cache)
        saved_meas = dict(_measures_cache)
        _ordering_cache.clear()
        _measures_cache.clear()
        yield
        _ordering_cache.clear()
        _ordering_cache.update(saved_ord)
        _measures_cache.clear()
        _measures_cache.update(saved_meas)

    def test_warm_orderings_seeds_cache(self):
        pairs = [("rcm", SMALL), ("natural", SMALL)]
        warm_orderings(pairs, jobs=2)
        assert all(p in _ordering_cache for p in pairs)
        # the accessor is now a pure cache hit (identity-preserving)
        assert ordering_for("rcm", SMALL) is _ordering_cache[("rcm", SMALL)]

    def test_warm_matches_sequential_compute(self):
        warm_orderings([("rcm", SMALL)], jobs=2)
        warmed = ordering_for("rcm", SMALL).permutation.copy()
        _ordering_cache.clear()
        direct = ordering_for("rcm", SMALL).permutation
        assert np.array_equal(warmed, direct)

    def test_warm_measures_matches_sequential(self):
        warm_measures([("natural", SMALL)], jobs=2)
        warmed = measures_for("natural", SMALL)
        _measures_cache.clear()
        _ordering_cache.clear()
        assert measures_for("natural", SMALL) == warmed

    def test_warm_dedupes_pairs(self):
        warm_orderings(
            [("rcm", SMALL), ("rcm", SMALL), ("rcm", SMALL)], jobs=2
        )
        assert ("rcm", SMALL) in _ordering_cache


class TestPerfHarness:
    def test_measure_schema_and_identity(self):
        result = perf.measure(SMALL, num_threads=2, repeats=1)
        assert result["schema_version"] == perf.SCHEMA_VERSION
        assert result["dataset"] == SMALL
        assert result["num_accesses"] > 0
        assert set(result["timings_s"]) == {
            "trace_build", "replay_reference", "replay_batch",
            "reuse_distances", "hit_ratio_curve", "ordering_rcm",
            "gap_measures",
        }
        assert result["checks"]["replay_bit_identical"] is True
        assert result["speedup"]["replay"] > 0

    def test_check_flags_regressions(self):
        good = {
            "checks": {"replay_bit_identical": True},
            "speedup": {"replay": 5.0},
        }
        assert perf.check(good, min_speedup=3.0) == []
        assert perf.check(good, min_speedup=None) == []
        slow = {
            "checks": {"replay_bit_identical": True},
            "speedup": {"replay": 1.2},
        }
        assert len(perf.check(slow, min_speedup=3.0)) == 1
        broken = {
            "checks": {"replay_bit_identical": False},
            "speedup": {"replay": 5.0},
        }
        assert len(perf.check(broken, min_speedup=None)) == 1

    def test_committed_file_is_current_schema(self):
        assert perf.DEFAULT_PATH.exists(), (
            "BENCH_simulator.json must be committed at the repo root"
        )
        import json

        recorded = json.loads(perf.DEFAULT_PATH.read_text())
        assert recorded["schema_version"] == perf.SCHEMA_VERSION
        assert recorded["checks"]["replay_bit_identical"] is True
        assert perf.check(recorded, min_speedup=3.0) == []
