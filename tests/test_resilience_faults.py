"""Deterministic fault injection: grammar, schedules, recovery properties.

The property the whole subsystem rests on: a fault schedule is a pure
function of the spec — same spec and seed, same faults — and for every
fault mode the *non-degraded* cells of a supervised run carry exactly
the values a fault-free sequential run computes.
"""

import numpy as np
import pytest

from repro.ordering import OrderingStore, get_scheme
from repro.resilience import faults
from repro.resilience.faults import (
    CRASH_EXIT_CODE,
    FaultSpec,
    InjectedFault,
    parse_spec,
)
from repro.resilience.supervisor import run_supervised
from tests.conftest import random_graph, run_bench


def _square(x):
    return x * x


def _set_faults(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULTS", spec)


@pytest.fixture(autouse=True)
def _fresh_plans():
    """Drop cached plans so per-process state (corruption and dispatch
    counters) never leaks between tests sharing a spec string."""
    faults._PLANS.clear()
    yield
    faults._PLANS.clear()


# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------
class TestParseSpec:
    def test_bare_kind_defaults(self):
        (spec,) = parse_spec("cache-corrupt")
        assert spec == FaultSpec(kind="cache-corrupt")
        assert spec.p == 1.0 and spec.seed == 0
        assert spec.cells is None

    def test_full_clause(self):
        (spec,) = parse_spec("worker-crash:p=0.1:seed=7:cells=2,5")
        assert spec.kind == "worker-crash"
        assert spec.p == 0.1
        assert spec.seed == 7
        assert spec.cells == (2, 5)

    def test_multiple_clauses(self):
        specs = parse_spec("worker-crash:p=0.5;cell-timeout:seed=3")
        assert [s.kind for s in specs] == ["worker-crash", "cell-timeout"]
        assert specs[1].seed == 3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_spec("disk-on-fire")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown fault parameter"):
            parse_spec("worker-crash:q=1")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_spec("worker-crash:p")

    def test_probability_range_checked(self):
        with pytest.raises(ValueError, match="not in"):
            parse_spec("worker-crash:p=1.5")

    def test_active_plan_fails_loud_on_bad_spec(self, monkeypatch):
        _set_faults(monkeypatch, "nonsense")
        with pytest.raises(ValueError):
            faults.active_plan()

    def test_empty_env_means_no_plan(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert faults.active_plan() is None


# ---------------------------------------------------------------------------
# Schedule determinism
# ---------------------------------------------------------------------------
class TestSchedule:
    KEYS = [f"cell:{i}:attempt:1" for i in range(64)]

    def test_same_spec_same_schedule(self):
        a = faults.FaultPlan(parse_spec("worker-crash:p=0.2:seed=1"))
        b = faults.FaultPlan(parse_spec("worker-crash:p=0.2:seed=1"))
        sched = a.schedule("worker-crash", self.KEYS)
        assert sched == b.schedule("worker-crash", self.KEYS)
        assert any(sched) and not all(sched)

    def test_seed_changes_schedule(self):
        a = faults.FaultPlan(parse_spec("worker-crash:p=0.2:seed=1"))
        b = faults.FaultPlan(parse_spec("worker-crash:p=0.2:seed=2"))
        assert a.schedule("worker-crash", self.KEYS) != b.schedule(
            "worker-crash", self.KEYS
        )

    def test_probability_one_always_fires(self):
        plan = faults.FaultPlan(parse_spec("worker-crash"))
        assert all(plan.schedule("worker-crash", self.KEYS))

    def test_probability_scales_density(self):
        low = faults.FaultPlan(parse_spec("worker-crash:p=0.05:seed=3"))
        high = faults.FaultPlan(parse_spec("worker-crash:p=0.6:seed=3"))
        assert sum(low.schedule("worker-crash", self.KEYS)) < sum(
            high.schedule("worker-crash", self.KEYS)
        )

    def test_cells_filter_restricts(self):
        plan = faults.FaultPlan(parse_spec("worker-crash:cells=2,5"))
        cells = list(range(8))
        sched = plan.schedule("worker-crash", self.KEYS[:8], cells)
        assert sched == [c in (2, 5) for c in cells]

    def test_unlisted_kind_never_fires(self):
        plan = faults.FaultPlan(parse_spec("cache-corrupt"))
        assert not any(plan.schedule("worker-crash", self.KEYS))


# ---------------------------------------------------------------------------
# Property: per fault mode, non-degraded cells match fault-free values
# ---------------------------------------------------------------------------
FAULT_MODES = [
    "worker-crash:p=0.3:seed=5",
    "cell-timeout:p=0.3:seed=5",
    "worker-crash:p=0.2:seed=1;cell-timeout:p=0.2:seed=9",
]


class TestEquivalenceUnderFaults:
    @pytest.mark.parametrize("spec", FAULT_MODES)
    def test_sequential_values_match_fault_free(self, monkeypatch, spec):
        cells = list(range(24))
        baseline = [_square(c) for c in cells]
        _set_faults(monkeypatch, spec)
        results = run_supervised(_square, cells, jobs=1, retries=4)
        for cell, result in zip(cells, results):
            if result.ok:
                assert result.value == _square(cell)
        # No cell fires 5 consecutive attempts under these seeds, so
        # with retries=4 the whole grid must have converged.
        assert [r.value for r in results] == baseline

    @pytest.mark.parametrize("spec", FAULT_MODES[:1])
    def test_parallel_values_match_fault_free(self, monkeypatch, spec):
        cells = list(range(24))
        _set_faults(monkeypatch, spec)
        results = run_supervised(
            _square, cells, jobs=4, retries=3, timeout=10.0
        )
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [_square(c) for c in cells]

    def test_retry_attempts_follow_schedule(self, monkeypatch):
        _set_faults(monkeypatch, "worker-crash:p=0.3:seed=5")
        plan = faults.active_plan()
        results = run_supervised(_square, range(24), jobs=1, retries=3)
        for index, result in enumerate(results):
            expected = 1
            while plan.decide(
                "worker-crash", f"cell:{index}:attempt:{expected}",
                cell=index,
            ):
                expected += 1
            assert result.attempts == expected, index

    def test_always_crashing_cell_degrades_others_identical(
        self, monkeypatch
    ):
        cells = list(range(10))
        baseline = [_square(c) for c in cells]
        _set_faults(monkeypatch, "worker-crash:p=1:cells=4")
        results = run_supervised(_square, cells, jobs=2, retries=2)
        assert not results[4].ok
        assert results[4].attempts == 3
        assert str(CRASH_EXIT_CODE) in results[4].error
        for index, result in enumerate(results):
            if index != 4:
                assert result.ok and result.value == baseline[index]

    def test_sequential_injection_is_soft(self, monkeypatch):
        _set_faults(
            monkeypatch, "worker-crash:p=1:cells=0;cell-timeout:p=1:cells=0"
        )
        with pytest.raises(InjectedFault):
            faults.maybe_worker_crash(0, 1, hard=False)
        with pytest.raises(InjectedFault):
            faults.maybe_cell_timeout(0, 1, stall_seconds=None)
        # Cells outside the filter are untouched.
        faults.maybe_worker_crash(1, 1, hard=False)
        faults.maybe_cell_timeout(1, 1, stall_seconds=None)


# ---------------------------------------------------------------------------
# Degraded grid cells: NaN in the figure, named on stderr, exit 1
# ---------------------------------------------------------------------------
class TestDegradedCells:
    GRID = ["fig1", "--datasets", "euroroad", "--schemes", "natural,random"]

    def test_degraded_cell_renders_nan(self, monkeypatch):
        from repro.bench import runners

        runners.reset_caches()
        _set_faults(monkeypatch, "worker-crash:p=1:cells=0")
        scores = runners.collect_scores(
            ["natural", "random"], ["euroroad"], lambda m: m.average_gap,
        )
        degraded = runners.degraded_cells()
        assert list(degraded) == [("natural", "euroroad")]
        error, attempts = degraded[("natural", "euroroad")]
        assert "injected worker-crash" in error
        assert attempts == 3
        assert np.isnan(scores["natural"]["euroroad"])
        assert np.isfinite(scores["random"]["euroroad"])

    def test_cli_names_degraded_cells_and_exits_1(self, tmp_path):
        result = run_bench(
            self.GRID, tmp_path / "cache",
            REPRO_FAULTS="worker-crash:p=1:cells=0",
        )
        assert result.returncode == 1, result.stderr
        degraded = [
            line for line in result.stderr.splitlines()
            if line.startswith("[degraded]")
        ]
        assert len(degraded) == 1, result.stderr
        assert degraded[0].startswith("[degraded] natural/euroroad: ")
        assert degraded[0].endswith("(after 3 attempts)")
        assert "[degraded]" not in result.stdout


# ---------------------------------------------------------------------------
# cache-corrupt: the self-healing store under torn writes
# ---------------------------------------------------------------------------
class TestCacheCorrupt:
    def test_torn_write_quarantined_and_recomputed(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(60, 150, seed=3)
        scheme = get_scheme("rcm")
        clean = OrderingStore(str(tmp_path / "clean"))
        expected = clean.get_or_compute(graph, scheme)

        _set_faults(monkeypatch, "cache-corrupt")
        store = OrderingStore(str(tmp_path / "torn"))
        first = store.get_or_compute(graph, scheme)  # write is torn
        second = store.get_or_compute(graph, scheme)  # heals, recomputes
        for ordering in (first, second):
            assert np.array_equal(
                ordering.permutation, expected.permutation
            )
            assert ordering.cost == expected.cost
            assert ordering.metadata == expected.metadata
        assert store.quarantined >= 1
        assert store.quarantined_count() >= 1
        assert store.hits == 0

    def test_corruption_schedule_is_deterministic(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(40, 90, seed=4)
        scheme = get_scheme("bfs")
        _set_faults(monkeypatch, "cache-corrupt:p=0.5:seed=2")
        outcomes = []
        for round_index in range(2):
            faults._PLANS.clear()  # fresh per-process counters
            store = OrderingStore(str(tmp_path / f"round{round_index}"))
            for _ in range(6):
                store.get_or_compute(graph, scheme)
            outcomes.append((store.hits, store.misses, store.quarantined))
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Degradation composition: faulted parallel run == clean degraded run
# ---------------------------------------------------------------------------
class TestDegradationComposition:
    """The ladder's end-to-end contract (ISSUE satellite):

    a ``--jobs 4`` bench run with every native build failing must exit 0
    and print bit-identical results to a clean run that was told up
    front to skip that tier (``REPRO_ORDERING_ENGINE=vector``) —
    degradation changes the execution substrate, never the bits.
    """

    ARGV = [
        "fig1", "--datasets", "euroroad",
        "--schemes", "natural,random", "--jobs", "4",
    ]

    @staticmethod
    def _reset_world(tmp_path, monkeypatch, leg):
        from repro._native.core import get_kernel, kernel_names
        from repro.bench import runners
        from repro.datasets import registry
        from repro.resilience import degrade

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / leg))
        for name in kernel_names():
            get_kernel(name).reset()
        runners.reset_caches()
        runners.reset_degraded()
        registry._graph_cache.clear()
        degrade.reset()
        faults._PLANS.clear()

    def test_faulted_run_matches_clean_degraded_run(
        self, monkeypatch, tmp_path, capsys
    ):
        import re

        from repro.bench.__main__ import main

        def normalize(text):
            return re.sub(r"\(\d+\.\d+s\)", "(Xs)", text)

        # Leg A: full ladder active, every native build failing via an
        # injected fault.
        self._reset_world(tmp_path, monkeypatch, "faulted")
        monkeypatch.setenv("REPRO_FAULTS", "native-build-fail:p=1")
        monkeypatch.delenv("REPRO_ORDERING_ENGINE", raising=False)
        assert main(list(self.ARGV)) == 0
        faulted = capsys.readouterr()

        # Leg B: the tier the fault knocked out, disabled up front.
        self._reset_world(tmp_path, monkeypatch, "clean")
        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.setenv("REPRO_ORDERING_ENGINE", "vector")
        assert main(list(self.ARGV)) == 0
        clean = capsys.readouterr()

        assert normalize(faulted.out) == normalize(clean.out)
