"""The application cell store (repro.bench.cells).

A replayed Figure 9–12 cell must equal the computed one field for field
— tuples, non-finite floats and numpy scalar types included — and any
doubt about an entry (code changed, bytes damaged, volume full) must end
in a recompute, never in a stale or crashed run.
"""

import math
import os
import re
import shutil

import numpy as np
import pytest

from repro.apps.community_detection import (
    ColoredExecutionResult,
    CommunityDetectionReport,
    run_community_detection,
)
from repro.apps.influence_max import (
    InfluenceMaxReport,
    run_influence_maximization,
)
from repro.bench import cells
from repro.bench.cells import (
    CellStore,
    cached_cell,
    cell_key,
    entry_key,
    source_digest,
)
from repro.bench.experiments import _cd_cell
from repro.ordering import get_scheme
from repro.resilience import degrade, faults
from repro.simulator.counters import CounterReport
from repro.simulator.parallel import ExecutionResult
from tests.conftest import make_grid, run_bench, strip_stamps

KIND = "community_detection"
INF = float("inf")


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """No inherited fault plan; fresh degrade counters."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults._PLANS.clear()
    degrade.reset()
    yield
    faults._PLANS.clear()
    degrade.reset()


@pytest.fixture
def store(tmp_path):
    return CellStore(str(tmp_path / "cache"))


def _counters(bound=(0.5, 0.25, 0.125, 0.0)):
    return CounterReport(
        loads=10, average_latency=3.5, bound=bound,
        total_cycles=100, memory_cycles=60,
    )


def _cd_report(modularity=-INF):
    return CommunityDetectionReport(
        scheme="rcm", num_threads=2, phase_seconds=1e-3,
        iteration_seconds=INF, iteration_count=3, modularity=modularity,
        work_fraction=0.1 + 0.2, work_per_edge=7.9,
        counters=_counters((INF, -INF, 0.0, 1 / 3)),
        execution=ColoredExecutionResult(
            num_threads=2, thread_cycles=(60, 40), thread_loads=(6, 4),
            report=_counters(), barrier_makespan=77,
        ),
    )


def _im_report():
    return InfluenceMaxReport(
        scheme="metis", model="ic", num_threads=4, num_samples=12,
        seeds=(3, 1, 4), estimated_spread=2 / 3, sampling_seconds=INF,
        selection_seconds=5e-324, sampling_throughput=np.float64(1.5),
        counters=_counters(),
        execution=ExecutionResult(
            num_threads=4, thread_cycles=(1, 2, 3, 4),
            thread_loads=(0, 0, 1, 1), report=_counters(),
        ),
    )


def _key(graph=None, scheme="rcm", params=None):
    graph = graph if graph is not None else make_grid(5, 4)
    ordering = get_scheme(scheme).order(graph)
    return entry_key(KIND, graph, ordering, params or {"num_threads": 2})


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("report", [_cd_report(), _im_report()],
                         ids=["community_detection", "influence_max"])
def test_reports_round_trip_equal(store, report):
    assert store.store(KIND, "k", report) is not None
    loaded = store.load(KIND, "k")
    assert loaded == report
    assert type(loaded.execution) is type(report.execution)
    assert store.hits == 1


def test_tuples_and_numpy_scalars_keep_their_types(store):
    store.store(KIND, "k", _im_report())
    loaded = store.load(KIND, "k")
    assert isinstance(loaded.seeds, tuple)
    assert isinstance(loaded.counters.bound, tuple)
    assert type(loaded.sampling_throughput) is np.float64
    assert loaded.selection_seconds == 5e-324


def test_nan_round_trips(store):
    report = _cd_report(modularity=float("nan"))
    store.store(KIND, "k", report)
    loaded = store.load(KIND, "k")
    assert math.isnan(loaded.modularity)
    assert repr(loaded) == repr(report)  # NaN != NaN, so compare reprs


def test_computed_reports_round_trip(store):
    graph = make_grid(6, 5)
    ordering = get_scheme("rcm").order(graph)
    computed = [
        run_community_detection(graph, ordering, num_threads=2),
        run_community_detection(
            graph, ordering, num_threads=2, schedule="colored"
        ),
        run_influence_maximization(
            graph, ordering, num_threads=2, max_samples=40
        ),
    ]
    for index, report in enumerate(computed):
        store.store(KIND, str(index), report)
        assert store.load(KIND, str(index)) == report


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
class TestCellKey:
    def test_stable(self):
        assert cell_key("measures", "ds", "token") == cell_key(
            "measures", "ds", "token"
        )

    def test_distinguishes_parts(self):
        keys = {
            cell_key("measures", "ds", "token"),
            cell_key("ordering", "ds", "token"),
            cell_key("measures", "other", "token"),
            cell_key("measures", "ds", "token2"),
        }
        assert len(keys) == 4

    def test_shape(self):
        key = cell_key("a", "b")
        assert re.fullmatch(r"[0-9a-f]{24}", key)

    def test_pinned_value(self):
        """Entries already on disk keep their keys."""
        key = cell_key(
            "community_detection", "abc", "def",
            {"scheme": "rcm", "num_threads": 4}, "0" * 64,
        )
        assert key == "a6b654eda8f17a8014e85673"


def test_key_covers_graph_permutation_and_params():
    base = _key()
    assert base == _key()
    assert _key(graph=make_grid(4, 5)) != base
    assert _key(scheme="natural") != base
    assert _key(params={"num_threads": 4}) != base


def test_source_digest_is_stable(monkeypatch):
    monkeypatch.setattr(cells, "_source_digest", None)
    first = source_digest()
    monkeypatch.setattr(cells, "_source_digest", None)
    assert source_digest() == first


def test_changed_source_digest_misses(store, monkeypatch):
    calls = []

    def compute():
        calls.append(1)
        return _cd_report()

    key = _key()
    store.get_or_compute(KIND, key, compute)
    assert store.get_or_compute(KIND, key, compute) == _cd_report()
    assert len(calls) == 1
    # any edit to the package source changes the digest
    monkeypatch.setattr(cells, "_source_digest", "0" * 64)
    edited = _key()
    assert edited != key
    assert store.load(KIND, edited) is None
    store.get_or_compute(KIND, edited, compute)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Self-healing
# ---------------------------------------------------------------------------
def _flip_value(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert '"iteration_count": 3' in text
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"iteration_count": 3',
                                  '"iteration_count": 4'))


def _truncate(path):
    with open(path, "r+b") as handle:
        handle.truncate(os.path.getsize(path) // 2)


def _stale_schema(path):
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace('"schema": 1', '"schema": 999'))


def _garbage(path):
    with open(path, "wb") as handle:
        handle.write(b"\x00garbage")


@pytest.mark.parametrize(
    "damage", [_flip_value, _truncate, _stale_schema, _garbage]
)
def test_corrupted_entry_quarantined_and_recomputed(store, damage):
    path = store.store(KIND, "k", _cd_report())
    damage(path)
    calls = []

    def compute():
        calls.append(1)
        return _cd_report()

    assert store.get_or_compute(KIND, "k", compute) == _cd_report()
    assert calls == [1]
    assert os.path.isfile(path + ".bad")
    assert store.quarantined == 1
    assert store.quarantined_count() == 1
    assert degrade.counters()["cell-store:quarantined"] == 1
    assert store.load(KIND, "k") == _cd_report()  # healed in place


def test_missing_entry_is_a_plain_miss(store):
    assert store.load(KIND, "absent") is None
    assert store.misses == 1 and store.quarantined == 0


def test_clear_and_counts(store):
    store.store(KIND, "a", _cd_report())
    store.store("influence_maximization", "b", _im_report())
    assert store.entry_count() == 2
    assert store.clear() == 2
    assert store.entry_count() == 0


# ---------------------------------------------------------------------------
# Injected faults reach the store
# ---------------------------------------------------------------------------
def test_disk_full_degrades_to_compute(store, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "disk-full:p=1")
    report = store.get_or_compute(KIND, "k", _cd_report)
    assert report == _cd_report()
    assert store.entry_count() == 0
    assert degrade.counters()["cell-store.write:disk-full"] == 1


def test_cache_corrupt_is_caught_on_the_next_load(store, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "cache-corrupt:p=1")
    path = store.store(KIND, "k", _cd_report())
    assert path is not None
    monkeypatch.delenv("REPRO_FAULTS")
    assert store.load(KIND, "k") is None
    assert os.path.isfile(path + ".bad")
    assert degrade.counters()["cell-store:quarantined"] == 1


def test_torn_read_quarantines(store, monkeypatch):
    path = store.store(KIND, "k", _cd_report())
    monkeypatch.setenv("REPRO_FAULTS", "store-torn-read:p=1")
    assert store.load(KIND, "k") is None
    assert os.path.isfile(path + ".bad")
    assert store.misses == 1


FIG9_ARGS = ["fig9", "--datasets", "euroroad", "--schemes", "natural,rcm"]


@pytest.fixture(scope="module")
def clean_fig9(tmp_path_factory):
    """One clean fig9 run: (stamp-stripped stdout, its filled cache)."""
    cache = tmp_path_factory.mktemp("clean") / "cache"
    result = run_bench(FIG9_ARGS, cache)
    assert result.returncode == 0, result.stderr
    assert len(os.listdir(cache / "cells" / KIND)) == 2
    return strip_stamps(result.stdout), cache


def _bad_cells(cache):
    return [
        name for name in os.listdir(cache / "cells" / KIND)
        if name.endswith(".bad")
    ]


def test_run_under_disk_full_exits_zero(clean_fig9, tmp_path):
    expected, _ = clean_fig9
    result = run_bench(FIG9_ARGS, tmp_path / "cache",
                       REPRO_FAULTS="disk-full:p=1")
    assert result.returncode == 0, result.stderr
    assert strip_stamps(result.stdout) == expected
    assert "[degrade] cell-store.write: disk-full" in result.stderr


def test_run_under_cache_corrupt_exits_zero(clean_fig9, tmp_path):
    expected, _ = clean_fig9
    cache = tmp_path / "cache"
    torn = run_bench(FIG9_ARGS, cache, REPRO_FAULTS="cache-corrupt:p=1")
    assert torn.returncode == 0, torn.stderr
    assert strip_stamps(torn.stdout) == expected
    healed = run_bench(FIG9_ARGS, cache)  # reads the torn entries
    assert healed.returncode == 0, healed.stderr
    assert strip_stamps(healed.stdout) == expected
    assert len(_bad_cells(cache)) == 2


def test_run_under_torn_reads_exits_zero(clean_fig9, tmp_path):
    expected, clean_cache = clean_fig9
    cache = tmp_path / "cache"
    shutil.copytree(clean_cache, cache)
    result = run_bench(FIG9_ARGS, cache, REPRO_FAULTS="store-torn-read:p=1")
    assert result.returncode == 0, result.stderr
    assert strip_stamps(result.stdout) == expected
    assert len(_bad_cells(cache)) == 2


# ---------------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------------
def test_refused_writes_compute_every_cell(monkeypatch, tmp_path):
    """A cache volume refusing every write computes every cell."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_FAULTS", "disk-full:p=1")
    graph = make_grid(5, 4)
    ordering = get_scheme("rcm").order(graph)
    calls = []

    def compute():
        calls.append(1)
        return _cd_report()

    for _ in range(2):
        cached_cell(KIND, graph, ordering, {}, compute)
    assert len(calls) == 2
    assert not (tmp_path / "cache" / "cells").exists()


def test_default_store_lives_under_the_cache_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    store = CellStore.default()
    assert store.root == os.path.join(str(tmp_path / "alt"), "cells")
    assert CellStore.default() is store


def test_repeated_cell_is_served_from_the_store():
    """Figure 10 re-reads Figure 9's cells instead of recomputing."""
    first = _cd_cell(("euroroad", "natural", 2))
    store = CellStore.default()
    hits = store.hits
    assert _cd_cell(("euroroad", "natural", 2)) == first
    assert store.hits == hits + 1
