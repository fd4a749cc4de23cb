"""The persistent content-addressed ordering cache (repro.ordering.store).

A warm hit must reproduce the fresh :class:`Ordering` exactly —
permutation, operation count, metadata — and pool workers sharing a cache
directory must round-trip the same results as an in-process compute.
"""

import os

import numpy as np
import pytest

from repro.bench import runners
from repro.datasets import registry
from repro.datasets.registry import load
from repro.graph import from_edges
from repro.graph.store import GraphStore
from repro.ordering import OrderingStore, RandomOrder, get_scheme
from tests.conftest import make_grid, make_two_cliques, random_graph


def same_ordering(a, b):
    return (
        np.array_equal(a.permutation, b.permutation)
        and a.cost == b.cost
        and a.metadata == b.metadata
    )


@pytest.fixture
def store(tmp_path):
    return OrderingStore(str(tmp_path / "cache"))


# ---------------------------------------------------------------------------
# Keys and layout
# ---------------------------------------------------------------------------
def test_entry_name_distinguishes_configurations():
    assert OrderingStore.entry_name(
        RandomOrder(seed=1)
    ) != OrderingStore.entry_name(RandomOrder(seed=2))
    assert OrderingStore.entry_name(
        get_scheme("rcm")
    ) != OrderingStore.entry_name(get_scheme("bfs"))


def test_entry_name_stable_and_prefixed():
    a = OrderingStore.entry_name(get_scheme("rcm"))
    assert a == OrderingStore.entry_name(get_scheme("rcm"))
    assert a.startswith("rcm-") and a.endswith(".npz")


def test_entry_path_keyed_by_graph_content(store):
    scheme = get_scheme("rcm")
    g1 = make_grid(4, 3)
    g2 = make_two_cliques(4)
    p1 = store.entry_path(g1, scheme)
    p2 = store.entry_path(g2, scheme)
    assert p1 != p2
    assert os.path.basename(p1) == os.path.basename(p2)
    # Same content => same path, even for a separately built object.
    g1_again = make_grid(4, 3)
    assert store.entry_path(g1_again, scheme) == p1


def test_version_bump_changes_entry_name():
    class Bumped(type(get_scheme("rcm"))):
        version = 99

    assert OrderingStore.entry_name(Bumped()) != OrderingStore.entry_name(
        get_scheme("rcm")
    )


# ---------------------------------------------------------------------------
# Cold / warm cycle
# ---------------------------------------------------------------------------
def test_cold_then_warm_identical(store):
    graph = random_graph(60, 200, seed=9)
    scheme = get_scheme("rcm")
    assert store.load(graph, scheme) is None
    fresh = store.get_or_compute(graph, scheme)
    assert store.entry_count() == 1
    warm = store.get_or_compute(graph, scheme)
    assert same_ordering(fresh, warm)
    assert store.misses == 2  # initial probe + cold get_or_compute
    assert store.hits == 1


@pytest.mark.parametrize(
    "scheme_name", ("rcm", "slashburn", "metis", "rabbit", "random")
)
def test_round_trip_all_fields(store, scheme_name):
    graph = make_two_cliques(6)
    scheme = get_scheme(scheme_name)
    fresh = store.get_or_compute(graph, scheme)
    warm = store.load(graph, scheme)
    assert warm is not None
    assert same_ordering(fresh, warm)
    assert warm.scheme == scheme_name
    assert warm.permutation.dtype == np.int64


def test_corrupt_entry_is_a_miss_and_recomputed(store):
    graph = make_grid(5, 3)
    scheme = get_scheme("bfs")
    fresh = store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    with open(path, "wb") as handle:
        handle.write(b"not an npz")
    recovered = store.get_or_compute(graph, scheme)
    assert same_ordering(fresh, recovered)
    assert store.load(graph, scheme) is not None


def test_wrong_sized_entry_rejected(store):
    small = from_edges(4, [(0, 1), (2, 3)])
    big = make_grid(4, 4)
    scheme = get_scheme("natural")
    ordering = store.get_or_compute(small, scheme)
    # Simulate a stale entry: copy the small graph's entry to the big
    # graph's path.  The size guard must treat it as a miss.
    stale_path = store.entry_path(big, scheme)
    os.makedirs(os.path.dirname(stale_path), exist_ok=True)
    with open(store.entry_path(small, scheme), "rb") as src:
        with open(stale_path, "wb") as dst:
            dst.write(src.read())
    assert store.load(big, scheme) is None
    assert ordering.permutation.size == 4


def test_clear_removes_everything(store):
    graph = make_grid(4, 4)
    for name in ("rcm", "bfs", "natural"):
        store.get_or_compute(graph, get_scheme(name))
    assert store.entry_count() == 3
    assert store.clear() == 3
    assert store.entry_count() == 0
    assert store.load(graph, get_scheme("rcm")) is None


# ---------------------------------------------------------------------------
# Environment wiring
# ---------------------------------------------------------------------------
def test_default_store_honours_cache_dir(tmp_path, knobs):
    knobs(REPRO_CACHE_DIR=str(tmp_path / "alt"))
    store = OrderingStore.default()
    assert store.root == os.path.join(str(tmp_path / "alt"), "orderings")
    # Singleton per root: a second call reuses the same counters.
    assert OrderingStore.default() is store


# ---------------------------------------------------------------------------
# Bench runners: persistent layer + pool workers
# ---------------------------------------------------------------------------
@pytest.fixture
def clean_runner_caches():
    saved_orderings = dict(runners._ordering_cache)
    saved_measures = dict(runners._measures_cache)
    runners._ordering_cache.clear()
    runners._measures_cache.clear()
    yield
    runners._ordering_cache.clear()
    runners._measures_cache.clear()
    runners._ordering_cache.update(saved_orderings)
    runners._measures_cache.update(saved_measures)


def test_runner_hits_persistent_store(clean_runner_caches):
    first = runners.ordering_for("rcm", "euroroad")
    store = OrderingStore.default()
    assert store.entry_count() == 1
    # Drop the in-process memo: the next call must come from disk.
    runners._ordering_cache.clear()
    hits_before = store.hits
    second = runners.ordering_for("rcm", "euroroad")
    assert store.hits == hits_before + 1
    assert same_ordering(first, second)


def test_pool_round_trip_matches_fresh_compute(clean_runner_caches):
    pairs = [("rcm", "euroroad"), ("bfs", "euroroad")]
    runners.warm_orderings(pairs, jobs=2)
    store = OrderingStore.default()
    assert store.entry_count() == len(pairs)
    graph = load("euroroad")
    for scheme_name, dataset in pairs:
        pooled = runners.ordering_for(scheme_name, dataset)
        fresh = get_scheme(scheme_name).order(graph)
        assert same_ordering(pooled, fresh)


def test_cold_fan_out_builds_each_graph_in_the_parent(
    clean_runner_caches,
):
    """A cold ``--jobs N`` fan-out loads its graphs once, before forking.

    The forked workers inherit the parent's memo instead of each
    rebuilding the same graph.
    """
    saved = dict(registry._graph_cache)
    registry._graph_cache.clear()
    try:
        runners.warm_orderings([("rcm", "euroroad"), ("bfs", "euroroad")],
                               jobs=2)
        assert "euroroad" in registry._graph_cache
        assert GraphStore.default().entry_count() == 1
    finally:
        registry._graph_cache.clear()
        registry._graph_cache.update(saved)


def test_refused_writes_leave_the_runner_computing(
    clean_runner_caches, knobs
):
    """A cache volume refusing every write degrades to computing."""
    knobs(REPRO_FAULTS="disk-full:p=1")
    ordering = runners.ordering_for("rcm", "euroroad")
    fresh = get_scheme("rcm").order(load("euroroad"))
    assert same_ordering(ordering, fresh)
    assert OrderingStore.default().entry_count() == 0


# ---------------------------------------------------------------------------
# Self-healing: checksums, schema guards, quarantine
# ---------------------------------------------------------------------------
def test_truncated_entry_quarantined_and_recomputed(store):
    graph = make_grid(5, 3)
    scheme = get_scheme("bfs")
    fresh = store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)
    recovered = store.get_or_compute(graph, scheme)
    assert same_ordering(fresh, recovered)
    assert store.quarantined == 1
    assert os.path.isfile(path + ".bad")
    # The healed entry is valid again.
    assert store.load(graph, scheme) is not None


def test_checksum_mismatch_quarantined(store):
    graph = make_grid(4, 4)
    scheme = get_scheme("rcm")
    fresh = store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    with np.load(path, allow_pickle=False) as bundle:
        fields = {name: bundle[name] for name in bundle.files}
    fields["cost"] = np.int64(int(fields["cost"]) + 1)  # silent bit-rot
    np.savez(path, **fields)  # entry paths end in .npz: writes in place
    assert store.load(graph, scheme) is None
    assert store.quarantined == 1
    assert store.quarantined_count() == 1
    recovered = store.get_or_compute(graph, scheme)
    assert same_ordering(fresh, recovered)


def test_stale_schema_version_quarantined(store):
    graph = make_grid(4, 3)
    scheme = get_scheme("natural")
    fresh = store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    with np.load(path, allow_pickle=False) as bundle:
        fields = {name: bundle[name] for name in bundle.files}
    fields["schema"] = np.int64(999)
    np.savez(path, **fields)
    assert store.load(graph, scheme) is None
    assert store.quarantined == 1
    assert same_ordering(fresh, store.get_or_compute(graph, scheme))


def test_missing_fields_treated_as_stale_schema(store):
    graph = make_grid(3, 3)
    scheme = get_scheme("natural")
    fresh = store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    # A v1-era entry: permutation and cost only.
    np.savez(path, permutation=fresh.permutation,
             cost=np.int64(fresh.cost))
    assert store.load(graph, scheme) is None
    assert store.quarantined == 1
    assert same_ordering(fresh, store.get_or_compute(graph, scheme))


def test_quarantine_never_raises_and_counts(store):
    graph = make_grid(4, 2)
    scheme = get_scheme("bfs")
    store.get_or_compute(graph, scheme)
    path = store.entry_path(graph, scheme)
    with open(path, "wb") as handle:
        handle.write(b"garbage")
    assert store.load(graph, scheme) is None  # no exception escapes
    assert store.quarantined_count() == 1
    assert store.entry_count() == 0  # the .bad file is not an entry


# ---------------------------------------------------------------------------
# Concurrent writers: N processes racing one entry
# ---------------------------------------------------------------------------
def _race_graph():
    return random_graph(80, 220, seed=9)


def _race_writer(root, barrier):
    graph = _race_graph()
    racing = OrderingStore(root)
    barrier.wait()
    ordering = racing.get_or_compute(graph, get_scheme("rcm"))
    assert ordering.permutation.size == graph.num_vertices


def test_concurrent_writers_one_valid_entry(tmp_path):
    import multiprocessing

    root = str(tmp_path / "race")
    workers = 6
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(workers)
    processes = [
        ctx.Process(target=_race_writer, args=(root, barrier))
        for _ in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
        assert process.exitcode == 0
    store = OrderingStore(root)
    graph = _race_graph()
    assert store.entry_count() == 1
    assert store.quarantined_count() == 0
    cached = store.load(graph, get_scheme("rcm"))
    assert cached is not None
    assert same_ordering(cached, get_scheme("rcm").order(graph))
    # Atomic writes leave no temp droppings behind.
    leftovers = [
        name
        for _dir, _subdirs, names in os.walk(root)
        for name in names
        if name.startswith(".tmp-")
    ]
    assert leftovers == []
