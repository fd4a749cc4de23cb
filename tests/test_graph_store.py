"""The mmap-backed graph store: round-trips, damage recovery, registry.

The ``.rgr`` format holds the *canonical* CSR arrays, so the contract
is exact: a load must reproduce the saved graph bit for bit (arrays,
weightedness, content hash, JSON-safe meta) from read-only ``mmap``
views.  Damage of any kind —
torn magic, truncation, header rot, array corruption under
verification — must quarantine the entry and report a miss, never
raise.  The dataset registry rides on top: a second process (simulated
by clearing the memo) warm-loads from the store instead of re-running
the generator recipe.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import registry
from repro.graph import builder, from_edges, permute
from repro.graph import store as gstore


@pytest.fixture
def store(tmp_path):
    return gstore.GraphStore(str(tmp_path))


def make_graph(n, edges, weights=None):
    return from_edges(n, edges, weights=weights)


GRAPHS = [
    make_graph(1, []),
    make_graph(4, [(0, 1)]),
    make_graph(5, [(0, 1), (1, 2), (3, 3), (1, 2)]),
    make_graph(3, [(0, 1), (1, 2)], weights=[0.5, -2.25]),
    make_graph(700, [(i % 700, (i * 7 + 1) % 700) for i in range(1400)]),
]


# ---------------------------------------------------------------------------
# Round-trips
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("graph", GRAPHS, ids=range(len(GRAPHS)))
def test_roundtrip_bit_identical(store, graph):
    store.save("g", graph)
    restored = store.load("g", verify=True)
    assert restored is not None
    assert np.array_equal(restored.indptr, graph.indptr)
    assert np.array_equal(restored.indices, graph.indices)
    assert restored.is_weighted == graph.is_weighted
    if graph.is_weighted:
        assert np.array_equal(restored.weights, graph.weights)
    assert restored.content_hash() == graph.content_hash()


def test_roundtrip_preserves_json_meta(store):
    graph = make_graph(4, [(0, 1), (1, 2)])
    graph.meta["parse_engine"] = "native"
    graph.meta["not_json"] = object()  # silently dropped
    store.save("g", graph)
    restored = store.load("g")
    assert restored.meta["parse_engine"] == "native"
    assert restored.meta["ingest_audit"] == graph.meta["ingest_audit"]
    assert "not_json" not in restored.meta


def test_mmap_views_are_read_only(store):
    store.save("g", GRAPHS[2])
    restored = store.load("g")
    assert isinstance(restored.indptr.base, np.memmap)
    assert not restored.indptr.flags.writeable
    assert not restored.indices.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        restored.indices[0] = 99


def test_lazy_load_adopts_stored_content_hash(store):
    graph = GRAPHS[4]
    store.save("g", graph)
    restored = store.load("g")
    # adopted from the header, not recomputed over every page
    assert restored._content_hash == graph.content_hash()


@given(
    n=st.integers(1, 30),
    edges=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60
    ),
    weighted=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(tmp_path_factory, n, edges, weighted):
    edges = [(u % n, v % n) for u, v in edges]
    weights = [round(0.5 + i * 0.25, 2) for i in range(len(edges))]
    graph = from_edges(n, edges, weights=weights if weighted else None)
    root = tmp_path_factory.mktemp("rgr")
    path = gstore.write_graph_file(str(root / "g.rgr"), graph)
    restored = gstore.read_graph_file(path, verify=True)
    assert restored == graph
    assert restored.is_weighted == graph.is_weighted


# ---------------------------------------------------------------------------
# Damage recovery
# ---------------------------------------------------------------------------
def damage_magic(path):
    with open(path, "r+b") as handle:
        handle.write(b"XXXX")


def damage_truncate(path):
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size // 2)


def damage_header(path):
    with open(path, "r+b") as handle:
        handle.seek(14)
        handle.write(b"\x00\x00\x00")


@pytest.mark.parametrize(
    "damage", [damage_magic, damage_truncate, damage_header]
)
def test_damaged_entries_quarantined(store, damage):
    path = store.save("g", GRAPHS[2])
    damage(path)
    assert store.load("g") is None
    assert store.quarantined == 1
    assert os.path.exists(path + ".bad")
    assert not os.path.exists(path)
    # rebuild overwrites cleanly and the next load hits
    store.save("g", GRAPHS[2])
    assert store.load("g") == GRAPHS[2]


def test_array_corruption_caught_under_verify(store):
    graph = GRAPHS[4]
    path = store.save("g", graph)
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size - 16)  # deep inside the indices pages
        handle.write(b"\xff" * 8)
    assert store.load("g", verify=True) is None
    assert store.quarantined == 1


def test_missing_entry_is_a_miss(store):
    assert store.load("absent") is None
    assert store.misses == 1 and store.quarantined == 0


def test_clear_and_counts(store):
    store.save("a", GRAPHS[1])
    path = store.save("b", GRAPHS[2])
    damage_magic(path)
    store.load("b")
    assert store.entry_count() == 1
    assert store.quarantined_count() == 1
    assert store.clear() == 2
    assert store.entry_count() == 0


# ---------------------------------------------------------------------------
# Registry integration
# ---------------------------------------------------------------------------
def test_registry_warm_load_comes_from_store():
    registry._graph_cache.clear()  # force a build into this test's store
    first = registry.load("euroroad")
    audit = first.meta["dataset_audit"]
    registry._graph_cache.clear()
    served = registry.load("euroroad")
    assert not served.indptr.flags.writeable  # mapped, not rebuilt
    assert served == first
    assert served.content_hash() == first.content_hash()
    assert served.meta["dataset_audit"] == audit


def test_registry_store_key_is_recipe_addressed():
    key = registry.dataset_store_key("euroroad")
    assert key.startswith("euroroad-")
    assert key == registry.dataset_store_key("euroroad")
    assert key != registry.dataset_store_key("chicago_road")


@pytest.mark.parametrize("module", [builder, permute])
def test_registry_store_key_covers_builder_and_relabel(
    module, tmp_path, monkeypatch
):
    """Every surrogate passes through these modules, so an edit to
    either must change the key."""
    key = registry.dataset_store_key("euroroad")
    edited = tmp_path / "edited.py"
    with open(module.__file__, "rb") as handle:
        edited.write_bytes(handle.read() + b"\n# edited\n")
    monkeypatch.setattr(module, "__file__", str(edited))
    monkeypatch.setattr(registry, "_recipe_digest", None)
    assert registry.dataset_store_key("euroroad") != key


def test_registry_survives_corrupt_store_entry():
    registry._graph_cache.clear()  # force a build into this test's store
    first = registry.load("euroroad")
    store = gstore.GraphStore.default()
    path = store.path(registry.dataset_store_key("euroroad"))
    damage_truncate(path)
    registry._graph_cache.clear()
    served = registry.load("euroroad")  # quarantine -> rebuild -> rewrite
    assert served == first
    assert os.path.exists(path)  # rewritten after the rebuild


def test_refused_writes_leave_the_registry_building(monkeypatch):
    """A cache volume refusing every write leaves the registry building."""
    monkeypatch.setenv("REPRO_FAULTS", "disk-full:p=1")
    store = gstore.GraphStore.default()
    for _ in range(2):
        registry._graph_cache.clear()
        served = registry.load("euroroad")
        assert served.indptr.flags.writeable  # fresh build, not mapped
    assert store.entry_count() == 0
    assert served.meta["dataset_audit"]["isolated_vertices"] >= 0
