"""The native (C) tier is bit-identical to its scalar ground truth.

Every :class:`repro._native.core.NativeKernel` declares a scalar
twin; this suite is the dynamic half of that contract (the
static half is the reprolint ``native-twin`` check).  Each kernel is
driven against its scalar twin over structured and random inputs, and
the build-info reporting surface is pinned.

``make bench-native`` runs this file twice — once with the C tier and
once with every kernel build failing
(``REPRO_FAULTS=native-build-fail:p=1``, the stand-in for a host with
no C compiler) — so a kernel regression and a fallback regression are
both loud.
"""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native, config
from repro._native import core as native_core
from repro.apps.delta_stepping import delta_stepping
from repro.community.louvain import louvain, louvain_one_phase
from repro.datasets import dataset_names, load
from repro.engine import strip_engine_metadata, use_engine
from repro.graph import from_edges
from repro.ordering import RabbitOrder, get_scheme
from repro.ordering.base import OperationCounter
from repro.simulator.counters import report_from_counters
from repro.simulator.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.parallel import (
    ExecutionResult,
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
    static_interleaved_schedule,
)
from tests.conftest import (
    LEGS,
    kernels_off,
    make_clique,
    make_grid,
    make_star,
    make_two_cliques,
    on_leg,
    random_graph,
    raw_csr_graph,
)

KERNEL_NAMES = (
    "gorder_greedy",
    "partition_fm",
    "delta_scan",
    "rrr_sample",
    "counting_sort",
    "parse_edges",
    "louvain_sweep",
    "rabbit_aggregate",
    "sim_region",
    "csr_build",
    "csr_relabel",
    "format_lines",
)

GRAPHS = {
    "grid": make_grid(7, 6),
    "cliques": make_two_cliques(6),
    "random": random_graph(120, 520, seed=5),
    "empty": from_edges(4, []),
    "single": from_edges(1, []),
}


def native_available() -> bool:
    return all(
        native_core.get_kernel(name).lib() is not None
        for name in KERNEL_NAMES
    )


# ---------------------------------------------------------------------------
# Registry and build reporting
# ---------------------------------------------------------------------------
def test_all_kernels_registered():
    assert set(KERNEL_NAMES) <= set(native_core.kernel_names())


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_build_info_fields(name):
    info = native_core.get_kernel(name).build_info()
    assert info["kernel"] == name
    assert isinstance(info["available"], bool)
    assert isinstance(info["status"], str) and info["status"]
    assert info["source_digest"]
    assert ":" in info["scalar_twin"]
    if info["available"]:
        assert info["fallback"] is None
    else:
        assert info["fallback"] == info["status"]


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernel_source_compiles_under_the_active_profile(name):
    """A compiler that rejects a kernel (the sanitizer profiles add
    ``-Werror``) must fail here, not fall back to Python unnoticed."""
    kernel = native_core.get_kernel(name)
    kernel.lib()
    assert kernel.build_info()["compile_stderr"] is None, (
        kernel.build_info()["compile_stderr"]
    )


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_kernel_loads_where_a_compiler_exists(name):
    """A kernel that quietly fails to load would turn every
    native-vs-twin test of it into twin-vs-twin."""
    if native_core._compiler() is None or config.get().faults is not None:
        pytest.skip("no C compiler, or a fault plan is armed")
    kernel = native_core.get_kernel(name)
    assert kernel.lib() is not None, kernel.status


def test_build_info_all_covers_every_kernel():
    infos = _native.build_info_all()
    assert set(KERNEL_NAMES) <= set(infos)
    for name, info in infos.items():
        assert info["kernel"] == name


def test_twins_resolve_dynamically():
    import importlib

    for name in KERNEL_NAMES:
        info = native_core.get_kernel(name).build_info()
        mod_name, qualname = info["scalar_twin"].split(":")
        obj = importlib.import_module(mod_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert callable(obj)


def test_reset_forgets_build_state():
    kernel = native_core.get_kernel("gorder_greedy")
    kernel.lib()
    kernel.reset()
    assert kernel.build_info()["status"] != "not built"  # rebuilt lazily


def test_kernels_off_takes_effect_and_restores(knobs):
    """Inside the block no kernel builds and the ambient fault plan
    stays armed; after it the kernels build again."""
    from repro.resilience import faults

    if not native_available():
        pytest.skip("no C compiler: the kernels are off already")
    knobs(REPRO_FAULTS="cache-corrupt:p=0")  # a clause that never fires
    graph = load("euroroad")
    with kernels_off():
        assert order_with("grappolo", graph, "native").metadata[
            "engine"
        ] == "scalar"
        kinds = [spec.kind for spec in faults.active_plan().specs]
        assert kinds == ["cache-corrupt", "native-build-fail"]
    assert order_with("grappolo", graph, "native").metadata["engine"] == (
        "native"
    )
    assert [spec.kind for spec in faults.active_plan().specs] == [
        "cache-corrupt"
    ]


# ---------------------------------------------------------------------------
# Bit-identity: orderings through the native tier
# ---------------------------------------------------------------------------
def order_with(scheme_name, graph, leg):
    with on_leg(leg):
        return get_scheme(scheme_name).order(graph)


@pytest.mark.parametrize(
    "scheme_name", ("gorder", "metis", "nested_dissection")
)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_orderings_match_scalar(scheme_name, graph_name):
    graph = GRAPHS[graph_name]
    native = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert np.array_equal(native.permutation, scalar.permutation)
    assert native.cost == scalar.cost


@pytest.mark.parametrize(
    "scheme_name", ("gorder", "metis", "nested_dissection")
)
@given(
    n=st.integers(2, 24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)),
        min_size=0,
        max_size=80,
    ),
)
@settings(max_examples=10, deadline=None)
def test_native_orderings_match_scalar_random_shapes(scheme_name, n, edges):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    native = order_with(scheme_name, graph, "native")
    scalar = order_with(scheme_name, graph, "scalar")
    assert np.array_equal(native.permutation, scalar.permutation)
    assert native.cost == scalar.cost


def test_native_ordering_metadata_records_tier():
    graph = GRAPHS["random"]
    native = order_with("gorder", graph, "native")
    expected = (
        "native"
        if native_core.get_kernel("gorder_greedy").lib() is not None
        else "scalar"
    )
    assert native.metadata["engine"] == expected


def test_native_degree_sort_on_a_small_graph_records_native():
    """Small inputs reach the counting-sort kernel: no work-size
    threshold sends them to a Python tier."""
    graph = random_graph(50, 120, seed=4)
    native = order_with("degree_sort", graph, "native")
    expected = (
        "native"
        if native_core.get_kernel("counting_sort").lib() is not None
        else "vector"
    )
    assert native.metadata["engine"] == expected


def test_gorder_without_its_kernel_runs_the_twin():
    graph = GRAPHS["random"]
    scalar = order_with("gorder", graph, "scalar")
    degraded = order_with("gorder", graph, "kernels_off")
    assert np.array_equal(degraded.permutation, scalar.permutation)
    assert degraded.cost == scalar.cost
    assert degraded.metadata == scalar.metadata
    assert degraded.metadata["engine"] == "scalar"


# ---------------------------------------------------------------------------
# Bit-identity: Rabbit-Order's aggregation through the native tier
# ---------------------------------------------------------------------------
def rabbit_counts(counter):
    return counter.vertex_ops, counter.edge_ops, counter.compare_ops


def assert_rabbit_matches_twin(graph):
    """The kernel (under the native engine) against
    ``RabbitOrder._compute_scalar``: permutation, metadata and every
    counter total."""
    scheme = RabbitOrder()
    native_counter = OperationCounter()
    with use_engine("native"):
        perm, meta = scheme.compute(
            graph, native_counter, np.random.default_rng(0)
        )
    twin_counter = OperationCounter()
    twin_perm, twin_meta = scheme._compute_scalar(graph, twin_counter)
    assert np.array_equal(perm, twin_perm)
    assert strip_engine_metadata(meta) == strip_engine_metadata(twin_meta)
    assert twin_meta["engine"] == "scalar"
    assert rabbit_counts(native_counter) == rabbit_counts(twin_counter)
    kernel_ran = (
        graph.num_vertices > 0
        and native_core.get_kernel("rabbit_aggregate").lib() is not None
    )
    assert (meta.get("engine") == "native") == kernel_ran


def weighted_edges_graph(n, edges, seed):
    """``edges`` with non-integral weights: unit weights sum exactly in
    any order and would hide a summation-order bug."""
    rng = np.random.default_rng(seed)
    weights = rng.random(len(edges)) * 3.0 + 0.05
    return from_edges(n, edges, weights=weights)


@pytest.mark.parametrize("name", dataset_names())
def test_native_rabbit_matches_twin_on_catalog(name):
    assert_rabbit_matches_twin(load(name))


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_rabbit_matches_twin_on_fixtures(graph_name):
    assert_rabbit_matches_twin(GRAPHS[graph_name])


@given(
    n=st.integers(2, 40),
    edges=st.lists(
        st.tuples(st.integers(0, 39), st.integers(0, 39)),
        min_size=0,
        max_size=160,
    ),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_native_rabbit_matches_twin_non_integral_weights(n, edges, seed):
    edges = [(u % n, v % n) for u, v in edges]
    assert_rabbit_matches_twin(weighted_edges_graph(n, edges, seed))


@pytest.mark.parametrize("seed", range(4))
def test_native_rabbit_matches_twin_on_weighted_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n, m = 400, 2400
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(n, size=m)))
    assert_rabbit_matches_twin(weighted_edges_graph(n, edges, seed))


@pytest.mark.parametrize("leaves", (1, 7, 300))
def test_native_rabbit_matches_twin_on_star(leaves):
    """One hub absorbs every leaf: its adjacency grows and pops."""
    star = make_star(leaves)
    assert_rabbit_matches_twin(star)
    # leaves wired in a ring give the hub's merged adjacency weights
    # that are summed, popped and re-inserted
    ring = [(0, i + 1) for i in range(leaves)]
    ring += [(i + 1, (i + 1) % leaves + 1) for i in range(leaves)]
    assert_rabbit_matches_twin(weighted_edges_graph(leaves + 1, ring, 1))


@pytest.mark.parametrize("size", (2, 3, 9))
def test_native_rabbit_matches_twin_on_clique(size):
    edges = make_clique(size)
    assert_rabbit_matches_twin(from_edges(size, edges))
    assert_rabbit_matches_twin(weighted_edges_graph(size, edges, size))


def test_native_rabbit_matches_twin_on_isolated_vertices():
    assert_rabbit_matches_twin(from_edges(7, []))
    assert_rabbit_matches_twin(from_edges(9, [(2, 5), (5, 6)]))


def test_native_rabbit_matches_twin_with_zero_total_weight():
    """``total == 0`` stops the scan at its first vertex."""
    graph = from_edges(6, [(0, 1), (1, 2), (3, 4)], weights=np.zeros(3))
    assert graph.total_weight() == 0.0
    assert_rabbit_matches_twin(graph)


def test_native_rabbit_matches_twin_on_raw_csr():
    """Duplicate neighbours keep their first position and last weight,
    and self-loops are dropped, exactly as the twin's dicts do."""
    assert_rabbit_matches_twin(raw_csr_graph())


def summation_order_graph():
    """A graph whose permutation turns on the order of two float sums.

    Hubs S1 < S2 mirror each other (twelve pendants, three connectors
    each, weight 3).  R's connectors to S2 weigh 0.1, 0.2, 0.3 in
    insertion order; to S1 only 0.2 and 0.3, while 0.1 reaches S1
    through v, which merges into R before R is scanned.  Three pendant
    merges leave R with 6 live entries and 3 tombstones; v holds 7 live
    entries (R, S1 and five z hubs), so R adopts v's adjacency and
    appends its own: R then sums S1 as (0.1 + 0.2) + 0.3, the same
    bits as S2's sum, ties, and joins the lower hub S1.  Summing in key
    order (x2, x3 sort before S1) or comparing slot counts (9 > 7, no
    adoption) sums S1 as (0.2 + 0.3) + 0.1, one ulp lower, and R joins
    S2 instead.  A heavy separate edge keeps the merge gains positive.
    """
    names = ["x1", "x2", "x3", "S1", "S2", "R", "v", "y1", "y2", "y3"]
    names += [f"p{i}" for i in range(3)] + ["h1", "h2"]
    names += [f"s{i}" for i in range(12)] + [f"t{i}" for i in range(12)]
    names += [f"z{j}" for j in range(5)]
    names += [f"z{j}_{i}" for j in range(5) for i in range(8)]
    ids = {name: i for i, name in enumerate(names)}
    edges = [("R", f"p{i}", 4.0) for i in range(3)]
    edges += [("R", "v", 3.0), ("h1", "h2", 4000.0)]
    for i in range(12):
        edges += [("S1", f"s{i}", 4.0), ("S2", f"t{i}", 4.0)]
    for i in (1, 2, 3):
        edges += [("S1", f"x{i}", 3.0), ("S2", f"y{i}", 3.0)]
    edges += [("v", "x1", 0.1), ("R", "x2", 0.2), ("R", "x3", 0.3)]
    edges += [("R", "y1", 0.1), ("R", "y2", 0.2), ("R", "y3", 0.3)]
    for j in range(5):
        edges += [("v", f"z{j}", 0.1)]
        edges += [(f"z{j}", f"z{j}_{i}", 4.0) for i in range(8)]
    return from_edges(
        len(names),
        [(ids[u], ids[v]) for u, v, _ in edges],
        weights=np.array([w for *_, w in edges]),
    )


def test_native_rabbit_sums_in_insertion_order_and_counts_live_entries():
    assert_rabbit_matches_twin(summation_order_graph())


@pytest.mark.parametrize("engine", ("native", "scalar"))
def test_rabbit_is_invariant_under_uniform_weight_scaling(engine):
    """Both terms of the merge gain are edge weight: scaling every
    weight by a power of two scales every sum exactly, so each gain
    keeps its bits and the permutation stays the same."""
    rng = np.random.default_rng(0)
    n, m = 400, 2400
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(n, size=m)))
    weights = rng.random(m) * 3.0 + 0.05
    with use_engine(engine):
        orders = [
            get_scheme("rabbit").order(
                from_edges(n, edges, weights=weights * scale)
            )
            for scale in (2.0 ** -7, 1.0, 2.0 ** 7)
        ]
    assert orders[1].metadata["merges"] > 0
    for ordering in (orders[0], orders[2]):
        assert np.array_equal(ordering.permutation, orders[1].permutation)
        assert ordering.metadata == orders[1].metadata


@pytest.mark.parametrize("leg", LEGS)
def test_rabbit_metadata_on_the_empty_graph(leg):
    with on_leg(leg):
        ordering = get_scheme("rabbit").order(from_edges(0, []))
    assert ordering.permutation.size == 0
    assert strip_engine_metadata(ordering.metadata) == {
        "merges": 0,
        "num_communities": 0,
    }


def test_native_rabbit_out_of_memory_runs_the_twin(monkeypatch):
    from repro._native import rabbit as native_rabbit

    class OutOfMemory:
        def rabbit_aggregate(self, *args):
            return -1

    monkeypatch.setattr(native_rabbit.KERNEL, "lib", lambda: OutOfMemory())
    graph = GRAPHS["random"]
    with use_engine("native"):
        ordering = get_scheme("rabbit").order(graph)
    with use_engine("scalar"):
        scalar = get_scheme("rabbit").order(graph)
    assert np.array_equal(ordering.permutation, scalar.permutation)
    assert ordering.metadata["engine"] == "scalar"


# ---------------------------------------------------------------------------
# Bit-identity: delta-stepping through the native tier
# ---------------------------------------------------------------------------
def assert_same_sssp(a, b):
    dist_a, items_a = a
    dist_b, items_b = b
    assert np.array_equal(dist_a, dist_b, equal_nan=True)
    assert len(items_a) == len(items_b)
    for x, y in zip(items_a, items_b):
        assert np.array_equal(x.lines, y.lines)
        assert x.compute_cycles == y.compute_cycles


def delta_stepping_with(graph, source, engine):
    with use_engine(engine):
        return delta_stepping(graph, source)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_delta_stepping_matches_scalar(graph_name):
    graph = GRAPHS[graph_name]
    native = delta_stepping_with(graph, 0, "native")
    scalar = delta_stepping_with(graph, 0, "scalar")
    assert_same_sssp(native, scalar)


@given(
    n=st.integers(2, 24),
    edges=st.lists(
        st.tuples(
            st.integers(0, 23),
            st.integers(0, 23),
            st.floats(0.1, 4.0, allow_nan=False),
        ),
        min_size=0,
        max_size=80,
    ),
    source=st.integers(0, 23),
)
@settings(max_examples=10, deadline=None)
def test_native_delta_stepping_weighted_random(n, edges, source):
    pairs = [(u % n, v % n) for u, v, _w in edges]
    weights = [round(w, 3) for _u, _v, w in edges]
    graph = from_edges(n, pairs, weights=weights)
    native = delta_stepping_with(graph, source % n, "native")
    scalar = delta_stepping_with(graph, source % n, "scalar")
    assert_same_sssp(native, scalar)


# ---------------------------------------------------------------------------
# Louvain sweep: native vs scalar, communities and every PhaseStats field
# ---------------------------------------------------------------------------
def louvain_with(graph, engine, **kwargs):
    with use_engine(engine):
        return louvain(graph, **kwargs)


def assert_same_louvain(a, b):
    assert np.array_equal(a.communities, b.communities)
    assert a.modularity == b.modularity
    assert a.phases == b.phases  # every IterationStats field, exactly


WEIGHTED = from_edges(
    60,
    [(u, (u * 7 + 3) % 60) for u in range(60)]
    + [(u, (u + 1) % 60) for u in range(60)],
    weights=[0.25 + ((u * 13) % 9) / 4.0 for u in range(120)],
)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_louvain_matches_scalar(graph_name):
    graph = GRAPHS[graph_name]
    assert_same_louvain(
        louvain_with(graph, "native"), louvain_with(graph, "scalar")
    )


def test_native_louvain_weighted_matches_scalar():
    assert_same_louvain(
        louvain_with(WEIGHTED, "native"), louvain_with(WEIGHTED, "scalar")
    )


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_native_louvain_shuffled_order_matches_scalar(seed):
    graph = GRAPHS["random"]
    order = np.random.default_rng(seed).permutation(graph.num_vertices)
    native = louvain_with(graph, "native", vertex_order=order)
    assert_same_louvain(
        native, louvain_with(graph, "scalar", vertex_order=order)
    )
    assert native.levels >= 2  # later phases sweep coarse graphs


def test_native_louvain_phase_with_self_loops_matches_scalar():
    """A coarse level: weighted graph plus per-vertex self-loop weight."""
    from repro.partition import contract_by_labels

    graph = GRAPHS["random"]
    with use_engine("scalar"):
        first, _ = louvain_one_phase(graph)
        level = contract_by_labels(
            graph, first,
            vertex_weights=np.zeros(graph.num_vertices),
            keep_self_loops=True,
        )
    coarse, loops = level.graph, level.vertex_weights
    assert loops.any()
    runs = {}
    for engine in ("native", "scalar"):
        with use_engine(engine):
            runs[engine] = louvain_one_phase(coarse, self_loops=loops)
    assert np.array_equal(runs["native"][0], runs["scalar"][0])
    assert runs["native"][1] == runs["scalar"][1]


@given(
    n=st.integers(1, 24),
    edges=st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)),
        min_size=0,
        max_size=80,
    ),
)
@settings(max_examples=15, deadline=None)
def test_native_louvain_random_shapes(n, edges):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    assert_same_louvain(
        louvain_with(graph, "native"), louvain_with(graph, "scalar")
    )


@pytest.mark.parametrize("scheme_name", ("grappolo", "grappolo_rcm"))
def test_grappolo_records_the_sweep_tier(scheme_name):
    """``native`` only when every Louvain sweep ran in the kernel;
    without the kernel the scalar sweep runs and records ``scalar``."""
    graph = GRAPHS["random"]
    built = native_core.get_kernel("louvain_sweep").lib() is not None
    native = order_with(scheme_name, graph, "native")
    assert native.metadata["engine"] == ("native" if built else "scalar")
    degraded = order_with(scheme_name, graph, "kernels_off")
    scalar = order_with(scheme_name, graph, "scalar")
    assert degraded.metadata == scalar.metadata
    assert degraded.metadata["engine"] == "scalar"
    for ordering in (native, degraded):
        assert np.array_equal(ordering.permutation, scalar.permutation)


# ---------------------------------------------------------------------------
# Dynamic-schedule replay: native region vs the per-access model
# ---------------------------------------------------------------------------
def run_dynamic_per_access(machine, items, chunk):
    """``run_dynamic`` spelled out one ``MemoryHierarchy.access`` at a time."""
    threads = machine.num_threads
    hierarchy = MemoryHierarchy(threads, machine.config)
    clocks = [0] * threads
    compute = [0] * threads
    for pos in range(0, len(items), chunk):
        t = min(range(threads), key=clocks.__getitem__)
        for item in items[pos: pos + chunk]:
            stall = sum(
                machine.config.latency_of(hierarchy.access(t, int(line)))
                for line in item.lines
            )
            clocks[t] += stall + item.compute_cycles
            compute[t] += item.compute_cycles
    return ExecutionResult(
        num_threads=threads,
        thread_cycles=tuple(clocks),
        thread_loads=tuple(c.loads for c in hierarchy.counters),
        report=report_from_counters(
            hierarchy.merged_counters(), sum(compute)
        ),
    )


def dynamic_items(seed, count=30, max_len=300, span=3000):
    """Work items mixing line containers, lengths and reuse."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        lines = rng.integers(0, span, size=int(rng.integers(0, max_len)))
        if i % 5 == 1:
            lines = np.repeat(lines, 2)  # consecutive duplicates
        kind = i % 4
        if kind == 1:
            lines = lines.tolist()
        elif kind == 2:
            lines = lines.astype(np.int32)
        elif kind == 3:
            lines = np.repeat(lines, 2)[::2]  # strided view
        items.append(WorkItem(lines, int(rng.integers(0, 500))))
    return items


def run_dynamic_with(machine, items, chunk, leg):
    with on_leg(leg):
        return machine.run_dynamic(items, chunk=chunk)


@pytest.mark.parametrize("threads", range(1, 6))
@pytest.mark.parametrize("chunk", range(1, 10))
def test_native_run_dynamic_matches_per_access(threads, chunk):
    machine = SimulatedMachine(threads, HierarchyConfig.for_scale(0.05))
    items = dynamic_items(threads * 10 + chunk)
    native = run_dynamic_with(machine, items, chunk, "native")
    assert native == run_dynamic_per_access(machine, items, chunk)


@pytest.mark.parametrize("scale", (0.01, 0.25, 1.0, 4.0))
def test_native_run_dynamic_for_scale_geometries(scale):
    machine = SimulatedMachine(3, HierarchyConfig.for_scale(scale))
    items = dynamic_items(7, count=40, max_len=1500, span=40000)
    native = run_dynamic_with(machine, items, 4, "native")
    # long items take the batched engine on the Python path
    python = run_dynamic_with(machine, items, 4, "kernels_off")
    assert native == python
    assert native == run_dynamic_per_access(machine, items, 4)


def test_native_run_dynamic_empty_items():
    machine = SimulatedMachine(4)
    empty = run_dynamic_with(machine, [], 8, "native")
    assert empty == run_dynamic_with(machine, [], 8, "kernels_off")
    assert empty.thread_cycles == (0, 0, 0, 0)
    blank = [WorkItem([], 5), WorkItem(np.zeros(0, np.int64), 0)]
    assert run_dynamic_with(machine, blank, 1, "native") == (
        run_dynamic_per_access(machine, blank, 1)
    )


def test_native_run_dynamic_negative_line_replays_in_python():
    machine = SimulatedMachine(2, HierarchyConfig.for_scale(0.05))
    items = dynamic_items(3, count=12)
    items[5] = WorkItem(np.array([4, -9, 17, -1], dtype=np.int64), 3)
    native = run_dynamic_with(machine, items, 2, "native")
    assert native == run_dynamic_per_access(machine, items, 2)


def test_native_run_dynamic_prefetch_keeps_python_path():
    from dataclasses import replace

    config = replace(HierarchyConfig.for_scale(0.05), prefetch_next_line=True)
    machine = SimulatedMachine(3, config)
    items = dynamic_items(4, count=20)
    native = run_dynamic_with(machine, items, 3, "native")
    assert native == run_dynamic_per_access(machine, items, 3)


# ---------------------------------------------------------------------------
# Static-schedule replay: native region vs the per-access reference
# ---------------------------------------------------------------------------
def run_with(machine, per_thread, engine):
    with use_engine(engine):
        return machine.run(per_thread)


def static_region(items, threads, schedule=static_block_schedule):
    return [[items[i] for i in idx] for idx in schedule(len(items), threads)]


@pytest.mark.parametrize(
    "schedule", (static_block_schedule, static_interleaved_schedule)
)
@pytest.mark.parametrize("threads", range(1, 9))
def test_native_run_matches_reference(threads, schedule):
    machine = SimulatedMachine(threads, HierarchyConfig.for_scale(0.05))
    per_thread = static_region(dynamic_items(threads), threads, schedule)
    native = run_with(machine, per_thread, "native")
    assert native == machine.run_reference(per_thread)


@pytest.mark.parametrize("scale", (0.01, 0.25, 1.0, 4.0))
def test_native_run_for_scale_geometries(scale):
    machine = SimulatedMachine(3, HierarchyConfig.for_scale(scale))
    # items longer than 1,024 lines, the batched engine's scalar cutoff
    items = dynamic_items(8, count=40, max_len=1500, span=40000)
    per_thread = static_region(items, 3)
    native = run_with(machine, per_thread, "native")
    assert native == machine.run_reference(per_thread)


def test_native_run_empty_thread_and_items():
    machine = SimulatedMachine(3)
    per_thread = [
        [WorkItem([], 5), WorkItem(np.zeros(0, np.int64), 0),
         WorkItem([1, 2, 3], 2)],
        [],
        [WorkItem([], 0)],
    ]
    native = run_with(machine, per_thread, "native")
    assert native == machine.run_reference(per_thread)
    assert run_with(machine, [[], [], []], "native").thread_cycles == (
        0, 0, 0,
    )


def test_native_run_declines_to_reference():
    """A negative line and float compute cycles replay per access."""
    machine = SimulatedMachine(2, HierarchyConfig.for_scale(0.05))
    items = dynamic_items(3, count=12)
    negative = list(items)
    negative[5] = WorkItem(np.array([4, -9, 17, -1], dtype=np.int64), 3)
    fractional = list(items)
    fractional[7] = WorkItem(items[7].lines, 2.5)
    for region in (negative, fractional):
        per_thread = static_region(region, 2, static_interleaved_schedule)
        native = run_with(machine, per_thread, "native")
        assert native == machine.run_reference(per_thread)


def test_native_run_decline_replays_consumed_iterators():
    """After a decline the fallback sees every item of a generator input."""
    machine = SimulatedMachine(2, HierarchyConfig.for_scale(0.05))
    items = dynamic_items(5, count=10)
    items[8] = WorkItem([3, -2], 1)
    first, second = items[:5], items[5:]
    native = run_with(machine, [iter(first), iter(second)], "native")
    reference = machine.run_reference([first, second])
    assert native == reference
    assert sum(native.thread_loads) == sum(len(i.lines) for i in items)


# ---------------------------------------------------------------------------
# RRR sampling through the native tier
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("budget", (None, 5 * 120))
def test_rrr_sampling_native_matches_scalar(budget, monkeypatch):
    """Native cascades equal the scalar BFS, also when a small arena
    budget splits the draw into several kernel calls."""
    from repro._native import rrr as native_rrr
    from repro.apps.batch import sample_rrr_ic_pinned_batch
    from repro.apps.influence_max import sample_rrr_ic_pinned

    if budget is not None:
        monkeypatch.setattr(native_rrr, "_ARENA_BUDGET", budget)

    graph = GRAPHS["random"]
    n = graph.num_vertices
    original_of = np.arange(n, dtype=np.int64)
    num_samples = 24
    roots = np.random.default_rng(2).integers(
        n, size=num_samples
    ).astype(np.int64)
    sample_indices = np.arange(num_samples, dtype=np.int64)

    with use_engine("native"):
        native = sample_rrr_ic_pinned_batch(
            graph, 0.3, roots, original_of, sample_indices, 9
        )
    with use_engine("scalar"):
        scalar = [
            sample_rrr_ic_pinned(
                graph, 0.3, int(roots[i]), original_of,
                int(sample_indices[i]), 9,
            )
            for i in range(num_samples)
        ]
    assert len(native) == len(scalar)
    for a, c in zip(native, scalar):
        assert a.root == c.root
        assert np.array_equal(a.vertices, c.vertices)
        assert a.edges_examined == c.edges_examined


# ---------------------------------------------------------------------------
# Ids the kernels index with: every tier rejects the same bad ids
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("root", ("minus_one", "n"))
def test_rrr_roots_outside_vertex_range_rejected(leg, root):
    from repro.apps.batch import sample_rrr_ic_pinned_batch

    graph = GRAPHS["random"]
    n = graph.num_vertices
    roots = np.asarray([0, -1 if root == "minus_one" else n, 3])
    with on_leg(leg), pytest.raises(ValueError, match="roots"):
        sample_rrr_ic_pinned_batch(
            graph, 0.3, roots, np.arange(n, dtype=np.int64),
            np.arange(3, dtype=np.int64), 9, jobs=1,
        )


@pytest.mark.parametrize("leg", LEGS)
def test_rrr_original_of_must_map_every_vertex(leg):
    from repro.apps.batch import sample_rrr_ic_pinned_batch

    graph = GRAPHS["random"]
    n = graph.num_vertices
    with on_leg(leg), pytest.raises(ValueError, match="original_of"):
        sample_rrr_ic_pinned_batch(
            graph, 0.3, np.asarray([0, 3]), np.arange(n // 2),
            np.arange(2, dtype=np.int64), 9, jobs=1,
        )


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("labels", ("minus_one", "two", "short"))
def test_fm_refine_rejects_labels_outside_the_bisection(leg, labels):
    from repro.partition import fm_refine

    graph = GRAPHS["random"]
    n = graph.num_vertices
    part = np.arange(n, dtype=np.int64) % 2
    if labels == "minus_one":
        part[7] = -1
    elif labels == "two":
        part[7] = 2
    else:
        part = part[:-1]
    with on_leg(leg), pytest.raises(ValueError, match="0/1"):
        fm_refine(graph, part, np.ones(n))


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("source", ("minus_one", "n"))
def test_delta_stepping_rejects_source_outside_vertex_range(leg, source):
    graph = GRAPHS["random"]
    n = graph.num_vertices
    with on_leg(leg), pytest.raises(ValueError, match="source"):
        delta_stepping(graph, -1 if source == "minus_one" else n)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("order", ("minus_one", "repeat", "short"))
def test_louvain_rejects_vertex_order_that_is_no_permutation(leg, order):
    graph = GRAPHS["random"]
    n = graph.num_vertices
    vertex_order = np.arange(n, dtype=np.int64)
    if order == "minus_one":
        vertex_order[5] = -1
    elif order == "repeat":
        vertex_order[5] = vertex_order[6]
    else:
        vertex_order = vertex_order[:-1]
    with on_leg(leg), pytest.raises(ValueError, match="permutation"):
        louvain(graph, vertex_order=vertex_order)


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize("partner", ("minus_one", "n"))
def test_coarse_map_rejects_partner_outside_vertex_range(leg, partner):
    from repro.partition import matching_to_coarse_map

    match = np.arange(10, dtype=np.int64)
    match[4] = -1 if partner == "minus_one" else 10
    with on_leg(leg), pytest.raises(ValueError, match="partners"):
        matching_to_coarse_map(match)


def test_degree_ordering_under_build_failure():
    graph = GRAPHS["random"]
    scalar = order_with("hub_sort", graph, "scalar")
    degraded = order_with("hub_sort", graph, "kernels_off")
    assert np.array_equal(degraded.permutation, scalar.permutation)
    assert degraded.metadata["engine"] != "native"  # vector fallback ran


# ---------------------------------------------------------------------------
# Vertex weights: every partition entry point rejects a wrong length
# ---------------------------------------------------------------------------
def _call_with_weights(entry, graph, weights):
    from repro.partition import (
        bisect,
        fm_refine,
        greedy_bisection,
        heavy_edge_matching,
        partition_graph,
    )

    n = graph.num_vertices
    rng = np.random.default_rng(0)
    if entry == "bisect":
        bisect(graph, vertex_weights=weights, seed=rng)
    elif entry == "partition_graph":
        partition_graph(graph, 4, vertex_weights=weights, seed=rng)
    elif entry == "greedy_bisection":
        greedy_bisection(graph, weights, rng)
    elif entry == "fm_refine":
        fm_refine(graph, np.arange(n, dtype=np.int64) % 2, weights)
    else:
        heavy_edge_matching(
            graph, rng, vertex_weights=weights, max_vertex_weight=2.0
        )


@pytest.mark.parametrize("leg", LEGS)
@pytest.mark.parametrize(
    "entry",
    (
        "bisect", "partition_graph", "greedy_bisection", "fm_refine",
        "heavy_edge_matching",
    ),
)
@pytest.mark.parametrize("length", (10, 150))
def test_vertex_weights_of_wrong_length_rejected(leg, entry, length):
    graph = random_graph(200, 800)
    with on_leg(leg), pytest.raises(ValueError, match="vertex_weights"):
        _call_with_weights(entry, graph, np.ones(length))


@pytest.mark.parametrize("leg", LEGS)
def test_vertex_weights_must_be_one_dimensional(leg):
    graph = random_graph(200, 800)
    with on_leg(leg), pytest.raises(ValueError, match="vertex_weights"):
        _call_with_weights("bisect", graph, np.ones((200, 1)))


@pytest.mark.parametrize("scheme_name", ("metis", "nested_dissection"))
def test_partition_orderings_report_the_tier_that_ran(scheme_name):
    from repro._native import fm as native_fm

    graph = GRAPHS["random"]
    native = order_with(scheme_name, graph, "native")
    expected = "native" if native_fm.KERNEL.lib() is not None else "vector"
    assert native.metadata["engine"] == expected
    degraded = order_with(scheme_name, graph, "kernels_off")
    assert degraded.metadata["engine"] == "vector"
    assert np.array_equal(degraded.permutation, native.permutation)


# ---------------------------------------------------------------------------
# Whole partition trees: partition_tree / dissect_tree against the
# recursions they replace
# ---------------------------------------------------------------------------
def assert_tree_matches_twin(graph, num_parts, vertex_weights=None, seed=0):
    """Assignment, cut, tier and the generator's next draw match the
    recursion in partition_graph."""
    from repro._native import fm as native_fm
    from repro.partition import partition_graph

    rng_native = np.random.default_rng(seed)
    rng_twin = np.random.default_rng(seed)
    with use_engine("native"):
        native = partition_graph(
            graph, num_parts, vertex_weights=vertex_weights, seed=rng_native
        )
    with kernels_off():
        twin = partition_graph(
            graph, num_parts, vertex_weights=vertex_weights, seed=rng_twin
        )
    assert np.array_equal(native.assignment, twin.assignment)
    assert native.cut == twin.cut
    assert rng_native.random() == rng_twin.random()
    bisected = num_parts > 1 and graph.num_vertices >= 2
    if not bisected:
        assert native.engine == twin.engine == "scalar"
    elif native_fm.KERNEL.lib() is not None:
        assert (native.engine, twin.engine) == ("native", "vector")


TREE_PARTS = (1, 2, 3, 5, 8, 32, 256)


@given(
    n=st.integers(2, 90),
    edges=st.lists(
        st.tuples(st.integers(0, 89), st.integers(0, 89)),
        min_size=0,
        max_size=300,
    ),
    seed=st.integers(0, 2**16),
    num_parts=st.sampled_from(TREE_PARTS),
)
@settings(max_examples=30, deadline=None)
def test_partition_tree_matches_twin_random_graphs(n, edges, seed, num_parts):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    assert_tree_matches_twin(graph, num_parts, seed=seed)


@pytest.mark.parametrize("num_parts", TREE_PARTS)
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_partition_tree_matches_twin_on_fixtures(graph_name, num_parts):
    assert_tree_matches_twin(GRAPHS[graph_name], num_parts, seed=3)


@pytest.mark.parametrize("num_parts", (2, 9, 200))
def test_partition_tree_matches_twin_with_more_parts_than_vertices(
    num_parts,
):
    assert_tree_matches_twin(random_graph(7, 12, seed=1), num_parts)
    assert_tree_matches_twin(from_edges(2, [(0, 1)]), num_parts)


@pytest.mark.parametrize("num_parts", TREE_PARTS)
def test_partition_tree_matches_twin_without_edges(num_parts):
    """No edges, or isolated vertices around a few: growth runs out of
    frontier at every node."""
    assert_tree_matches_twin(from_edges(40, []), num_parts, seed=2)
    edges = [(0, 1), (1, 2), (5, 6), (30, 31)]
    assert_tree_matches_twin(from_edges(60, edges), num_parts, seed=5)


@pytest.mark.parametrize("num_parts", (2, 3, 5, 8, 32))
def test_partition_tree_matches_twin_on_degenerate_splits(num_parts):
    """Zero vertex weights let FM pull every vertex of a clique to one
    side, so nodes of 13, 7, 5 and 3 vertices take the arbitrary split
    at round(size * fraction): 6.5, 3.5, 2.5 and 1.5 round half to
    even."""
    from repro.partition import multilevel

    graph = from_edges(13, make_clique(13))
    weights = np.zeros(13)
    one_sided = []
    bisect = multilevel.bisect

    def spy(sub, **kwargs):
        result = bisect(sub, **kwargs)
        if np.ptp(result.assignment) == 0:
            one_sided.append(sub.num_vertices)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(multilevel, "bisect", spy)
        with kernels_off():
            multilevel.partition_graph(graph, num_parts, vertex_weights=weights)
    assert 13 in one_sided  # the twin takes the degenerate path
    assert_tree_matches_twin(graph, num_parts, vertex_weights=weights)


@pytest.mark.parametrize("num_parts", (2, 3, 8, 32))
@pytest.mark.parametrize("seed", (0, 1))
def test_partition_tree_matches_twin_non_integral_weights(num_parts, seed):
    rng = np.random.default_rng(seed)
    n, m = 300, 1500
    edges = np.column_stack((rng.integers(n, size=m), rng.integers(n, size=m)))
    graph = from_edges(n, edges, weights=rng.random(m) * 3.0 + 0.1)
    vertex_weights = rng.random(n) * 2.0 + 0.25
    assert_tree_matches_twin(graph, num_parts, vertex_weights, seed=seed)


# k = 2 is one bisection of the root: the shapes below exercise its
# coarsening, growth and refinement on their own.
def test_partition_tree_matches_twin_at_two_parts_on_disconnected_graph():
    """Small components and isolated vertices: growth runs out of
    frontier and the top-up draws the rest."""
    edges = [(i, i + 1) for i in range(0, 60, 3)] + [(70, 71), (71, 72)]
    assert_tree_matches_twin(from_edges(120, edges), 2)
    assert_tree_matches_twin(from_edges(20, [(0, 1)]), 2, seed=4)


def test_partition_tree_matches_twin_at_two_parts_on_star():
    """A star stalls the matching at the first level."""
    star = from_edges(200, [(0, i) for i in range(1, 200)])
    assert_tree_matches_twin(star, 2)


@pytest.mark.parametrize("n", (0, 1, 2, 3))
def test_partition_tree_matches_twin_at_two_parts_on_tiny_graphs(n):
    assert_tree_matches_twin(from_edges(n, make_clique(n)), 2, seed=n)


def test_partition_tree_matches_twin_at_two_parts_on_a_large_graph():
    assert_tree_matches_twin(random_graph(3000, 12000, seed=9), 2, seed=7)


@pytest.mark.parametrize("num_parts", (2, 3, 4))
@pytest.mark.parametrize("seed", (0, 1, 2))
def test_partition_tree_canonicalises_a_raw_csr(num_parts, seed):
    """The kernel starts from the root the recursion builds, so a CSR
    with duplicates, self-loops and one-sided entries partitions the
    same under both."""
    graph = raw_csr_graph()
    assert_tree_matches_twin(graph, num_parts, seed=seed)
    assert_tree_matches_twin(
        graph, num_parts, vertex_weights=np.arange(1.0, 11.0), seed=seed
    )


def dissect_with(graph, leg, seed=0, leaf_size=16):
    """(sequence, metadata, counter totals, next draw) of one ND run."""
    from repro.ordering.base import OperationCounter
    from repro.ordering.nested_dissection import NestedDissectionOrder

    counter = OperationCounter()
    rng = np.random.default_rng(seed)
    with on_leg(leg):
        permutation, metadata = NestedDissectionOrder(
            leaf_size=leaf_size
        ).compute(graph, counter, rng)
    counts = (counter.vertex_ops, counter.edge_ops, counter.compare_ops)
    return permutation, metadata, counts, rng.random()


def assert_dissection_matches_twin(graph, seed=0, leaf_size=16):
    from repro._native import fm as native_fm

    native = dissect_with(graph, "native", seed, leaf_size)
    twin = dissect_with(graph, "kernels_off", seed, leaf_size)
    assert np.array_equal(native[0], twin[0])
    assert strip_engine_metadata(native[1]) == strip_engine_metadata(twin[1])
    assert native[2:] == twin[2:]
    if graph.num_vertices <= leaf_size:
        assert native[1]["engine"] == twin[1]["engine"] == "scalar"
    elif native_fm.KERNEL.lib() is not None:
        assert (native[1]["engine"], twin[1]["engine"]) == ("native", "vector")


@given(
    n=st.integers(2, 120),
    edges=st.lists(
        st.tuples(st.integers(0, 119), st.integers(0, 119)),
        min_size=0,
        max_size=400,
    ),
    seed=st.integers(0, 2**16),
    leaf_size=st.sampled_from((1, 4, 16)),
)
@settings(max_examples=30, deadline=None)
def test_dissect_tree_matches_twin_random_graphs(n, edges, seed, leaf_size):
    graph = from_edges(n, [(u % n, v % n) for u, v in edges])
    assert_dissection_matches_twin(graph, seed, leaf_size)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("leaf_size", (1, 3, 16))
def test_dissect_tree_matches_twin_on_fixtures(graph_name, leaf_size):
    assert_dissection_matches_twin(GRAPHS[graph_name], 4, leaf_size)


def test_dissect_tree_matches_twin_on_shapes():
    """A clique the separator cannot split, a star, components with
    isolated vertices, a larger random graph, and a raw CSR whose
    duplicate and one-sided entries count in the original degrees."""
    assert_dissection_matches_twin(from_edges(30, make_clique(30)))
    assert_dissection_matches_twin(
        from_edges(100, [(0, i) for i in range(1, 100)]), seed=1
    )
    edges = [(i, i + 1) for i in range(0, 60, 3)] + [(70, 71), (71, 72)]
    assert_dissection_matches_twin(from_edges(120, edges), seed=2)
    assert_dissection_matches_twin(random_graph(3000, 12000, seed=9), 7)
    assert_dissection_matches_twin(raw_csr_graph(), leaf_size=2)


def test_partition_trees_decline_before_drawing():
    """Non-finite weights or no kernel decline with the generator
    untouched; the recursion then runs and labels the Python tier."""
    from repro._native import fm as native_fm
    from repro.partition import partition_graph

    graph = random_graph(200, 800)
    root = graph.indptr, graph.indices
    nan_weights = np.where(np.arange(200) == 3, np.nan, 1.0)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert native_fm.partition_tree(
        *root, None, nan_weights, rng, num_parts=4, imbalance=0.1,
        trials=4, coarsest_size=32, max_negative_moves=50, max_passes=4,
    ) is None
    assert native_fm.partition_tree(
        *root, np.full(graph.indices.size, np.inf), np.ones(200), rng,
        num_parts=4, imbalance=0.1, trials=4, coarsest_size=32,
        max_negative_moves=50, max_passes=4,
    ) is None
    assert native_fm.partition_tree(
        *root, None, np.ones(200, dtype=np.float32), rng, num_parts=2,
        imbalance=0.1, trials=4, coarsest_size=32, max_negative_moves=50,
        max_passes=4,
    ) is None
    assert rng.bit_generator.state == before
    with use_engine("native"):
        result = partition_graph(graph, 4, vertex_weights=nan_weights)
    assert result.engine == "vector"

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native_fm.KERNEL, "lib", lambda: None)
        assert native_fm.dissect_tree(
            *root, graph.degrees(), rng, leaf_size=16, target_fraction=0.5,
            imbalance=0.1, trials=4, coarsest_size=32,
            max_negative_moves=50, max_passes=4,
        ) is None
    assert rng.bit_generator.state == before


def test_partition_trees_reject_per_vertex_arrays_of_wrong_length():
    """The kernels index vertex weights and degrees unchecked."""
    from repro._native import fm as native_fm

    graph = random_graph(50, 120)
    params = dict(
        imbalance=0.1, trials=4, coarsest_size=32, max_negative_moves=50,
        max_passes=4,
    )
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="vertex weight"):
        native_fm.partition_tree(
            graph.indptr, graph.indices, None, np.ones(49), rng,
            num_parts=4, **params,
        )
    with pytest.raises(ValueError, match="degree"):
        native_fm.dissect_tree(
            graph.indptr, graph.indices, graph.degrees()[:-1], rng,
            leaf_size=16, target_fraction=0.5, **params,
        )


@pytest.mark.parametrize(
    "symbol, num_parts",
    (("partition_tree", 2), ("partition_tree", 4), ("dissect_tree", 2)),
)
def test_partition_trees_out_of_memory_raise(symbol, num_parts, monkeypatch):
    """Status -1 is a MemoryError, never a rerun on a moved generator."""
    from repro._native import fm as native_fm

    class OutOfMemory:
        def partition_tree(self, *args):
            return -1

        def dissect_tree(self, *args):
            return -1

    monkeypatch.setattr(native_fm.KERNEL, "lib", lambda: OutOfMemory())
    graph = random_graph(50, 120)
    rng = np.random.default_rng(0)
    params = dict(
        imbalance=0.1, trials=4, coarsest_size=32, max_negative_moves=50,
        max_passes=4,
    )
    with pytest.raises(MemoryError):
        if symbol == "partition_tree":
            native_fm.partition_tree(
                graph.indptr, graph.indices, None, np.ones(50), rng,
                num_parts=num_parts, **params,
            )
        else:
            native_fm.dissect_tree(
                graph.indptr, graph.indices, graph.degrees(), rng,
                leaf_size=16, target_fraction=0.5, **params,
            )


# ---------------------------------------------------------------------------
# The kernel's draws and sums against numpy's own
# ---------------------------------------------------------------------------
def _fm_kernel():
    from repro._native import fm as native_fm

    if native_fm.KERNEL.lib() is None:
        pytest.skip("partition kernel unavailable")
    return native_fm


@pytest.mark.parametrize("seed", range(5))
def test_kernel_permutation_matches_numpy(seed):
    native_fm = _fm_kernel()
    for n in (0, 1, 2, 3, 7, 33, 100, 1000, 5000):
        ours = np.random.default_rng(seed + n)
        theirs = np.random.default_rng(seed + n)
        assert np.array_equal(
            native_fm.draw_permutation(ours, n), theirs.permutation(n)
        )
        assert ours.random() == theirs.random()


@pytest.mark.parametrize(
    "m", (1, 2, 3, 5, 31, 32, 33, 1000, 2**31 - 1, 2**31 + 1, 2**32)
)
def test_kernel_integers_match_numpy(m):
    native_fm = _fm_kernel()
    ours = np.random.default_rng(m)
    theirs = np.random.default_rng(m)
    expected = np.array([theirs.integers(m) for _ in range(200)])
    assert np.array_equal(native_fm.draw_integers(ours, m, 200), expected)
    assert ours.random() == theirs.random()


def test_kernel_pairwise_sum_matches_np_sum():
    native_fm = _fm_kernel()
    rng = np.random.default_rng(11)
    for length in range(0, 1001):
        values = rng.random(length) * rng.choice((1.0, 1e-3, 1e6))
        assert native_fm.pairwise_sum(values) == float(values.sum())
    for length in (4096, 8191, 8192, 8193, 65537, 100_000):
        values = rng.standard_normal(length)
        assert native_fm.pairwise_sum(values) == float(values.sum())


# ---------------------------------------------------------------------------
# Counting-sort kernel: direct parity with the stable argsort
# ---------------------------------------------------------------------------
@given(keys=st.lists(st.integers(0, 15), min_size=0, max_size=200))
@settings(max_examples=20, deadline=None)
def test_counting_sort_matches_stable_argsort(keys):
    from repro._native import counting

    if counting.KERNEL.lib() is None:
        pytest.skip("counting kernel unavailable")
    arr = np.asarray(keys, dtype=np.int64)
    out = counting.run(arr, 16)
    assert out is not None
    assert np.array_equal(out, np.argsort(arr, kind="stable"))


def test_counting_sort_declines_oversized_buckets():
    from repro._native import counting

    keys = np.zeros(4, dtype=np.int64)
    assert counting.run(keys, counting._MAX_BUCKETS + 1) is None
    assert counting.run(keys, 0) is None


# ---------------------------------------------------------------------------
# Build cache: the compiler survives a cache hit via the sidecar
# ---------------------------------------------------------------------------
def test_build_info_reports_compiler_on_cache_hit():
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    compiled_with = kernel.build_info()["compiler"]
    assert compiled_with
    kernel.reset()
    assert kernel.lib() is not None
    info = kernel.build_info()
    assert info["cache_hit"] is True
    assert info["compiler"] == compiled_with


# ---------------------------------------------------------------------------
# Sanitizer build profiles: knob parsing, flags, and per-profile caching
# ---------------------------------------------------------------------------
def test_sanitize_profile_parsing(knobs):
    for unset in (None, "", "  "):
        knobs(REPRO_NATIVE_SANITIZE=unset)
        assert config.get().native_sanitize is None
    knobs(REPRO_NATIVE_SANITIZE=" UBSan ")
    assert config.get().native_sanitize == "ubsan"


def test_malformed_sanitize_knob_fails_loudly(knobs):
    """A typo'd knob must raise, never silently build uninstrumented."""
    kernel = native_core.get_kernel("counting_sort")
    kernel.reset()
    try:
        with pytest.raises(ValueError, match="nope"):
            knobs(REPRO_NATIVE_SANITIZE="nope")
        # the snapshot stays unparsed: every later read raises again
        with pytest.raises(ValueError, match="nope"):
            kernel.lib()
    finally:
        kernel.reset()


def test_build_flags_per_profile():
    kernel = native_core.get_kernel("counting_sort")
    plain = kernel.build_flags(None)
    assert "-O3" in plain and "-Werror" not in plain
    for profile, extra in native_core.SANITIZE_PROFILES.items():
        flags = kernel.build_flags(profile)
        for flag in extra:
            assert flag in flags
        # instrumented builds keep symbols and promote warnings
        assert "-g" in flags and "-Werror" in flags
        assert "-O3" not in flags


def test_so_cache_keyed_per_profile():
    """Instrumented .so files never shadow the -O3 build (or each other)."""
    kernel = native_core.get_kernel("counting_sort")
    paths = {
        kernel._so_path(p)
        for p in (None, *native_core.SANITIZE_PROFILES)
    }
    assert len(paths) == 1 + len(native_core.SANITIZE_PROFILES)
    assert all(kernel.source_digest in p for p in paths)


def test_ubsan_profile_builds_and_reports(knobs):
    """REPRO_NATIVE_SANITIZE=ubsan recompiles with the sanitizer flags
    (ubsan needs no runtime preload, so it can run inside this suite).

    The ambient profile is restored inside the test, so the kernel is
    rebuilt under whatever profile the enclosing leg runs (the sanitize
    legs execute this very test with the knob set)."""
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    ambient = config.get().native_sanitize
    knobs(REPRO_NATIVE_SANITIZE="ubsan")
    kernel.reset()
    try:
        info = kernel.build_info()
        assert info["available"] is True
        assert info["profile"] == "ubsan"
        assert "-fsanitize=undefined" in info["flags"]
        assert "-Werror" in info["flags"]
    finally:
        knobs(REPRO_NATIVE_SANITIZE=ambient)
        kernel.reset()
    assert kernel.lib() is not None
    assert kernel.build_info()["profile"] == ambient


# ---------------------------------------------------------------------------
# Build provenance: sidecar records version + flags; $CC wrappers work
# ---------------------------------------------------------------------------
def test_sidecar_records_version_and_flags():
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    info = kernel.build_info()
    assert info["compiler_version"]
    # whatever profile is ambient (the sanitize legs re-run this test
    # with REPRO_NATIVE_SANITIZE set), the recorded flags must match it
    assert info["flags"] == kernel.build_flags(info["profile"])
    kernel.reset()
    assert kernel.lib() is not None
    cached = kernel.build_info()
    assert cached["cache_hit"] is True
    assert cached["compiler_version"] == info["compiler_version"]
    assert cached["flags"] == info["flags"]


def test_compiler_honors_cc_wrapper_with_args(knobs):
    if not shutil.which("cc"):
        pytest.skip("no cc on PATH")
    knobs(CC="cc -pipe")
    assert native_core._compiler() == ["cc", "-pipe"]


def test_compiler_falls_back_past_a_bogus_cc(knobs):
    knobs(CC="definitely-not-a-compiler --fast")
    argv = native_core._compiler()
    assert argv is None or argv[0] != "definitely-not-a-compiler"


def test_compiler_version_is_one_line():
    cc = native_core._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    version = native_core._compiler_version(cc)
    assert version and "\n" not in version


# ---------------------------------------------------------------------------
# Compile failures surface their diagnostics instead of vanishing
# ---------------------------------------------------------------------------
BROKEN_SRC = (
    "#include <stdint.h>\n"
    "int64_t broken(void) { return missing_symbol; }\n"
)


def test_compile_failure_surfaces_stderr(knobs):
    if native_core._compiler() is None:
        pytest.skip("no C compiler")
    # a real compiler diagnosis, not the injected build failure
    knobs(REPRO_FAULTS=None)
    kernel = native_core.NativeKernel(
        "test_broken_fixture",
        BROKEN_SRC,
        symbols={},
        scalar_twin="builtins:sum",
    )
    try:
        with pytest.raises(native_core.NativeBuildError) as excinfo:
            kernel._build(None)
        assert "missing_symbol" in excinfo.value.stderr
        assert "test_broken_fixture" in str(excinfo.value)
        # the soft path disables the kernel and keeps the diagnosis
        assert kernel.lib() is None
        info = kernel.build_info()
        assert info["available"] is False
        assert info["status"].startswith("degraded: native-build-fail: ")
        assert "failed to compile" in info["status"]
        assert "missing_symbol" in info["compile_stderr"]
        assert info["fallback"] == info["status"]
    finally:
        native_core._KERNELS.pop("test_broken_fixture", None)
