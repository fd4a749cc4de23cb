"""The native (C) tier is bit-identical to its scalar ground truth.

Every :class:`repro._native.core.NativeKernel` declares scalar and
vector twins; this suite is the dynamic half of that contract (the
static half is the reprolint ``native-twin`` check).  Each kernel is
driven against its scalar twin over structured and random inputs, and
the build-info reporting surface is pinned.

``make bench-native`` runs this file twice — once with the C tier and
once with every kernel build failing
(``REPRO_FAULTS=native-build-fail:p=1``, the stand-in for a host with
no C compiler) — so a kernel regression and a fallback regression are
both loud.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _native
from repro._native import core as native_core
from repro.apps.delta_stepping import delta_stepping
from repro.community.louvain import louvain, louvain_one_phase
from repro.engine import strip_engine_metadata, use_engine
from repro.graph import from_edges
from repro.ordering import get_scheme
from repro.simulator.counters import report_from_counters
from repro.simulator.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.simulator.parallel import (
    ExecutionResult,
    SimulatedMachine,
    WorkItem,
    static_block_schedule,
    static_interleaved_schedule,
)
from tests.conftest import make_grid, make_two_cliques, random_graph

KERNEL_NAMES = (
    "gorder_greedy",
    "partition_fm",
    "delta_scan",
    "rrr_sample",
    "counting_sort",
    "parse_edges",
    "louvain_sweep",
    "sim_region",
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
    for role in ("scalar_twin", "vector_twin"):
        assert ":" in info[role]
    if info["available"]:
        assert info["fallback"] is None
    else:
        assert info["fallback"] == info["status"]


def test_build_info_all_covers_every_kernel():
    infos = _native.build_info_all()
    assert set(KERNEL_NAMES) <= set(infos)
    for name, info in infos.items():
        assert info["kernel"] == name


def test_twins_resolve_dynamically():
    import importlib

    for name in KERNEL_NAMES:
        info = native_core.get_kernel(name).build_info()
        for target in (info["scalar_twin"], info["vector_twin"]):
            mod_name, qualname = target.split(":")
            obj = importlib.import_module(mod_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            assert callable(obj)


def test_reset_forgets_build_state():
    kernel = native_core.get_kernel("gorder_greedy")
    kernel.lib()
    kernel.reset()
    assert kernel.build_info()["status"] != "not built"  # rebuilt lazily


# ---------------------------------------------------------------------------
# Bit-identity: orderings through the native tier
# ---------------------------------------------------------------------------
def order_with(scheme_name, graph, engine):
    with use_engine(engine):
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
        else "vector"
    )
    assert native.metadata["engine"] == expected


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


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_native_delta_stepping_matches_scalar(graph_name):
    graph = GRAPHS[graph_name]
    native = delta_stepping(graph, 0, engine="native")
    scalar = delta_stepping(graph, 0, engine="scalar")
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
    native = delta_stepping(graph, source % n, engine="native")
    scalar = delta_stepping(graph, source % n, engine="scalar")
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
    for engine in ("native", "vector", "scalar"):
        with use_engine(engine):
            runs[engine] = louvain_one_phase(coarse, self_loops=loops)
    for engine in ("native", "vector"):
        assert np.array_equal(runs[engine][0], runs["scalar"][0])
        assert runs[engine][1] == runs["scalar"][1]


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


def run_dynamic_with(machine, items, chunk, engine):
    with use_engine(engine):
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
    python = run_dynamic_with(machine, items, 4, "vector")
    assert native == python
    assert native == run_dynamic_per_access(machine, items, 4)


def test_native_run_dynamic_empty_items():
    machine = SimulatedMachine(4)
    empty = run_dynamic_with(machine, [], 8, "native")
    assert empty == run_dynamic_with(machine, [], 8, "vector")
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
    scalar = [
        sample_rrr_ic_pinned(
            graph, 0.3, int(roots[i]), original_of,
            int(sample_indices[i]), 9, engine="scalar",
        )
        for i in range(num_samples)
    ]
    assert len(native) == len(scalar)
    for a, c in zip(native, scalar):
        assert a.root == c.root
        assert np.array_equal(a.vertices, c.vertices)
        assert a.edges_examined == c.edges_examined


def test_degree_ordering_under_build_failure(monkeypatch):
    kernel = native_core.get_kernel("counting_sort")
    graph = GRAPHS["random"]
    scalar = order_with("hub_sort", graph, "scalar")
    monkeypatch.setenv("REPRO_FAULTS", "native-build-fail:p=1")
    kernel.reset()
    try:
        degraded = order_with("hub_sort", graph, "native")
    finally:
        monkeypatch.delenv("REPRO_FAULTS")
        kernel.reset()
    assert np.array_equal(degraded.permutation, scalar.permutation)
    assert degraded.metadata["engine"] != "native"  # vector fallback ran


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
def test_sanitize_profile_parsing(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
    assert native_core.sanitize_profile() is None
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "")
    assert native_core.sanitize_profile() is None
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", " UBSan ")
    assert native_core.sanitize_profile() == "ubsan"
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "msan")
    with pytest.raises(ValueError, match="msan"):
        native_core.sanitize_profile()


def test_malformed_sanitize_knob_fails_loudly(monkeypatch):
    """A typo'd knob must raise, never silently build uninstrumented."""
    kernel = native_core.get_kernel("counting_sort")
    kernel.reset()
    monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "nope")
    try:
        with pytest.raises(ValueError, match="nope"):
            kernel.lib()
    finally:
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
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


def test_ubsan_profile_builds_and_reports():
    """REPRO_NATIVE_SANITIZE=ubsan recompiles with the sanitizer flags
    (ubsan needs no runtime preload, so it can run inside this suite).

    The ambient knob is restored by hand — not via monkeypatch — so the
    kernel is rebuilt under whatever profile the enclosing leg runs
    (the sanitize legs execute this very test with the knob set)."""
    kernel = native_core.get_kernel("counting_sort")
    if kernel.lib() is None:
        pytest.skip("no C toolchain")
    ambient = os.environ.get("REPRO_NATIVE_SANITIZE")
    os.environ["REPRO_NATIVE_SANITIZE"] = "ubsan"
    kernel.reset()
    try:
        info = kernel.build_info()
        assert info["available"] is True
        assert info["profile"] == "ubsan"
        assert "-fsanitize=undefined" in info["flags"]
        assert "-Werror" in info["flags"]
    finally:
        if ambient is None:
            os.environ.pop("REPRO_NATIVE_SANITIZE", None)
        else:
            os.environ["REPRO_NATIVE_SANITIZE"] = ambient
        kernel.reset()
    assert kernel.lib() is not None
    assert kernel.build_info()["profile"] == native_core.sanitize_profile()


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


def test_compiler_honors_cc_wrapper_with_args(monkeypatch):
    if not shutil.which("cc"):
        pytest.skip("no cc on PATH")
    monkeypatch.setenv("CC", "cc -pipe")
    assert native_core._compiler() == ["cc", "-pipe"]


def test_compiler_falls_back_past_a_bogus_cc(monkeypatch):
    monkeypatch.setenv("CC", "definitely-not-a-compiler --fast")
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


def test_compile_failure_surfaces_stderr(monkeypatch):
    if native_core._compiler() is None:
        pytest.skip("no C compiler")
    # a real compiler diagnosis, not the injected build failure
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    kernel = native_core.NativeKernel(
        "test_broken_fixture",
        BROKEN_SRC,
        symbols={},
        scalar_twin="builtins:sum",
        vector_twin="builtins:sum",
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
