"""The app engines are bit-identical to the scalar references.

Mirror of ``test_engine_equivalence.py`` for the application workloads
(:mod:`repro.apps`) and the locality measures: every engine-gated path
keeps its original Python loop as executable ground truth, and these
tests require the *exact* same outputs — RRR vertex visit order, seeds
and tie-breaks, operation counts, distances, work-item line streams —
not approximate agreement.  RRR sampling and delta-stepping have no
vector tier (their C kernels fall back to the scalar loop), so those
tests compare the native engine with the scalar one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.batch import (
    greedy_seed_selection_vector,
    sample_rrr_ic_pinned_batch,
)
from repro.apps.community_detection import build_sweep_items
from repro.apps.delta_stepping import delta_stepping
from repro.apps.influence_max import (
    RRRSet,
    greedy_seed_selection,
    sample_rrr_ic,
    sample_rrr_ic_pinned,
)
from repro.engine import use_engine
from repro.graph import from_edges
from repro.measures.gaps import vertex_bandwidths
from repro.measures.locality import vertex_line_fragmentation
from tests.conftest import (
    LEGS,
    make_grid,
    make_star,
    make_two_cliques,
    on_leg,
    random_graph,
)

GRAPHS = {
    "star": make_star(12),
    "two_cliques": make_two_cliques(5),
    "grid": make_grid(6, 5),
    "random": random_graph(60, 200, seed=3),
    "empty_edges": from_edges(5, []),
    "single": from_edges(1, []),
}


def run_under(leg, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` on ``leg`` (one of ``LEGS``)."""
    with on_leg(leg):
        return fn(*args, **kwargs)


def assert_rrr_equal(a: RRRSet, b: RRRSet) -> None:
    assert a.root == b.root
    assert np.array_equal(a.vertices, b.vertices)
    assert a.edges_examined == b.edges_examined


def assert_items_equal(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.lines, y.lines)
        assert x.compute_cycles == y.compute_cycles


class TestPinnedBatch:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("probability", [0.05, 0.3, 1.0])
    def test_matches_scalar_loop(self, name, probability):
        graph = GRAPHS[name]
        n = graph.num_vertices
        original_of = np.arange(n, dtype=np.int64)
        rng = np.random.default_rng(11)
        roots = rng.integers(0, n, size=20).astype(np.int64)
        indices = np.arange(20, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            graph, probability, roots, original_of, indices, 7,
        )
        for i in range(20):
            scalar = run_under(
                "scalar", sample_rrr_ic_pinned, graph, probability,
                int(roots[i]), original_of, int(indices[i]), 7,
            )
            assert_rrr_equal(scalar, batched[i])

    def test_parallel_jobs_match_sequential(self):
        graph = GRAPHS["random"]
        n = graph.num_vertices
        original_of = np.arange(n, dtype=np.int64)
        roots = np.random.default_rng(2).integers(
            0, n, size=30
        ).astype(np.int64)
        indices = np.arange(30, dtype=np.int64)
        sequential = sample_rrr_ic_pinned_batch(
            graph, 0.2, roots, original_of, indices, 5, jobs=1
        )
        parallel = sample_rrr_ic_pinned_batch(
            graph, 0.2, roots, original_of, indices, 5, jobs=3
        )
        for a, b in zip(sequential, parallel):
            assert_rrr_equal(a, b)

    def test_relabelled_graph_original_ids(self):
        """Pinned coins key on original ids through ``original_of``."""
        graph = GRAPHS["random"]
        n = graph.num_vertices
        pi = np.random.default_rng(4).permutation(n).astype(np.int64)
        from repro.graph import apply_ordering, invert_ordering

        relabelled = apply_ordering(graph, pi)
        original_of = invert_ordering(pi)
        roots = np.arange(0, n, 7, dtype=np.int64)
        indices = np.arange(roots.size, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            relabelled, 0.25, roots, original_of, indices, 9
        )
        for i, root in enumerate(roots):
            scalar = run_under(
                "scalar", sample_rrr_ic_pinned, relabelled, 0.25,
                int(root), original_of, int(indices[i]), 9,
            )
            assert_rrr_equal(scalar, batched[i])

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 30),
        m=st.integers(0, 90),
        seed=st.integers(0, 2**16),
        probability=st.floats(0.05, 0.95),
    )
    def test_random_graphs(self, n, m, seed, probability):
        graph = random_graph(n, m, seed=seed)
        original_of = np.arange(n, dtype=np.int64)
        roots = np.random.default_rng(seed + 1).integers(
            0, n, size=8
        ).astype(np.int64)
        indices = np.arange(8, dtype=np.int64)
        batched = sample_rrr_ic_pinned_batch(
            graph, probability, roots, original_of, indices, seed,
        )
        for i in range(8):
            scalar = run_under(
                "scalar", sample_rrr_ic_pinned, graph, probability,
                int(roots[i]), original_of, int(indices[i]), seed,
            )
            assert_rrr_equal(scalar, batched[i])


class TestRngSampler:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_vector_matches_scalar_stream(self, name):
        """Consecutive draws consume the rng stream identically."""
        graph = GRAPHS[name]
        rng_s = np.random.default_rng(13)
        rng_v = np.random.default_rng(13)
        for _ in range(12):
            scalar = run_under("scalar", sample_rrr_ic, graph, 0.3, rng_s)
            vector = run_under("kernels_off", sample_rrr_ic, graph, 0.3, rng_v)
            assert_rrr_equal(scalar, vector)
        # both generators must land in the same state
        assert rng_s.integers(1 << 30) == rng_v.integers(1 << 30)


def _random_rrr_sets(rng, num_vertices, count):
    sets = []
    for i in range(count):
        size = int(rng.integers(0, max(2, num_vertices // 2)))
        vertices = rng.permutation(num_vertices)[:size].astype(np.int64)
        sets.append(RRRSet(
            root=int(vertices[0]) if size else 0,
            vertices=vertices,
            edges_examined=int(rng.integers(0, 50)),
        ))
    # duplicated sets exercise the covered-set live-skip behaviour
    if count >= 2:
        sets.append(sets[0])
        sets.append(sets[1])
    return sets


class TestGreedySeeding:
    @pytest.mark.parametrize("k", [1, 4, 16, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 40
        sets = _random_rrr_sets(rng, n, 25)
        scalar = run_under("scalar", greedy_seed_selection, sets, n, k)
        vector = greedy_seed_selection_vector(sets, n, k)
        assert scalar == vector

    @pytest.mark.parametrize("leg", ["kernels_off", "native"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engines_agree(self, seed, leg):
        """The native engine orders the membership by vertex with the
        counting-sort kernel, or without it with a stable argsort."""
        rng = np.random.default_rng(seed)
        n = 40
        sets = _random_rrr_sets(rng, n, 25)
        scalar = run_under("scalar", greedy_seed_selection, sets, n, 16)
        with on_leg(leg):
            assert greedy_seed_selection_vector(sets, n, 16) == scalar

    def test_empty_sets(self):
        assert run_under(
            "scalar", greedy_seed_selection, [], 10, 4
        ) == greedy_seed_selection_vector([], 10, 4)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 30),
        count=st.integers(0, 20),
        k=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_random_sets(self, n, count, k, seed):
        rng = np.random.default_rng(seed)
        sets = _random_rrr_sets(rng, n, count)
        scalar = run_under("scalar", greedy_seed_selection, sets, n, k)
        vector = greedy_seed_selection_vector(sets, n, k)
        assert scalar == vector


def _weighted_graph(n, m, seed):
    rng = np.random.default_rng(seed)
    edges, weights = [], []
    for _ in range(m):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v)))
            weights.append(float(rng.uniform(0.1, 4.0)))
    return from_edges(n, edges, weights=weights)


class TestDeltaStepping:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_unweighted_matches_scalar(self, name):
        graph = GRAPHS[name]
        d_s, i_s = run_under("scalar", delta_stepping, graph, 0)
        d_n, i_n = run_under("native", delta_stepping, graph, 0)
        assert np.array_equal(d_s, d_n)
        assert_items_equal(i_s, i_n)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 5.0, None])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_weighted_matches_scalar(self, delta, seed):
        graph = _weighted_graph(35, 120, seed)
        d_s, i_s = run_under("scalar", delta_stepping, graph, 0, delta=delta)
        d_n, i_n = run_under("native", delta_stepping, graph, 0, delta=delta)
        assert np.array_equal(d_s, d_n)
        assert_items_equal(i_s, i_n)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 25),
        m=st.integers(0, 80),
        seed=st.integers(0, 2**16),
        source=st.integers(0, 24),
    )
    def test_random_weighted(self, n, m, seed, source):
        graph = _weighted_graph(n, m, seed)
        source = source % n
        d_s, i_s = run_under("scalar", delta_stepping, graph, source)
        d_n, i_n = run_under("native", delta_stepping, graph, source)
        assert np.array_equal(d_s, d_n)
        assert_items_equal(i_s, i_n)


class TestSweepItems:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("with_communities", [False, True])
    def test_matches_scalar(self, name, with_communities):
        graph = GRAPHS[name]
        n = graph.num_vertices
        communities = (
            np.random.default_rng(5).integers(
                0, max(1, n // 3), size=n
            ).astype(np.int64)
            if with_communities else None
        )
        scalar = run_under("scalar", build_sweep_items, graph, communities)
        vector = run_under("kernels_off", build_sweep_items, graph, communities)
        assert_items_equal(scalar, vector)


class TestMeasures:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("use_pi", [False, True])
    def test_vertex_bandwidths(self, name, use_pi):
        graph = GRAPHS[name]
        n = graph.num_vertices
        pi = (
            np.random.default_rng(6).permutation(n).astype(np.int64)
            if use_pi else None
        )
        scalar = run_under("scalar", vertex_bandwidths, graph, pi)
        vector = run_under("kernels_off", vertex_bandwidths, graph, pi)
        assert np.array_equal(scalar, vector)
        assert scalar.dtype == vector.dtype

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("entries_per_line", [1, 3, 8])
    def test_vertex_line_fragmentation(self, name, entries_per_line):
        graph = GRAPHS[name]
        n = graph.num_vertices
        pi = np.random.default_rng(8).permutation(n).astype(np.int64)
        scalar = run_under(
            "scalar", vertex_line_fragmentation, graph, pi,
            entries_per_line=entries_per_line,
        )
        vector = run_under(
            "kernels_off", vertex_line_fragmentation, graph, pi,
            entries_per_line=entries_per_line,
        )
        assert np.array_equal(scalar, vector)


class TestEngineContextDispatch:
    def test_use_engine_drives_apps(self):
        """The context manager selects the path."""
        graph = GRAPHS["random"]
        with use_engine("scalar"):
            d_s, i_s = delta_stepping(graph, 0)
        with use_engine("native"):
            d_n, i_n = delta_stepping(graph, 0)
        assert np.array_equal(d_s, d_n)
        assert_items_equal(i_s, i_n)


class TestEndToEndInfluenceMax:
    def test_run_identical_across_engines_and_jobs(self):
        from repro.apps.influence_max import run_influence_maximization
        from repro.ordering import get_scheme

        graph = random_graph(50, 160, seed=12)
        ordering = get_scheme("natural").order(graph)
        kwargs = dict(k=4, probability=0.2, max_samples=120, seed=3)
        with use_engine("scalar"):
            base = run_influence_maximization(graph, ordering, **kwargs)
        with use_engine("native"):
            nat = run_influence_maximization(graph, ordering, **kwargs)
            par = run_influence_maximization(
                graph, ordering, jobs=2, **kwargs
            )
        for other in (nat, par):
            assert base.seeds == other.seeds
            assert base.num_samples == other.num_samples
            assert base.estimated_spread == other.estimated_spread


class TestApplicationTraces:
    """The application studies replay block-indexed traces: the same
    reports on every leg, through the machine's entry points."""

    @staticmethod
    def per_set_items(graph, rrr_sets, line_budget):
        """The sampling trace built one set at a time, as WorkItems."""
        from repro.apps.influence_max import (
            EDGE_COMPUTE_CYCLES,
            VERTEX_COMPUTE_CYCLES,
        )
        from repro.apps.tracegen import SweepBlockTable
        from repro.simulator.parallel import WorkItem
        from repro.simulator.trace import csr_layout

        table = SweepBlockTable(
            graph, csr_layout(graph.num_vertices, graph.num_directed_edges)
        )
        items, emitted = [], 0
        for rrr in rrr_sets:
            lines = [
                line for v in rrr.vertices.tolist()
                for line in table.block(v).tolist()
            ]
            items.append(WorkItem(
                lines,
                VERTEX_COMPUTE_CYCLES * rrr.vertices.size
                + EDGE_COMPUTE_CYCLES * rrr.edges_examined,
            ))
            emitted += len(lines)
            if emitted >= line_budget:
                break
        return items

    @pytest.mark.parametrize("budget", [1, 700, 2000, 10**9])
    def test_sampling_trace_matches_per_set_items(self, budget):
        from repro.apps.batch import sample_rrr_ic_pinned_sets
        from repro.apps.influence_max import _sampling_trace

        graph = random_graph(50, 160, seed=12)
        n = graph.num_vertices
        sets = sample_rrr_ic_pinned_sets(
            graph, 0.3, np.arange(40) % n, np.arange(n), np.arange(40), 3,
        )
        trace, traced = _sampling_trace(graph, sets, line_budget=budget)
        expected = self.per_set_items(graph, sets, budget)
        assert traced == trace.num_items == len(expected)
        assert_items_equal(trace.work_items(), expected)
        if budget == 10**9:
            assert traced == len(sets)
        elif budget > 1:
            assert 1 < traced < len(sets)

    def test_truncated_influence_max_identical_across_engines(
        self, monkeypatch
    ):
        import functools

        from repro.apps import influence_max
        from repro.ordering import get_scheme

        traced_counts = []
        original = influence_max._sampling_trace

        def small_budget(graph, rrr_sets):
            trace, traced = original(graph, rrr_sets, line_budget=2000)
            traced_counts.append((traced, len(rrr_sets)))
            return trace, traced

        monkeypatch.setattr(influence_max, "_sampling_trace", small_budget)
        graph = random_graph(50, 160, seed=12)
        ordering = get_scheme("rcm").order(graph)
        run = functools.partial(
            influence_max.run_influence_maximization, graph, ordering,
            k=4, probability=0.2, max_samples=120, seed=3,
        )
        reports = {}
        for leg in LEGS:
            with on_leg(leg):
                reports[leg] = run()
        assert reports["native"] == reports["kernels_off"] == reports["scalar"]
        # the budget cut the replay mid-run on every leg
        assert all(0 < traced < total for traced, total in traced_counts)

    @pytest.mark.parametrize("schedule", ["block", "colored"])
    def test_community_detection_identical_across_engines(self, schedule):
        from repro.apps.community_detection import run_community_detection
        from repro.ordering import get_scheme

        graph = random_graph(60, 200, seed=3)
        ordering = get_scheme("degree_sort").order(graph)
        reports = {}
        for leg in LEGS:
            with on_leg(leg):
                reports[leg] = run_community_detection(
                    graph, ordering, num_threads=3, schedule=schedule,
                )
        assert reports["native"] == reports["kernels_off"] == reports["scalar"]

    def test_studies_replay_through_the_machine_entry_points(
        self, monkeypatch
    ):
        """The layer trace wraps ``SimulatedMachine.run``/``run_dynamic``
        by name: both studies must keep replaying through them."""
        from repro.apps.community_detection import run_community_detection
        from repro.apps.influence_max import run_influence_maximization
        from repro.ordering import get_scheme
        from repro.simulator.parallel import SimulatedMachine

        calls = []

        def spy(name):
            method = getattr(SimulatedMachine, name)

            def wrapped(self, *args, **kwargs):
                result = method(self, *args, **kwargs)
                calls.append((name, sum(result.thread_loads)))
                return result

            return wrapped

        for name in ("run", "run_dynamic"):
            monkeypatch.setattr(SimulatedMachine, name, spy(name))
        graph = random_graph(60, 200, seed=3)
        ordering = get_scheme("natural").order(graph)
        block = run_community_detection(graph, ordering)
        assert calls == [("run", sum(block.execution.thread_loads))]
        calls.clear()
        colored = run_community_detection(graph, ordering,
                                          schedule="colored")
        assert calls and {name for name, _ in calls} == {"run_dynamic"}
        assert sum(loads for _, loads in calls) == sum(
            colored.execution.thread_loads
        )
        calls.clear()
        imm = run_influence_maximization(graph, ordering, k=4,
                                         max_samples=60)
        assert calls == [("run_dynamic", sum(imm.execution.thread_loads))]
