"""Unit tests for the IMM influence-maximization pipeline (Fig 11/12)."""

import numpy as np
import pytest

from repro.apps import (
    greedy_seed_selection,
    imm_theta,
    run_influence_maximization,
    sample_rrr_ic,
    sample_rrr_lt,
)
from repro.apps.influence_max import RRRSet
from repro.graph import from_edges
from repro.ordering import get_scheme
from tests.conftest import LEGS, make_path, make_star, make_two_cliques, on_leg


class TestRRRSampling:
    def test_ic_p1_reaches_component(self, two_cliques):
        rng = np.random.default_rng(0)
        rrr = sample_rrr_ic(two_cliques, 1.0, rng, root=0)
        assert set(rrr.vertices) == set(range(10))

    def test_ic_p0_only_root(self, two_cliques):
        rng = np.random.default_rng(1)
        rrr = sample_rrr_ic(two_cliques, 0.0, rng, root=3)
        assert list(rrr.vertices) == [3]
        assert rrr.edges_examined == two_cliques.degree(3)

    def test_ic_intermediate_prob(self, two_cliques):
        rng = np.random.default_rng(2)
        sizes = [
            sample_rrr_ic(two_cliques, 0.3, rng).vertices.size
            for _ in range(50)
        ]
        assert 1 <= min(sizes)
        assert max(sizes) <= 10

    def test_ic_isolated_root(self):
        g = from_edges(3, [(0, 1)])
        rng = np.random.default_rng(3)
        rrr = sample_rrr_ic(g, 1.0, rng, root=2)
        assert list(rrr.vertices) == [2]

    def test_lt_walk_terminates(self, two_cliques):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rrr = sample_rrr_lt(two_cliques, rng)
            assert 1 <= rrr.vertices.size <= 10
            # LT live-edge walk: no duplicates
            assert len(set(rrr.vertices)) == rrr.vertices.size

    def test_lt_on_star_short_walks(self, star6):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rrr = sample_rrr_lt(star6, rng, root=0)
            assert rrr.vertices.size <= 3


class TestGreedySelection:
    def make_sets(self, covers):
        return [
            RRRSet(root=0, vertices=np.asarray(c), edges_examined=0)
            for c in covers
        ]

    def test_picks_best_cover(self):
        sets = self.make_sets([[1, 2], [1, 3], [1, 4], [5]])
        seeds, fraction, _ = greedy_seed_selection(sets, 6, 1)
        assert seeds == [1]
        assert fraction == pytest.approx(3 / 4)

    def test_second_seed_complements(self):
        sets = self.make_sets([[1, 2], [1, 3], [5], [5]])
        seeds, fraction, _ = greedy_seed_selection(sets, 6, 2)
        assert seeds[0] in (1, 5)
        assert set(seeds) == {1, 5}
        assert fraction == 1.0

    def test_k_larger_than_needed(self):
        sets = self.make_sets([[0], [0]])
        seeds, fraction, _ = greedy_seed_selection(sets, 3, 3)
        assert seeds == [0]
        assert fraction == 1.0

    def test_empty_sets(self):
        seeds, fraction, ops = greedy_seed_selection([], 5, 2)
        assert seeds == []
        assert fraction == 0.0

    def test_coverage_monotone_in_k(self):
        rng = np.random.default_rng(6)
        sets = self.make_sets([
            list(rng.choice(30, size=4, replace=False)) for _ in range(40)
        ])
        fractions = [
            greedy_seed_selection(sets, 30, k)[1] for k in (1, 2, 4, 8)
        ]
        assert fractions == sorted(fractions)


class TestImmTheta:
    def test_positive(self):
        assert imm_theta(1000, 10) >= 1

    def test_decreases_with_better_lower_bound(self):
        loose = imm_theta(1000, 10, opt_lower_bound=10.0)
        tight = imm_theta(1000, 10, opt_lower_bound=500.0)
        assert tight < loose

    def test_decreases_with_larger_epsilon(self):
        precise = imm_theta(1000, 10, epsilon=0.1)
        loose = imm_theta(1000, 10, epsilon=0.5)
        assert loose < precise

    def test_tiny_graph(self):
        assert imm_theta(1, 1) == 1


class TestRunInfluenceMaximization:
    @pytest.fixture(scope="class")
    def graph(self):
        return make_two_cliques(8)

    def test_ic_end_to_end(self, graph):
        ordering = get_scheme("natural").order(graph)
        report = run_influence_maximization(
            graph, ordering, k=2, probability=0.3,
            num_threads=2, max_samples=200,
        )
        assert report.model == "ic"
        assert 1 <= report.num_samples <= 200
        assert len(report.seeds) <= 2
        assert 0 < report.estimated_spread <= graph.num_vertices
        assert report.sampling_seconds > 0
        assert report.total_seconds >= report.sampling_seconds
        assert report.sampling_throughput > 0

    def test_lt_model(self, graph):
        ordering = get_scheme("natural").order(graph)
        report = run_influence_maximization(
            graph, ordering, k=2, model="lt",
            num_threads=2, max_samples=100,
        )
        assert report.model == "lt"
        assert report.num_samples >= 1

    def test_invalid_model_rejected(self, graph):
        ordering = get_scheme("natural").order(graph)
        with pytest.raises(ValueError, match="model"):
            run_influence_maximization(graph, ordering, model="sir")

    def test_seeds_cover_both_cliques(self, graph):
        """With p high enough, the two best seeds sit in distinct cliques."""
        ordering = get_scheme("natural").order(graph)
        report = run_influence_maximization(
            graph, ordering, k=2, probability=0.4,
            num_threads=2, max_samples=400, seed=3,
        )
        sides = {0 if s < 8 else 1 for s in report.seeds}
        assert sides == {0, 1}

    def test_deterministic_given_seed(self, graph):
        ordering = get_scheme("natural").order(graph)
        a = run_influence_maximization(
            graph, ordering, k=2, max_samples=100, seed=11
        )
        b = run_influence_maximization(
            graph, ordering, k=2, max_samples=100, seed=11
        )
        assert a.seeds == b.seeds
        assert a.estimated_spread == b.estimated_spread


class TestRootDraw:
    """IMM draws each block of cascade roots with one ``integers`` call;
    that must be the scalar loop's draw, value for value."""

    @pytest.mark.parametrize("n", [
        1, 2, 3, 7, 255, 256, 1000, 2**31 - 1, 2**31, 2**32 - 1, 2**32,
        2**32 + 5,
    ])
    @pytest.mark.parametrize("count", [1, 17])
    def test_bulk_draw_matches_scalar_draws(self, n, count):
        bulk_rng = np.random.default_rng(8)
        loop_rng = np.random.default_rng(8)
        bulk = bulk_rng.integers(n, size=count)
        loop = [int(loop_rng.integers(n)) for _ in range(count)]
        assert bulk.tolist() == loop
        assert bulk_rng.bit_generator.state == loop_rng.bit_generator.state

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_runner_roots_follow_the_scalar_stream(
        self, leg, model, monkeypatch
    ):
        """The runner's roots are the dedicated stream's scalar draws,
        mapped through the permutation, on every tier."""
        from repro.apps import batch, influence_max

        seen = []
        sets_of, lt_of = (
            batch.sample_rrr_ic_pinned_sets, influence_max.sample_rrr_lt
        )

        def record_sets(graph, probability, roots, *args, **kwargs):
            seen.extend(np.asarray(roots).tolist())
            return sets_of(graph, probability, roots, *args, **kwargs)

        def record_lt(graph, rng, *, root):
            seen.append(root)
            return lt_of(graph, rng, root=root)

        monkeypatch.setattr(batch, "sample_rrr_ic_pinned_sets", record_sets)
        monkeypatch.setattr(influence_max, "sample_rrr_lt", record_lt)
        graph = make_two_cliques(6)
        ordering = get_scheme("random").order(graph)
        with on_leg(leg):
            report = run_influence_maximization(
                graph, ordering, k=2, model=model, max_samples=90, seed=5,
            )
        stream = np.random.default_rng(5 + 1)
        perm = ordering.permutation
        expected = [
            int(perm[int(stream.integers(graph.num_vertices))])
            for _ in seen
        ]
        assert seen == expected
        assert len(seen) >= report.num_samples
