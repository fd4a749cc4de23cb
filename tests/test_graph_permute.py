"""Unit and property tests for orderings-as-permutations and relabelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import use_engine
from repro.graph import (
    apply_ordering,
    compose_orderings,
    from_edges,
    identity_ordering,
    invert_ordering,
    is_valid_ordering,
    ordering_from_sequence,
    validate_ordering,
)
from repro.measures import average_gap, graph_bandwidth
from tests.conftest import make_two_cliques, random_graph


class TestValidation:
    def test_identity_is_valid(self):
        assert is_valid_ordering(identity_ordering(5))

    def test_duplicate_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 0, 2]))

    def test_out_of_range_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 1, 3]))

    def test_wrong_length_invalid(self):
        assert not is_valid_ordering(np.asarray([0, 1]), num_vertices=3)

    def test_validate_raises(self):
        with pytest.raises(ValueError):
            validate_ordering(np.asarray([1, 1]))


class TestInversionComposition:
    def test_invert_roundtrip(self):
        pi = np.asarray([2, 0, 1, 4, 3])
        inv = invert_ordering(pi)
        assert list(pi[inv]) == [0, 1, 2, 3, 4]

    def test_ordering_from_sequence(self):
        sequence = np.asarray([3, 1, 0, 2])  # vertex 3 gets rank 0...
        pi = ordering_from_sequence(sequence)
        assert pi[3] == 0
        assert pi[1] == 1
        assert pi[0] == 2

    def test_compose(self):
        first = np.asarray([1, 2, 0])
        second = np.asarray([2, 0, 1])
        composed = compose_orderings(first, second)
        assert list(composed) == [0, 1, 2]

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose_orderings(np.asarray([0, 1]), np.asarray([0, 1, 2]))


class TestApplyOrdering:
    def test_identity_is_noop(self, two_cliques):
        g = apply_ordering(two_cliques, identity_ordering(10))
        assert g == two_cliques

    def test_relabel_reverses(self, path7):
        pi = np.asarray([6, 5, 4, 3, 2, 1, 0])
        g = apply_ordering(path7, pi)
        # a reversed path is still a path with the same gap structure
        assert g.num_edges == path7.num_edges
        assert average_gap(g) == average_gap(path7)

    def test_weighted_relabel_preserves_weights(self):
        g = from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 5.0])
        pi = np.asarray([2, 1, 0])
        h = apply_ordering(g, pi)
        assert h.total_weight() == g.total_weight()
        # edge (1,2) w=5 becomes (1,0)
        k = list(h.neighbors(0)).index(1)
        assert h.weights[h.indptr[0] + k] == 5.0


permutations = st.permutations(list(range(12)))


class TestApplyOrderingProperties:
    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_structure_preserved(self, perm):
        g = random_graph(12, 30, seed=3)
        pi = np.asarray(perm)
        h = apply_ordering(g, pi)
        assert h.num_edges == g.num_edges
        assert sorted(h.degrees()) == sorted(g.degrees())
        # every edge maps under pi
        for u, v in g.edges():
            assert h.has_edge(int(pi[u]), int(pi[v]))

    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_gap_measure_matches_relabelled_graph(self, perm):
        """gap(G, pi) computed on G equals gap of the relabelled graph."""
        g = make_two_cliques(6)
        pi = np.concatenate([np.asarray(perm)])
        assert pi.size == g.num_vertices
        relabelled = apply_ordering(g, pi)
        assert average_gap(g, pi) == pytest.approx(average_gap(relabelled))
        assert graph_bandwidth(g, pi) == graph_bandwidth(relabelled)

    @given(perm=permutations)
    @settings(max_examples=40, deadline=None)
    def test_apply_then_inverse_roundtrips(self, perm):
        g = random_graph(12, 25, seed=9)
        pi = np.asarray(perm)
        h = apply_ordering(apply_ordering(g, pi), invert_ordering(pi))
        assert h == g


@st.composite
def relabel_cases(draw):
    """(n, edges, weights, pi): tiny graphs, and graphs past the
    engine's small-work cut-off so the native and vector sorts run."""
    n = draw(st.integers(0, 40) | st.integers(2000, 5000))
    m = draw(st.integers(0, 3 * n) | st.integers(9000, 12000)) if n else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = rng.integers(0, max(n, 1), size=(m, 2))
    weights = rng.standard_normal(m) if draw(st.booleans()) else None
    return n, edges, weights, rng.permutation(n)


class TestApplyOrderingEngines:
    @pytest.mark.parametrize("engine", ["native", "vector", "scalar"])
    @given(case=relabel_cases())
    @settings(max_examples=25, deadline=None)
    def test_matches_rebuilt_oracle(self, engine, case):
        """Relabelling equals building the relabelled edge list afresh
        (isolated vertices, n = 0 and duplicate edges included)."""
        n, edges, weights, pi = case
        g = from_edges(n, edges, weights)
        oracle = from_edges(n, pi[edges], weights)
        with use_engine(engine):
            h = apply_ordering(g, pi)
        assert np.array_equal(h.indptr, oracle.indptr)
        assert np.array_equal(h.indices, oracle.indices)
        if weights is None:
            assert h.weights is None
        else:
            assert np.array_equal(h.weights, oracle.weights)
