"""Unit tests for performance profiles (Figures 1, 4-7 machinery)."""

import numpy as np
import pytest

from repro.measures import performance_profile, profile_dominance_score


@pytest.fixture
def simple_scores():
    """Two schemes, three instances, hand-checkable ratios."""
    return {
        "fast": {"a": 1.0, "b": 2.0, "c": 10.0},
        "slow": {"a": 2.0, "b": 2.0, "c": 5.0},
    }


class TestProfileConstruction:
    def test_ratios(self, simple_scores):
        p = performance_profile(simple_scores)
        i_fast = p.schemes.index("fast")
        i_slow = p.schemes.index("slow")
        j_a = p.instances.index("a")
        j_c = p.instances.index("c")
        assert p.ratios[i_fast][j_a] == 1.0
        assert p.ratios[i_slow][j_a] == 2.0
        assert p.ratios[i_fast][j_c] == 2.0
        assert p.ratios[i_slow][j_c] == 1.0

    def test_rho_values(self, simple_scores):
        p = performance_profile(simple_scores)
        assert p.rho("fast", 1.0) == pytest.approx(2 / 3)
        assert p.rho("fast", 2.0) == pytest.approx(1.0)
        assert p.rho("slow", 1.0) == pytest.approx(2 / 3)

    def test_curve_monotone(self, simple_scores):
        p = performance_profile(simple_scores)
        taus, rho = p.curve("fast")
        assert (np.diff(rho) >= 0).all()
        assert rho[-1] == 1.0

    def test_best_scheme_counts(self, simple_scores):
        p = performance_profile(simple_scores)
        wins = p.best_scheme_counts()
        assert wins["fast"] == 2
        assert wins["slow"] == 2  # ties on 'b' count for both

    def test_missing_instance_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            performance_profile({"a": {"x": 1.0}, "b": {}})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            performance_profile({})
        with pytest.raises(ValueError):
            performance_profile({"a": {}})

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            performance_profile({"a": {"x": -1.0}})

    def test_zero_best_handled(self):
        p = performance_profile({"a": {"x": 0.0}, "b": {"x": 1.0}})
        assert p.rho("a", 1.0) == 1.0

    def test_degraded_cell_counts_as_failure(self):
        """A NaN score (degraded cell) fails its instance (Dolan–Moré):
        it neither becomes the column's best nor inflates the others."""
        p = performance_profile({
            "a": {"x": 1.0, "y": 2.0},
            "b": {"x": float("nan"), "y": 1.0},
            "c": {"x": 3.0, "y": 4.0},
        })
        j_x = p.instances.index("x")
        assert p.ratios[p.schemes.index("a")][j_x] == 1.0
        assert p.ratios[p.schemes.index("b")][j_x] == np.inf
        assert p.ratios[p.schemes.index("c")][j_x] == 3.0
        auc = profile_dominance_score(p)
        assert auc["b"] == pytest.approx(0.5)  # wins y, fails x
        assert auc["a"] > auc["b"]
        assert p.rho("b", 1e9) == 0.5


class TestDominance:
    def test_dominant_scheme_has_max_auc(self):
        scores = {
            "best": {f"i{k}": 1.0 for k in range(5)},
            "worst": {f"i{k}": 10.0 for k in range(5)},
        }
        auc = profile_dominance_score(performance_profile(scores))
        assert auc["best"] > auc["worst"]
        assert auc["best"] == pytest.approx(1.0)

    def test_auc_bounded(self, simple_scores):
        auc = profile_dominance_score(performance_profile(simple_scores))
        for v in auc.values():
            assert 0.0 <= v <= 1.0
