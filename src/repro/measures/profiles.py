"""Performance profiles (Dolan–Moré), the plot type of Figures 1, 4–7.

A performance profile compares a set of schemes across a set of problem
instances.  For scheme ``s`` and instance ``p`` with score ``t(s, p)``
(lower is better), the *performance ratio* is::

    r(s, p) = t(s, p) / min_s' t(s', p)

and the profile of scheme ``s`` is the cumulative distribution::

    rho_s(tau) = |{p : r(s, p) <= tau}| / |P|

i.e. the fraction of instances on which ``s`` is within a factor ``tau`` of
the best scheme.  A curve hugging the Y-axis (``tau = 1``) dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerformanceProfile",
    "performance_profile",
    "profile_dominance_score",
]


@dataclass(frozen=True)
class PerformanceProfile:
    """The computed profile for a set of schemes over shared instances."""

    schemes: tuple[str, ...]
    instances: tuple[str, ...]
    #: ratios[i][j] = performance ratio of scheme i on instance j
    ratios: np.ndarray

    def rho(self, scheme: str, tau: float) -> float:
        """Fraction of instances where ``scheme`` is within factor ``tau``."""
        idx = self.schemes.index(scheme)
        row = self.ratios[idx]
        return float(np.count_nonzero(row <= tau) / row.size)

    def curve(
        self, scheme: str, taus: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(tau, rho) points for plotting/tabulating one scheme's curve."""
        idx = self.schemes.index(scheme)
        row = np.sort(self.ratios[idx])
        if taus is None:
            taus = np.unique(np.concatenate(([1.0], row)))
        rho = np.searchsorted(row, taus, side="right") / row.size
        return taus, rho

    def best_scheme_counts(self) -> dict[str, int]:
        """How many instances each scheme wins (ratio == 1, ties shared)."""
        wins = {s: 0 for s in self.schemes}
        for j in range(self.ratios.shape[1]):
            col = self.ratios[:, j]
            for i, s in enumerate(self.schemes):
                if np.isclose(col[i], 1.0):
                    wins[s] += 1
        return wins

    def area_under_curve(self, scheme: str, tau_max: float = 16.0) -> float:
        """Area under the profile curve up to ``tau_max`` (higher = better).

        A scalar ranking of schemes that matches the visual "closest to the
        Y-axis" reading of the paper's figures.
        """
        idx = self.schemes.index(scheme)
        row = np.sort(np.minimum(self.ratios[idx], tau_max))
        # Step function: rho jumps at each ratio value.
        area = 0.0
        prev_tau = 1.0
        for k, tau in enumerate(row):
            if tau > prev_tau:
                rho_before = k / row.size
                area += rho_before * (tau - prev_tau)
                prev_tau = tau
        area += 1.0 * (tau_max - prev_tau)
        return area / (tau_max - 1.0) if tau_max > 1.0 else 1.0


def performance_profile(
    scores: dict[str, dict[str, float]],
    *,
    epsilon: float = 1e-12,
) -> PerformanceProfile:
    """Build a profile from ``scores[scheme][instance]`` (lower is better).

    Every scheme must report a score for every instance.  Zero best scores
    are lifted by ``epsilon`` so the ratios stay finite (matters for
    bandwidth measures on tiny graphs where the best scheme achieves the
    trivial lower bound).  A non-finite score (a degraded cell renders as
    NaN) is a failure in Dolan–Moré's sense: the best is taken over the
    finite scores only and the failed scheme's ratio is ``inf``.
    """
    schemes = tuple(scores.keys())
    if not schemes:
        raise ValueError("scores must contain at least one scheme")
    instances = tuple(scores[schemes[0]].keys())
    if not instances:
        raise ValueError("scores must contain at least one instance")
    for s in schemes:
        missing = set(instances) - set(scores[s].keys())
        if missing:
            raise ValueError(f"scheme {s!r} missing instances: {missing}")
    ratios = np.zeros((len(schemes), len(instances)), dtype=np.float64)
    for j, inst in enumerate(instances):
        column = np.asarray([scores[s][inst] for s in schemes], dtype=float)
        if np.any(column < 0):
            raise ValueError("scores must be non-negative")
        finite = np.isfinite(column)
        best = column[finite].min() if finite.any() else 0.0
        denom = best if best > 0 else epsilon
        ratios[:, j] = np.where(
            finite, np.maximum(column, epsilon) / denom, np.inf
        )
    return PerformanceProfile(schemes, instances, ratios)


def profile_dominance_score(
    profile: PerformanceProfile, tau_max: float = 16.0
) -> dict[str, float]:
    """Area-under-curve ranking of every scheme in the profile."""
    return {
        s: profile.area_under_curve(s, tau_max) for s in profile.schemes
    }
