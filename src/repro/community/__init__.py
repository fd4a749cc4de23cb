"""Community detection: Louvain (Grappolo substitute), modularity, hierarchy."""

from .coloring import color_classes, greedy_coloring, is_valid_coloring
from .hierarchy import CommunityHierarchy, build_hierarchy
from .louvain import (
    IterationStats,
    LouvainResult,
    PhaseStats,
    louvain,
    louvain_one_phase,
)
from .modularity import (
    community_degrees,
    community_internal_weights,
    modularity,
    weighted_degrees,
)

__all__ = [
    "modularity",
    "community_internal_weights",
    "community_degrees",
    "weighted_degrees",
    "IterationStats",
    "PhaseStats",
    "LouvainResult",
    "louvain",
    "louvain_one_phase",
    "CommunityHierarchy",
    "build_hierarchy",
    "greedy_coloring",
    "is_valid_coloring",
    "color_classes",
]
