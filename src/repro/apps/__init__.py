"""The two application studies: community detection and influence max."""

from .batch import (
    greedy_seed_selection_vector,
    sample_rrr_ic_pinned_batch,
    sample_rrr_ic_pinned_sets,
)
from .delta_stepping import delta_stepping
from .community_detection import (
    CLOCK_HZ,
    CommunityDetectionReport,
    build_sweep_items,
    build_sweep_trace,
    run_community_detection,
)
from .kernels import (
    KERNELS,
    betweenness_kernel,
    KernelReport,
    bfs_kernel,
    connected_components_kernel,
    pagerank_kernel,
    pagerank_push_kernel,
    run_kernel_study,
    sssp_kernel,
    triangle_count_kernel,
)
from .influence_max import (
    InfluenceMaxReport,
    RRRSet,
    RRRSets,
    greedy_seed_selection,
    imm_theta,
    run_influence_maximization,
    sample_rrr_ic,
    sample_rrr_ic_pinned,
    sample_rrr_lt,
)

__all__ = [
    "CLOCK_HZ",
    "CommunityDetectionReport",
    "run_community_detection",
    "build_sweep_items",
    "build_sweep_trace",
    "RRRSet",
    "RRRSets",
    "sample_rrr_ic",
    "sample_rrr_ic_pinned",
    "sample_rrr_ic_pinned_batch",
    "sample_rrr_ic_pinned_sets",
    "sample_rrr_lt",
    "greedy_seed_selection",
    "greedy_seed_selection_vector",
    "imm_theta",
    "InfluenceMaxReport",
    "run_influence_maximization",
    "KERNELS",
    "KernelReport",
    "pagerank_kernel",
    "pagerank_push_kernel",
    "sssp_kernel",
    "bfs_kernel",
    "connected_components_kernel",
    "triangle_count_kernel",
    "betweenness_kernel",
    "run_kernel_study",
    "delta_stepping",
]
