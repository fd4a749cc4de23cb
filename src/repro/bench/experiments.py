"""One entry point per paper table/figure (the per-experiment index).

Every function regenerates the data behind one artifact of the paper's
evaluation and returns an :class:`ExperimentResult` whose ``text`` is the
printable reproduction (rows/series in the paper's shape).  The benchmark
suite under ``benchmarks/`` wraps these functions with pytest-benchmark;
``python -m repro.bench`` runs them from the command line.

=========  =====================================================
function   paper artifact
=========  =====================================================
table1     Table I (input summary statistics)
fig1       Figure 1 (overview profile, average gap)
fig4       Figure 4 (reordering cost profile)
fig5       Figure 5 (average gap profile, all schemes)
fig6a/b    Figure 6 (bandwidth / average bandwidth profiles)
fig7       Figure 7 (METIS partition-count sweep)
fig8       Figure 8 (gap distributions + divergence factors)
fig9       Figure 9 (community detection heat maps)
fig10      Figure 10 (community detection memory counters)
fig11      Figure 11 (influence maximization time/throughput)
fig12      Figure 12 (influence maximization memory counters)
=========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..apps.community_detection import (
    CommunityDetectionReport,
    run_community_detection,
)
from ..apps.influence_max import InfluenceMaxReport, run_influence_maximization
from ..datasets.registry import large_set, load, small_set, spec
from ..graph.properties import degree_statistics
from ..measures.distribution import (
    distribution_divergence_factor,
    gap_distribution,
)
from ..measures.gaps import average_gap, gap_measures
from ..measures.profiles import (
    PerformanceProfile,
    performance_profile,
    profile_dominance_score,
)
from ..ordering import PAPER_SCHEMES, MetisOrder
from ..ordering.store import cached_order
from .cells import cached_cell
from .pool import map_cells
from .report import format_profile, format_table
from .runners import (
    collect_costs,
    collect_scores,
    ordering_for,
    warm_orderings,
)

__all__ = [
    "ExperimentResult",
    "table1",
    "fig1",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ALL_EXPERIMENTS",
    "FIG9_SCHEMES",
    "FIG11_SCHEMES",
]

#: the four orderings of the application study (Figures 9, 10).
FIG9_SCHEMES = ("grappolo", "rcm", "natural", "degree_sort")

#: the orderings shown in the influence-maximization figures (11, 12).
FIG11_SCHEMES = (
    "grappolo", "rcm", "natural", "degree_sort", "metis", "rabbit",
)


@dataclass
class ExperimentResult:
    """The rendered reproduction of one table/figure plus raw data."""

    experiment_id: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"

    def save(self, directory) -> tuple[str, str]:
        """Persist the rendered text and a JSON view of the raw data.

        Writes ``<id>.txt`` and ``<id>.json`` under ``directory``
        (created if needed).  Values that are not JSON-native (dataclass
        reports, numpy scalars/arrays) are serialised through a best
        effort fallback, so the JSON is for downstream analysis, not for
        loss-free round-tripping.  Returns the two paths.
        """
        import json
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        text_path = directory / f"{self.experiment_id}.txt"
        json_path = directory / f"{self.experiment_id}.json"
        text_path.write_text(
            f"{self.title}\n\n{self.text}\n", encoding="utf-8"
        )

        def fallback(obj):
            if hasattr(obj, "tolist"):
                return obj.tolist()
            if hasattr(obj, "__dataclass_fields__"):
                import dataclasses

                return dataclasses.asdict(obj)
            if hasattr(obj, "item"):
                return obj.item()
            return str(obj)

        json_path.write_text(
            json.dumps(
                {
                    "experiment_id": self.experiment_id,
                    "title": self.title,
                    "data": self.data,
                },
                default=fallback,
                indent=1,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        return str(text_path), str(json_path)


def _samples_budget(
    dataset: str,
    probability: float,
    *,
    edge_budget: float = 6e5,
    ceiling: int = 1500,
) -> int:
    """Per-dataset RRR sample cap keeping total traversal work bounded.

    Ripples draws tens of thousands of samples on a 224-core server; the
    pure-Python replay keeps the *steady-state* sampling behaviour by
    capping the sample count so total edge examinations stay near
    ``edge_budget``.  A 20-sample pilot estimates the per-sample cost.
    """
    from ..apps.influence_max import sample_rrr_ic

    graph = load(dataset)
    rng = np.random.default_rng(99)
    pilot_cost = 0
    pilot_n = 20
    for _ in range(pilot_n):
        pilot_cost += sample_rrr_ic(graph, probability, rng).edges_examined
    mean_cost = max(1.0, pilot_cost / pilot_n)
    return int(np.clip(edge_budget / mean_cost, 100, ceiling))


def _cd_cell(cell: tuple[str, str, int]) -> CommunityDetectionReport:
    """Pool worker: one (dataset, scheme) community-detection cell.

    Served from the cell store when a run (or an earlier figure of this
    run — Figure 10 re-reads Figure 9's cells) already computed it.
    """
    dataset, scheme, threads = cell
    graph = load(dataset)
    ordering = ordering_for(scheme, dataset)
    return cached_cell(
        "community_detection", graph, ordering,
        {"scheme": ordering.scheme, "num_threads": threads},
        lambda: run_community_detection(
            graph, ordering, num_threads=threads
        ),
    )


def _im_cell(
    cell: tuple[str, str, int, float, int, int]
) -> InfluenceMaxReport:
    """Pool worker: one (dataset, scheme) influence-maximization cell.

    Cell-store backed like :func:`_cd_cell` (Figure 12 re-reads Figure
    11's cells for the same input).
    """
    dataset, scheme, threads, probability, k, budget = cell
    graph = load(dataset)
    ordering = ordering_for(scheme, dataset)
    return cached_cell(
        "influence_maximization", graph, ordering,
        {
            "scheme": ordering.scheme, "num_threads": threads,
            "probability": probability, "k": k, "max_samples": budget,
        },
        lambda: run_influence_maximization(
            graph, ordering,
            k=k, probability=probability,
            num_threads=threads, max_samples=budget,
        ),
    )


def _metis_cell(cell: tuple[int, str]) -> float:
    """Pool worker: one (partition count, dataset) METIS-sweep cell."""
    num_parts, dataset = cell
    graph = load(dataset)
    ordering = cached_order(graph, MetisOrder(num_parts=num_parts))
    return max(average_gap(graph, ordering.permutation), 1e-9)


def _threads_for(dataset: str) -> int:
    """Thread count per input, scaled from the paper's 2/16/32 rule."""
    graph = load(dataset)
    work = graph.num_vertices + graph.num_edges
    if work < 15_000:
        return 2
    if work < 30_000:
        return 4
    return 8


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def table1(datasets: Sequence[str] | None = None) -> ExperimentResult:
    """Table I: vertex/edge counts, max degree, degree std (all 34)."""
    headers = [
        "input", "set", "family",
        "n", "m", "maxdeg", "stddeg",
        "paper_n", "paper_m", "paper_maxdeg", "paper_stddeg",
    ]
    rows: list[list[object]] = []
    data: dict[str, dict[str, float]] = {}
    names = (
        list(datasets) if datasets is not None
        else small_set() + large_set()
    )
    for name in names:
        s = spec(name)
        stats = degree_statistics(load(name))
        rows.append([
            name, s.set_name, s.family,
            stats.num_vertices, stats.num_edges,
            stats.max_degree, round(stats.std_degree, 3),
            s.paper_vertices, s.paper_edges,
            s.paper_max_degree, s.paper_degree_std,
        ])
        data[name] = {
            "n": stats.num_vertices,
            "m": stats.num_edges,
            "max_degree": stats.max_degree,
            "std_degree": stats.std_degree,
        }
    text = format_table(headers, rows, title="Table I (surrogates vs paper)")
    return ExperimentResult("table1", "Input summary statistics", text, data)


# ---------------------------------------------------------------------------
# Profile figures (1, 4, 5, 6a, 6b, 7)
# ---------------------------------------------------------------------------
def _profile_experiment(
    experiment_id: str,
    title: str,
    schemes: Sequence[str],
    datasets: Sequence[str],
    metric_name: str,
) -> tuple[ExperimentResult, PerformanceProfile]:
    scores = collect_scores(
        schemes, datasets, lambda m: m.as_dict()[metric_name]
    )
    profile = performance_profile(scores)
    text = format_profile(profile, title=title)
    result = ExperimentResult(
        experiment_id,
        title,
        text,
        data={
            "scores": scores,
            # tau_max matches the rendered table's tau grid
            "auc": profile_dominance_score(profile, tau_max=40.0),
        },
    )
    return result, profile


def fig1(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 1: overview profile of the average gap, sampled schemes."""
    if schemes is None:
        schemes = (
            "grappolo", "gorder", "rcm", "degree_sort", "natural",
            "random",
        )
    result, _ = _profile_experiment(
        "fig1",
        "Average-gap performance profile (overview)",
        schemes,
        list(datasets) if datasets is not None else small_set(),
        "avg_gap",
    )
    return result


def fig4(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 4: reordering-cost profile (RCM, Degree, Grappolo, METIS)."""
    if schemes is None:
        schemes = ("rcm", "degree_sort", "grappolo", "metis")
    costs = collect_costs(
        schemes, list(datasets) if datasets is not None else large_set()
    )
    profile = performance_profile(costs)
    text = format_profile(
        profile, title="Reordering cost profile (operation counts)"
    )
    return ExperimentResult(
        "fig4",
        "Reordering compute-cost profile",
        text,
        data={
            "costs": costs,
            "auc": profile_dominance_score(profile, tau_max=40.0),
        },
    )


def fig5(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 5: average-gap profile, all 11 paper schemes, 25 inputs."""
    result, _ = _profile_experiment(
        "fig5",
        "Average gap profile (all schemes)",
        schemes if schemes is not None else PAPER_SCHEMES,
        list(datasets) if datasets is not None else small_set(),
        "avg_gap",
    )
    return result


def fig6a(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 6a: graph bandwidth profile (RCM expected to dominate)."""
    result, _ = _profile_experiment(
        "fig6a",
        "Graph bandwidth profile",
        schemes if schemes is not None else PAPER_SCHEMES,
        list(datasets) if datasets is not None else small_set(),
        "bandwidth",
    )
    return result


def fig6b(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 6b: average-bandwidth profile (no clear winner expected)."""
    result, _ = _profile_experiment(
        "fig6b",
        "Average graph bandwidth profile",
        schemes if schemes is not None else PAPER_SCHEMES,
        list(datasets) if datasets is not None else small_set(),
        "avg_bandwidth",
    )
    return result


def fig7(
    partition_counts: Sequence[int] = (2, 8, 16, 32, 64, 128, 256),
    datasets: Sequence[str] | None = None,
) -> ExperimentResult:
    """Figure 7: METIS partition-count sweep on the average gap."""
    names = list(datasets) if datasets is not None else list(small_set())
    cells = [(k, ds) for k in partition_counts for ds in names]
    values = map_cells(_metis_cell, cells)
    scores: dict[str, dict[str, float]] = {
        f"metis_{k}": {} for k in partition_counts
    }
    for (k, ds), value in zip(cells, values):
        scores[f"metis_{k}"][ds] = value
    profile = performance_profile(scores)
    auc = profile_dominance_score(profile, tau_max=40.0)
    best = max(auc, key=auc.get)
    text = format_profile(
        profile, title="METIS partition-count sweep (average gap)"
    )
    text += f"\nbest configuration: {best}"
    return ExperimentResult(
        "fig7",
        "METIS partition-count sweep",
        text,
        data={"scores": scores, "auc": auc, "best": best},
    )


# ---------------------------------------------------------------------------
# Figure 8: gap distributions
# ---------------------------------------------------------------------------
FIG8_INPUTS = ("chicago_road", "fe_4elt2", "vsp")


def fig8(datasets: Sequence[str] = FIG8_INPUTS) -> ExperimentResult:
    """Figure 8: gap-distribution summaries and best/worst factors."""
    headers = [
        "input", "scheme", "mean", "p25", "median", "p75", "p95", "max",
    ]
    rows: list[list[object]] = []
    data: dict[str, dict] = {}
    warm_orderings(
        (scheme, ds) for ds in datasets for scheme in PAPER_SCHEMES
    )
    for ds in datasets:
        graph = load(ds)
        per_scheme: dict[str, float] = {}
        dists = {}
        for scheme in PAPER_SCHEMES:
            ordering = ordering_for(scheme, ds)
            dist = gap_distribution(graph, ordering.permutation)
            dists[scheme] = dist
            per_scheme[scheme] = dist.mean
            rows.append([
                ds, scheme, round(dist.mean, 2),
                dist.quantiles[1], dist.median,
                dist.quantiles[3], dist.quantiles[4], dist.maximum,
            ])
        factor = distribution_divergence_factor(per_scheme)
        data[ds] = {
            "avg_gap_by_scheme": per_scheme,
            "divergence_factor": factor,
            "distributions": dists,
        }
    text = format_table(
        headers, rows, title="Gap distributions (violin-plot summaries)"
    )
    factors = ", ".join(
        f"{ds}: {data[ds]['divergence_factor']:.1f}x" for ds in datasets
    )
    text += f"\nbest-vs-worst average-gap factors: {factors}"
    # ASCII violins for the best and worst scheme per input — the shape
    # contrast the paper reads off Figure 8.
    from ..measures.distribution import ascii_violin

    for ds in datasets:
        by_scheme = data[ds]["avg_gap_by_scheme"]
        best = min(by_scheme, key=by_scheme.get)
        worst = max(by_scheme, key=by_scheme.get)
        text += f"\n\n{ds}:"
        for scheme in (best, worst):
            text += "\n" + ascii_violin(
                data[ds]["distributions"][scheme],
                label=f"  {scheme} (avg gap {by_scheme[scheme]:.1f})",
            )
    return ExperimentResult(
        "fig8", "Gap distribution characterisation", text, data
    )


# ---------------------------------------------------------------------------
# Figures 9 & 10: community detection
# ---------------------------------------------------------------------------
def fig9(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] = FIG9_SCHEMES,
    *,
    num_threads: int | None = None,
) -> ExperimentResult:
    """Figure 9: ordering impact on Grappolo performance and quality."""
    names = list(datasets) if datasets is not None else list(large_set())
    headers = [
        "graph", "scheme", "phase_ms", "iter_ms", "iters",
        "modularity", "work%", "work/edge",
    ]
    rows: list[list[object]] = []
    reports: dict[str, dict[str, CommunityDetectionReport]] = {}
    warm_orderings((scheme, ds) for ds in names for scheme in schemes)
    cells = [
        (
            ds,
            scheme,
            num_threads if num_threads is not None else _threads_for(ds),
        )
        for ds in names
        for scheme in schemes
    ]
    for (ds, scheme, _), report in zip(cells, map_cells(_cd_cell, cells)):
        reports.setdefault(ds, {})[scheme] = report
        rows.append([
            ds, scheme,
            round(report.phase_seconds * 1e3, 3),
            round(report.iteration_seconds * 1e3, 3),
            report.iteration_count,
            round(report.modularity, 3),
            round(report.work_fraction * 100.0, 1),
            round(report.work_per_edge, 2),
        ])
    text = format_table(
        headers, rows,
        title="Community detection: ordering impact (first phase)",
    )
    return ExperimentResult(
        "fig9",
        "Community detection performance heat maps",
        text,
        data={"reports": reports},
    )


def fig10(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] = FIG9_SCHEMES,
) -> ExperimentResult:
    """Figure 10: memory counters for the largest graphs."""
    names = (
        list(datasets) if datasets is not None else list(large_set())[-5:]
    )
    headers = ["graph", "scheme", "latency", "L1%", "L2%", "L3%", "DRAM%"]
    rows: list[list[object]] = []
    reports: dict[str, dict[str, CommunityDetectionReport]] = {}
    warm_orderings((scheme, ds) for ds in names for scheme in schemes)
    cells = [
        (ds, scheme, _threads_for(ds))
        for ds in names
        for scheme in schemes
    ]
    for (ds, scheme, _), report in zip(cells, map_cells(_cd_cell, cells)):
        reports.setdefault(ds, {})[scheme] = report
        c = report.counters
        rows.append([
            ds, scheme, round(c.average_latency, 1),
            round(c.l1_bound * 100, 1), round(c.l2_bound * 100, 1),
            round(c.l3_bound * 100, 1), round(c.dram_bound * 100, 1),
        ])
    text = format_table(
        headers, rows,
        title="Community detection: memory hierarchy counters",
    )
    return ExperimentResult(
        "fig10",
        "Community detection memory metrics",
        text,
        data={"reports": reports},
    )


# ---------------------------------------------------------------------------
# Figures 11 & 12: influence maximization
# ---------------------------------------------------------------------------
def fig11(
    datasets: Sequence[str] | None = None,
    schemes: Sequence[str] = FIG11_SCHEMES,
    *,
    probability: float = 0.25,
    k: int = 16,
    max_samples: int = 1500,
) -> ExperimentResult:
    """Figure 11: Ripples total time + sampling throughput, IC model."""
    names = list(datasets) if datasets is not None else list(large_set())
    headers = [
        "graph", "scheme", "total_ms", "throughput_k/s",
        "samples", "spread",
    ]
    rows: list[list[object]] = []
    reports: dict[str, dict[str, InfluenceMaxReport]] = {}
    warm_orderings((scheme, ds) for ds in names for scheme in schemes)
    budgets = {
        ds: min(max_samples, _samples_budget(ds, probability))
        for ds in names
    }
    cells = [
        (ds, scheme, _threads_for(ds), probability, k, budgets[ds])
        for ds in names
        for scheme in schemes
    ]
    for cell, report in zip(cells, map_cells(_im_cell, cells)):
        ds, scheme = cell[0], cell[1]
        reports.setdefault(ds, {})[scheme] = report
        rows.append([
            ds, scheme,
            round(report.total_seconds * 1e3, 3),
            round(report.sampling_throughput / 1e3, 1),
            report.num_samples,
            round(report.estimated_spread, 1),
        ])
    text = format_table(
        headers, rows,
        title=(
            "Influence maximization (IC, p="
            f"{probability}): time & sampling throughput"
        ),
    )
    return ExperimentResult(
        "fig11",
        "Influence maximization performance",
        text,
        data={"reports": reports},
    )


def fig12(
    dataset: str = "skitter",
    schemes: Sequence[str] = FIG11_SCHEMES,
    *,
    probability: float = 0.25,
    max_samples: int = 1500,
) -> ExperimentResult:
    """Figure 12: memory counters for the sampling hot-spot (skitter)."""
    threads = _threads_for(dataset)
    budget = min(max_samples, _samples_budget(dataset, probability))
    headers = ["scheme", "latency", "L1%", "L2%", "L3%", "DRAM%"]
    rows: list[list[object]] = []
    reports: dict[str, InfluenceMaxReport] = {}
    warm_orderings((scheme, dataset) for scheme in schemes)
    cells = [
        (dataset, scheme, threads, probability, 16, budget)
        for scheme in schemes
    ]
    for cell, report in zip(cells, map_cells(_im_cell, cells)):
        scheme = cell[1]
        reports[scheme] = report
        c = report.counters
        rows.append([
            scheme, round(c.average_latency, 1),
            round(c.l1_bound * 100, 1), round(c.l2_bound * 100, 1),
            round(c.l3_bound * 100, 1), round(c.dram_bound * 100, 1),
        ])
    text = format_table(
        headers, rows,
        title=f"IM sampling hot-spot memory counters ({dataset})",
    )
    return ExperimentResult(
        "fig12",
        "Influence maximization memory metrics",
        text,
        data={"reports": reports},
    )


#: registry used by the CLI and smoke tests.
ALL_EXPERIMENTS = {
    "table1": table1,
    "fig1": fig1,
    "fig4": fig4,
    "fig5": fig5,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
}
