"""Command-line experiment runner: ``python -m repro.bench [ids...]``.

With no ids every paper artifact runs in order.  Experiment ids match the
paper's artifact names (``table1 fig1 fig4 fig5 fig6a fig6b fig7 fig8
fig9 fig10 fig11 fig12``) plus the ``ablation_*`` and ``ext_*`` studies.
``--output DIR`` additionally saves each result as ``<id>.txt`` and
``<id>.json``.

Resilient execution (:mod:`repro.resilience`):

* resuming is re-running: every ordering, graph and application cell
  lands in a content-addressed store under ``$REPRO_CACHE_DIR``, so the
  same command after a kill serves the finished cells as store hits;
* ``--timeout S`` / ``--retries K`` bound each cell's attempts; a cell
  that exhausts them degrades (NaN in the grid) instead of aborting,
  gets one ``[degraded] <scheme>/<dataset>: <error> (after N
  attempts)`` line on stderr, and makes the run exit 1;
* ``--health`` prints the degradation health report after the run —
  one counter per fallback site: native kernels disabled after a build
  or runtime fault (their vector/scalar twins ran instead) and
  resource-pressure fallbacks (:mod:`repro.resilience.degrade`).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from ..resilience import degrade
from .ablations import ABLATIONS
from .experiments import ALL_EXPERIMENTS
from .extensions import EXTENSIONS
from .pool import set_default_jobs, set_default_retries, set_default_timeout
from .runners import degraded_cells


def _call_restricted(func, datasets, schemes):
    """Invoke an experiment, restricting its inputs where supported.

    Experiments expose either a ``datasets`` sequence or a single
    ``dataset`` parameter, and optionally a ``schemes`` sequence; a
    filter the experiment does not accept is simply not applied
    (fixed-input studies run unrestricted).
    """
    kwargs = {}
    params = inspect.signature(func).parameters
    if datasets is not None:
        if "datasets" in params:
            kwargs["datasets"] = list(datasets)
        elif "dataset" in params:
            kwargs["dataset"] = datasets[0]
    if schemes is not None and "schemes" in params:
        kwargs["schemes"] = list(schemes)
    return func(**kwargs)


def _run_experiments(args, registry, ids, datasets, schemes):
    """Execute each experiment, printing its reproduction."""
    for experiment_id in ids:
        start = time.perf_counter()
        result = _call_restricted(registry[experiment_id], datasets, schemes)
        elapsed = time.perf_counter() - start
        print(f"== {result.experiment_id}: {result.title} "
              f"({elapsed:.1f}s) ==")
        print(result.text)
        if args.output:
            text_path, json_path = result.save(args.output)
            print(f"[saved {text_path}, {json_path}]")
        print()


def main(argv: list[str] | None = None) -> int:
    """Run the requested experiments, printing each reproduction."""
    registry = {**ALL_EXPERIMENTS, **ABLATIONS, **EXTENSIONS}
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "ids", nargs="*", metavar="EXPERIMENT",
        help=f"experiment ids (default: all paper artifacts); "
             f"available: {', '.join(registry)}",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="also save each result as <id>.txt and <id>.json here",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan independent experiment cells out over N processes",
    )
    parser.add_argument(
        "--datasets", metavar="NAMES", default=None,
        help="comma-separated dataset subset (smoke runs) for "
             "experiments that accept one",
    )
    parser.add_argument(
        "--schemes", metavar="NAMES", default=None,
        help="comma-separated ordering-scheme subset for experiments "
             "that accept one",
    )
    parser.add_argument(
        "--native-info", action="store_true",
        help="print the native-kernel build report (compiler, cache "
             "hit, fallback reason per kernel) and exit",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="print the degradation health report (disabled native "
             "kernels, fallback counters) after the run",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell deadline in seconds (supervised runs; a cell "
             "past it is killed and retried)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="K",
        help="retries per failing cell before it degrades (default: 2)",
    )
    args = parser.parse_args(argv)
    if args.native_info:
        from .._native import build_info_all
        from .perf import native_summary
        for line in native_summary():
            print(line)
        print(json.dumps(build_info_all(), indent=2))
        if args.health:
            # after build_info_all: attempting every build is what
            # records the build failures the health report describes
            print(degrade.format_health())
        return 0
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be >= 0")
    set_default_jobs(args.jobs)
    set_default_timeout(args.timeout)
    if args.retries is not None:
        set_default_retries(args.retries)
    datasets = (
        [d for d in args.datasets.split(",") if d]
        if args.datasets else None
    )
    schemes = (
        [s for s in args.schemes.split(",") if s]
        if args.schemes else None
    )

    ids = args.ids or list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in registry]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {list(registry)}", file=sys.stderr)
        return 2

    _run_experiments(args, registry, ids, datasets, schemes)
    if args.health:
        print(degrade.format_health())
    degraded = degraded_cells()
    for (scheme, dataset), (error, attempts) in degraded.items():
        print(f"[degraded] {scheme}/{dataset}: {error} "
              f"(after {attempts} attempts)", file=sys.stderr)
    return 1 if degraded else 0


if __name__ == "__main__":
    raise SystemExit(main())
