"""Command-line experiment runner: ``python -m repro.bench [ids...]``.

With no ids every paper artifact runs in order.  Experiment ids match the
paper's artifact names (``table1 fig1 fig4 fig5 fig6a fig6b fig7 fig8
fig9 fig10 fig11 fig12``) plus the ``ablation_*`` and ``ext_*`` studies.
``--output DIR`` additionally saves each result as ``<id>.txt`` and
``<id>.json``.

Resilient execution (:mod:`repro.resilience`):

* ``--run-id ID`` journals every cell to
  ``$REPRO_CACHE_DIR/runs/ID/journal.jsonl`` and prints a completeness
  report at the end;
* ``--resume ID`` replays the journal of an interrupted run — completed
  cells (and whole experiments) are served from the journal, only the
  missing ones execute, and the original experiment selection is
  restored from the run's meta record;
* ``--timeout S`` / ``--retries K`` bound each cell's attempts; a cell
  that exhausts them degrades (NaN in the grid) instead of aborting;
* ``--health`` prints the degradation health report after the run —
  one counter per fallback site: native kernels disabled after a build
  or runtime fault (their vector/scalar twins ran instead) and
  resource-pressure fallbacks (:mod:`repro.resilience.degrade`);
  journaled runs always persist the same report as a
  ``{"type": "health"}`` journal record.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time

from ..resilience import degrade
from ..resilience.faults import RunAborted
from ..resilience.journal import RunJournal, cell_key, using_run
from ..resilience.reporting import completeness, format_report
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


def _run_experiments(args, registry, ids, datasets, schemes, journal):
    """Execute (or replay) each experiment; returns the exit code."""
    for experiment_id in ids:
        experiment_key = cell_key(
            "experiment", experiment_id, datasets, schemes
        )
        if journal is not None and not args.output:
            entry = journal.lookup(experiment_key)
            if (
                entry is not None
                and entry.get("status") == "ok"
                and isinstance(entry.get("value"), dict)
            ):
                value = entry["value"]
                journal.mark_replayed(experiment_key)
                print(f"== {experiment_id}: {value['title']} "
                      f"(replayed) ==")
                print(value["text"])
                print()
                continue
        start = time.perf_counter()
        result = _call_restricted(registry[experiment_id], datasets, schemes)
        elapsed = time.perf_counter() - start
        print(f"== {result.experiment_id}: {result.title} "
              f"({elapsed:.1f}s) ==")
        print(result.text)
        if journal is not None:
            if degraded_cells():
                # The rendered text has holes (NaN cells): journal the
                # experiment as degraded, with no replay value, so a
                # --resume re-executes it and retries the failed cells.
                journal.record(
                    experiment_key, kind="experiment", status="degraded",
                    label=f"experiment:{experiment_id}",
                    error=f"{len(degraded_cells())} degraded cells "
                          f"in this run's grids",
                    duration=elapsed,
                )
            else:
                journal.record(
                    experiment_key, kind="experiment", status="ok",
                    label=f"experiment:{experiment_id}",
                    value={"title": result.title, "text": result.text},
                    duration=elapsed,
                )
        if args.output:
            text_path, json_path = result.save(args.output)
            print(f"[saved {text_path}, {json_path}]")
        print()
    return 0


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
        "--run-id", metavar="ID", default=None,
        help="journal this run's cells under $REPRO_CACHE_DIR/runs/ID "
             "(checkpointing; enables --resume ID later)",
    )
    parser.add_argument(
        "--resume", metavar="ID", default=None,
        help="resume a journaled run: replay its completed cells, "
             "execute only the missing ones",
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
    if args.run_id and args.resume:
        parser.error("--run-id and --resume are mutually exclusive")
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

    journal = None
    run_id = args.resume or args.run_id
    if run_id is not None:
        try:
            journal = RunJournal(run_id)
        except ValueError as exc:
            parser.error(str(exc))
        if args.resume and not journal.exists:
            print(f"no journal found for run {run_id!r}",
                  file=sys.stderr)
            return 2

    ids = args.ids or list(ALL_EXPERIMENTS)
    if journal is not None:
        meta = journal.meta()
        if args.resume and meta is not None:
            # Restore the original selection unless overridden.
            if not args.ids and meta.get("ids"):
                ids = list(meta["ids"])
            if datasets is None and meta.get("datasets"):
                datasets = list(meta["datasets"])
            if schemes is None and meta.get("schemes"):
                schemes = list(meta["schemes"])
        elif meta is None:
            journal.write_meta(
                ids=ids, datasets=datasets, schemes=schemes,
                jobs=args.jobs,
            )
    unknown = [i for i in ids if i not in registry]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {list(registry)}", file=sys.stderr)
        return 2

    if journal is None:
        status = _run_experiments(args, registry, ids, datasets, schemes,
                                  None)
        if args.health:
            print(degrade.format_health())
        return status
    status = 0
    with using_run(journal):
        try:
            status = _run_experiments(args, registry, ids, datasets,
                                      schemes, journal)
        except RunAborted as exc:
            print(f"[aborted] {exc}", file=sys.stderr)
            status = 3
    journal.write_health()
    report = completeness(journal)
    print(format_report(report))
    if args.health:
        print(degrade.format_health())
    if status == 0 and not report.complete:
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
