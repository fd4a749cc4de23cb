"""``python -m repro.analysis`` — the reprolint CLI.

Runs the AST determinism rules over the source tree (``src/repro`` by
default), the C-source lint over the embedded native kernels
(:mod:`repro.analysis.clint`), then the engine-parity contract checker,
and fails (exit 1) on any finding not covered by the committed baseline
(``src/repro/analysis/baseline.json``).  ``make lint`` and the CI lint
job both call this.

Examples::

    python -m repro.analysis                      # full pass, text report
    python -m repro.analysis --jobs 4             # parallel file scan
    python -m repro.analysis --format json        # machine-readable
    python -m repro.analysis --rules unordered-iter src/repro/ordering
    python -m repro.analysis --clint              # C kernel lint only
    python -m repro.analysis --san-reports DIR    # sanitizer log triage
    python -m repro.analysis --write-baseline     # accept current findings
    python -m repro.analysis --list-rules
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .clint import c_rule_help, check_native_sources, linted_sources
from .contracts import check_contracts
from .core import (
    DEFAULT_BASELINE,
    REPO_ROOT,
    SRC_ROOT,
    available_rules,
    baseline_entries,
    iter_python_files,
    load_baseline,
    render_json,
    render_text,
    rule_help,
    scan_paths,
    split_by_baseline,
)


def _triage_sanitizer_reports(log_dir: Path, fmt: str) -> int:
    """Render sanitizer log_path files as structured failures.

    The ``scripts/native_sanitize.sh`` legs call this after pytest so a
    sanitizer diagnosis fails the gate with its summary line instead of
    scrolling past as unexamined stderr.
    """
    from repro._native import collect_sanitizer_reports

    reports = collect_sanitizer_reports(str(log_dir))
    if fmt == "json":
        print(
            json.dumps(
                {
                    "reports": [
                        {k: r[k] for k in ("file", "kind", "summary")}
                        for r in reports
                    ]
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            print(f"{report['file']}: {report['kind']}: {report['summary']}")
        print(f"{len(reports)} sanitizer report(s) under {log_dir}")
    if reports:
        print(
            f"sanitize gate failed: {len(reports)} report(s); "
            f"full text kept under {log_dir}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static determinism lint + engine-parity contracts over the "
            "reproduction source tree."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan the file scan out over N processes (bench pool)",
    )
    parser.add_argument(
        "--rules", metavar="A,B,...",
        help="comma-separated rule subset (default: all rules)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE, metavar="PATH",
        help="baseline file (default: src/repro/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report and fail on every finding",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings into the baseline and exit 0",
    )
    parser.add_argument(
        "--no-contracts", action="store_true",
        help="skip the engine-parity contract checker",
    )
    parser.add_argument(
        "--clint", action="store_true",
        help="run only the C-source lint over the native kernels",
    )
    parser.add_argument(
        "--no-clint", action="store_true",
        help="skip the C-source lint over the native kernels",
    )
    parser.add_argument(
        "--san-reports", type=Path, metavar="DIR",
        help=(
            "triage sanitizer log_path reports under DIR: print each as "
            "a structured failure and exit 1 when any exist"
        ),
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, help_text in rule_help().items():
            print(f"{name}: {help_text}")
        for name, help_text in c_rule_help().items():
            print(f"{name}: {help_text}")
        return 0

    if args.san_reports is not None:
        return _triage_sanitizer_reports(args.san_reports, args.format)

    rules = args.rules.split(",") if args.rules else None
    unknown = set(rules or ()) - set(available_rules())
    if unknown:
        parser.error(
            f"unknown rule(s) {sorted(unknown)}; "
            f"available: {available_rules()}"
        )

    if args.clint:
        files = linted_sources()
        findings = check_native_sources()
    else:
        paths = args.paths or [SRC_ROOT / "repro"]
        files = [f for p in paths for f in iter_python_files(Path(p))]
        findings = scan_paths(paths, rules=rules, jobs=args.jobs)
        if not args.no_clint:
            findings.extend(check_native_sources())
        if not args.no_contracts:
            findings.extend(check_contracts())
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if args.write_baseline:
        args.baseline.write_text(
            json.dumps(baseline_entries(findings), indent=2) + "\n"
        )
        print(
            f"[wrote {len(findings)} finding(s) to {args.baseline}]"
        )
        return 0

    baseline = [] if args.no_baseline else load_baseline(args.baseline)
    new, baselined, stale = split_by_baseline(findings, baseline)
    renderer = render_json if args.format == "json" else render_text
    print(
        renderer(new, baselined, stale, files_scanned=len(files))
    )
    if new:
        print(
            f"lint failed: {len(new)} unbaselined finding(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
