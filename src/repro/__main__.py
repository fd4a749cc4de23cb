"""User-facing reordering tool: ``python -m repro <input> [options]``.

Reads a graph file (edge list, METIS ``.graph``, or MatrixMarket
``.mtx`` — chosen by extension), computes an ordering with the requested
scheme, reports the gap measures before and after, and optionally writes
the reordered graph and the permutation.

Examples::

    python -m repro graph.txt --scheme rcm
    python -m repro web.mtx --scheme grappolo -o reordered.mtx \
        --permutation perm.txt
    python -m repro graph.txt --compare rcm grappolo metis
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .graph.io import (
    read_edge_list,
    read_matrix_market,
    read_metis,
    write_edge_list,
    write_matrix_market,
    write_metis,
    write_permutation,
)
from .measures.gaps import gap_measures
from .ordering import available_schemes, get_scheme

_READERS = {
    ".graph": read_metis,
    ".metis": read_metis,
    ".mtx": read_matrix_market,
}
_WRITERS = {
    ".graph": write_metis,
    ".metis": write_metis,
    ".mtx": write_matrix_market,
}


def _read(path: Path):
    reader = _READERS.get(path.suffix.lower(), read_edge_list)
    return reader(path)


def _write(graph, path: Path) -> None:
    writer = _WRITERS.get(path.suffix.lower(), write_edge_list)
    writer(graph, path)


def _print_measures(label: str, measures) -> None:
    print(
        f"{label:<16} avg_gap={measures.average_gap:10.2f}  "
        f"bandwidth={measures.bandwidth:8d}  "
        f"avg_bw={measures.average_bandwidth:10.2f}  "
        f"log_gap={measures.log_gap:6.2f}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reorder a graph file for locality.",
    )
    parser.add_argument("input", type=Path, help="graph file to reorder")
    parser.add_argument(
        "--scheme", default="grappolo",
        help=f"ordering scheme (one of: {', '.join(available_schemes())})",
    )
    parser.add_argument(
        "--compare", nargs="+", metavar="SCHEME",
        help="only compare these schemes' gap measures; write nothing",
    )
    parser.add_argument(
        "-o", "--output", type=Path,
        help="write the reordered graph here (format by extension)",
    )
    parser.add_argument(
        "--permutation", type=Path,
        help="write the rank of each original vertex, one per line",
    )
    args = parser.parse_args(argv)

    if not args.input.exists():
        print(f"error: {args.input} does not exist", file=sys.stderr)
        return 2
    graph = _read(args.input)
    print(
        f"{args.input}: n={graph.num_vertices} m={graph.num_edges}"
    )
    _print_measures("natural", gap_measures(graph))

    if args.compare:
        for name in args.compare:
            ordering = get_scheme(name).order(graph)
            _print_measures(
                name, gap_measures(graph, ordering.permutation)
            )
        return 0

    ordering = get_scheme(args.scheme).order(graph)
    _print_measures(
        args.scheme, gap_measures(graph, ordering.permutation)
    )
    if args.output:
        _write(ordering.apply(graph), args.output)
        print(f"wrote reordered graph: {args.output}")
    if args.permutation:
        write_permutation(ordering.permutation, args.permutation)
        print(f"wrote permutation: {args.permutation}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
