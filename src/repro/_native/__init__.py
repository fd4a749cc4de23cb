"""Lazily compiled C kernels for hot loops that resist vectorisation.

Every kernel follows the engine contract (:mod:`repro.engine`): the
scalar Python loop is ground truth, and the native kernel — run only
under the native engine and when a C compiler is available — is a
bit-identical escalation of it.  Kernels declare their scalar twin
(verified statically by :mod:`repro.analysis.contracts`) and report
their build status through :func:`build_info_all`.  No kernel leaves
a Python middle tier: when the kernel cannot run, dispatch falls
straight to the scalar twin.

Every kernel runs on the calling thread.

Kernels:

* ``gorder_greedy`` — the whole Gorder sliding-window greedy
  (:mod:`.gorder`);
* ``partition_fm`` — a whole METIS partition tree or nested
  dissection per call, plus per-piece FM refinement, region growing
  and matching (:mod:`.fm`);
* ``delta_scan`` — delta-stepping bucket relaxation (:mod:`.delta`);
* ``rrr_sample`` — hash-pinned IC reverse-BFS cascades (:mod:`.rrr`);
* ``counting_sort`` — BOBA-style stable counting sort behind the
  degree-driven lightweight orderings (:mod:`.counting`);
* ``parse_edges`` — two-pass edge-list byte parser behind
  :func:`repro.graph.io.read_edge_list` (:mod:`.parse`);
* ``csr_build``, ``csr_relabel`` and ``format_lines`` — CSR assembly
  behind :meth:`repro.graph.builder.GraphBuilder.build`, relabelling
  behind :func:`repro.graph.permute.apply_ordering`, and the text of
  the :mod:`repro.graph.io` writers (:mod:`.csr`);
* ``louvain_sweep`` — one whole Louvain sweep on the CSR arrays,
  behind the Grappolo orderings and the community-detection
  application (:mod:`.louvain`);
* ``rabbit_aggregate`` — the whole Rabbit-Order incremental
  aggregation, adjacency load to merge-forest DFS
  (:mod:`.rabbit`);
* ``sim_region`` — a whole parallel region, statically or dynamically
  scheduled, replayed through per-thread L1/L2 and a shared L3, behind
  :meth:`repro.simulator.parallel.SimulatedMachine.run` and
  :meth:`~repro.simulator.parallel.SimulatedMachine.run_dynamic`
  (:mod:`.machine`).
"""

from __future__ import annotations

from .core import (
    SANITIZE_PROFILES,
    NativeBuildError,
    NativeKernel,
    build_info_all,
    cache_dir,
    collect_sanitizer_reports,
    get_kernel,
    kernel_names,
)
from . import (  # noqa: F401  (register)
    counting, csr, delta, fm, gorder, louvain, machine, parse, rabbit, rrr,
)

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "build_info_all",
    "cache_dir",
    "collect_sanitizer_reports",
    "get_kernel",
    "kernel_names",
    "SANITIZE_PROFILES",
    "counting",
    "csr",
    "delta",
    "fm",
    "gorder",
    "louvain",
    "machine",
    "parse",
    "rabbit",
    "rrr",
]
