"""Lazily compiled C kernels for hot loops that resist vectorisation.

Every kernel follows the three-tier engine contract
(:mod:`repro.engine`): the scalar Python loop is ground truth, the numpy
engine is the tested middle tier, and the native kernel — run only
under the native engine and when a C compiler is available — is a
bit-identical escalation.  Kernels declare their scalar and vector twins
(verified statically by :mod:`repro.analysis.contracts`) and report
their build status through :func:`build_info_all`.

Every kernel runs on the calling thread.

Kernels:

* ``gorder_greedy`` — the whole Gorder sliding-window greedy
  (:mod:`.gorder`);
* ``partition_fm`` — FM boundary refinement and greedy region growing
  for nested dissection / METIS (:mod:`.fm`);
* ``delta_scan`` — delta-stepping bucket relaxation (:mod:`.delta`);
* ``rrr_sample`` — hash-pinned IC reverse-BFS cascades (:mod:`.rrr`);
* ``counting_sort`` — BOBA-style stable counting sort behind the
  degree-driven lightweight orderings (:mod:`.counting`);
* ``parse_edges`` — two-pass edge-list byte parser behind
  :func:`repro.graph.io.read_edge_list` (:mod:`.parse`);
* ``louvain_sweep`` — one whole Louvain sweep on the CSR arrays,
  behind the Grappolo orderings and the community-detection
  application (:mod:`.louvain`);
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
    sanitize_profile,
)
from . import (  # noqa: F401  (register)
    counting, delta, fm, gorder, louvain, machine, parse, rrr,
)

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "build_info_all",
    "cache_dir",
    "collect_sanitizer_reports",
    "get_kernel",
    "kernel_names",
    "sanitize_profile",
    "SANITIZE_PROFILES",
    "counting",
    "delta",
    "fm",
    "gorder",
    "louvain",
    "machine",
    "parse",
    "rrr",
]
