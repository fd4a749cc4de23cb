"""Lazily compiled C kernels for hot loops that resist vectorisation.

Every kernel follows the three-tier engine contract
(:mod:`repro.engine`): the scalar Python loop is ground truth, the numpy
engine is the tested middle tier, and the native kernel — run only
under the native engine and when a C compiler is available — is a
bit-identical escalation.  Kernels declare their scalar and vector twins
(verified statically by :mod:`repro.analysis.contracts`) and report
their build status through :func:`build_info_all`.

Thread-parallel kernels (``threaded=True``) additionally declare a
``serial_twin`` and obey the hard contract that results are
bit-identical for every ``REPRO_NATIVE_THREADS`` value
(:func:`native_threads`).

Kernels:

* ``lru_replay`` — set-associative LRU replay, threaded over
  independent cache sets (:mod:`.lru`);
* ``gorder_greedy`` — the whole Gorder sliding-window greedy
  (:mod:`.gorder`);
* ``partition_fm`` — FM boundary refinement and greedy region growing
  for nested dissection / METIS (:mod:`.fm`);
* ``delta_scan`` — delta-stepping bucket relaxation, threaded over each
  scan's edge list with an ordered merge (:mod:`.delta`);
* ``rrr_sample`` — hash-pinned IC reverse-BFS cascades, threaded over
  independent sample indices (:mod:`.rrr`);
* ``counting_sort`` — BOBA-style stable counting sort behind the
  degree-driven lightweight orderings (:mod:`.counting`);
* ``parse_edges`` — sharded two-pass edge-list byte parser behind
  :func:`repro.graph.io.read_edge_list` (:mod:`.parse`);
* ``louvain_sweep`` — one whole serial Louvain sweep on the CSR arrays,
  behind the Grappolo orderings and the community-detection
  application (:mod:`.louvain`);
* ``sim_dynamic`` — a whole dynamically scheduled parallel region
  replayed through per-thread L1/L2 and a shared L3, behind
  :meth:`repro.simulator.parallel.SimulatedMachine.run_dynamic`
  (:mod:`.machine`).
"""

from __future__ import annotations

from .core import (
    MAX_THREADS,
    SANITIZE_PROFILES,
    NativeBuildError,
    NativeKernel,
    build_info_all,
    cache_dir,
    collect_sanitizer_reports,
    get_kernel,
    kernel_names,
    native_threads,
    sanitize_profile,
    set_thread_cap,
    use_native_threads,
)
from . import (  # noqa: F401  (register)
    counting, delta, fm, gorder, louvain, lru, machine, parse, rrr,
)

__all__ = [
    "NativeKernel",
    "NativeBuildError",
    "build_info_all",
    "cache_dir",
    "collect_sanitizer_reports",
    "get_kernel",
    "kernel_names",
    "native_threads",
    "sanitize_profile",
    "set_thread_cap",
    "use_native_threads",
    "SANITIZE_PROFILES",
    "MAX_THREADS",
    "counting",
    "delta",
    "fm",
    "gorder",
    "louvain",
    "lru",
    "machine",
    "parse",
    "rrr",
]
