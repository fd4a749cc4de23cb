"""reprolint: static determinism analysis + engine-parity contracts.

Three layers (see ``docs/analysis.md``):

* :mod:`repro.analysis.core` — AST rule engine: registry, per-file
  dispatch, ``# reprolint: disable=...`` suppressions, committed
  baseline, text/JSON reporters.
* :mod:`repro.analysis.rules` — the determinism rule set (unseeded
  RNGs, wall-clock reads, set iteration, stray env reads, mutable
  defaults).
* :mod:`repro.analysis.contracts` — engine-parity contract checker:
  scalar twins resolvable, equivalence-test coverage, scheme metadata,
  bench floors wired, native twins resolvable, paper experiments
  reading orderings through the store.
* :mod:`repro.analysis.clint` — C-source lint over the embedded native
  kernels: non-determinism, narrow loop indices, malloc leaks and
  unchecked cursor writes.

Plus the opt-in runtime half, :mod:`repro.analysis.sanitize`
(``REPRO_SANITIZE=1``): float-error trapping, CSR/permutation
invariants, and dtype-downcast guards inside the batched engines.

Run the whole pass with ``python -m repro.analysis`` (``make lint``).
"""

from .core import (
    DEFAULT_BASELINE,
    Finding,
    available_rules,
    load_baseline,
    render_json,
    render_text,
    rule_help,
    scan_paths,
    scan_source,
    split_by_baseline,
)
from .clint import c_rule_help, check_native_sources, scan_kernel_source
from .contracts import check_contracts
from . import rules  # noqa: F401  (rule registration side effect)
from . import sanitize

__all__ = [
    "DEFAULT_BASELINE",
    "Finding",
    "available_rules",
    "c_rule_help",
    "check_contracts",
    "check_native_sources",
    "scan_kernel_source",
    "load_baseline",
    "render_json",
    "render_text",
    "rule_help",
    "sanitize",
    "scan_paths",
    "scan_source",
    "split_by_baseline",
]
