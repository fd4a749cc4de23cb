"""Opt-in runtime numeric sanitizer for the batched engines.

The static rules catch nondeterminism the AST can see; this module
catches the numeric bug classes it cannot: silent float overflow /
NaN propagation inside vectorized kernels, CSR structures that violate
their invariants after a permutation, and silent integer downcasts at
engine boundaries.  Everything here is **zero-cost when disabled** —
each helper returns immediately unless ``REPRO_SANITIZE=1`` is set, so
the hot paths stay unperturbed in production runs.

Knobs
-----
``REPRO_SANITIZE=1``
    Master switch.  ``0`` / empty / unset disables every check.  Read
    once per process into the :mod:`repro.config` snapshot.

Entry points
------------
* :func:`sanitized` — context manager arming numpy to raise on float
  overflow and invalid operations (``FloatingPointError``) inside the
  wrapped hot path.  The batch engines wrap their kernels in it.
* :func:`check_csr` — CSR invariants (monotone ``indptr`` anchored at
  0, in-range indices, edge counts addressable by the array dtype, and
  finite weights), called at graph construction and permutation
  boundaries.
* :func:`check_permutation` — permutation arrays are int64 bijections.
* :func:`check_integral` / :func:`check_dtype` — guard the silent
  dtype downcasts ``np.asarray(..., dtype=np.int64)`` would otherwise
  perform on float input at batch-engine boundaries.

The pytest suite arms the sanitizer for every test via an autouse
fixture in ``tests/conftest.py`` when ``REPRO_SANITIZE=1`` (the CI
equivalence legs run this way).
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import Callable, ContextManager, TypeVar

import numpy as np

from .. import config

__all__ = [
    "SanitizerError",
    "enabled",
    "sanitized",
    "guarded",
    "check_csr",
    "check_permutation",
    "check_integral",
    "check_dtype",
]

_F = TypeVar("_F", bound=Callable)


class SanitizerError(AssertionError):
    """A numeric invariant the sanitizer guards was violated."""


def enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` arms the runtime checks."""
    return config.get().sanitize


def sanitized() -> ContextManager[object]:
    """Raise on float overflow/invalid inside the block (when armed)."""
    if not enabled():
        return nullcontext()
    return np.errstate(over="raise", invalid="raise")


def guarded(fn: _F) -> _F:
    """Decorator form of :func:`sanitized` for whole hot-path kernels.

    The switch is checked per call, not at decoration time, so a
    :func:`repro.config.reload` after import still re-arms (or disarms)
    the wrapped kernels.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with sanitized():
            return fn(*args, **kwargs)

    return wrapper  # type: ignore[return-value]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SanitizerError(message)


def check_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray | None = None,
    *,
    where: str = "CSRGraph",
) -> None:
    """Validate CSR invariants (no-op unless the sanitizer is armed).

    Checks the structural invariants every engine assumes plus the two
    the cheap constructor validation skips: edge counts must be
    addressable by the integer dtype actually carrying them (the int32
    overflow class), and weights must be finite.
    """
    if not enabled():
        return
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    _require(
        np.issubdtype(indptr.dtype, np.integer),
        f"{where}: indptr has non-integer dtype {indptr.dtype}",
    )
    _require(
        np.issubdtype(indices.dtype, np.integer),
        f"{where}: indices has non-integer dtype {indices.dtype}",
    )
    for array, label in ((indptr, "indptr"), (indices, "indices")):
        if array.dtype.itemsize < 8:
            _require(
                indices.size <= int(np.iinfo(array.dtype).max),
                f"{where}: {label} dtype {array.dtype} cannot address "
                f"{indices.size} directed edges (integer overflow)",
            )
    _require(
        indptr.ndim == 1 and indptr.size >= 1,
        f"{where}: indptr must be one-dimensional and non-empty",
    )
    _require(int(indptr[0]) == 0, f"{where}: indptr must start at 0")
    _require(
        int(indptr[-1]) == indices.size,
        f"{where}: indptr[-1] ({int(indptr[-1])}) != len(indices) "
        f"({indices.size})",
    )
    _require(
        not np.any(np.diff(indptr) < 0),
        f"{where}: indptr is not monotone non-decreasing",
    )
    num_vertices = indptr.size - 1
    if indices.size:
        _require(
            int(indices.min()) >= 0 and int(indices.max()) < num_vertices,
            f"{where}: indices contain out-of-range vertex ids",
        )
    if weights is not None:
        weights = np.asarray(weights)
        _require(
            bool(np.all(np.isfinite(weights))),
            f"{where}: weights contain non-finite values",
        )


def check_permutation(
    pi: np.ndarray, num_vertices: int, *, where: str = "permutation"
) -> None:
    """Permutation boundary guard: int64 bijection over [0, n)."""
    if not enabled():
        return
    pi = np.asarray(pi)
    _require(
        np.issubdtype(pi.dtype, np.integer),
        f"{where}: permutation has non-integer dtype {pi.dtype}",
    )
    _require(
        pi.ndim == 1 and pi.size == num_vertices,
        f"{where}: permutation length {pi.size} != n ({num_vertices})",
    )
    if num_vertices:
        _require(
            int(pi.min()) >= 0 and int(pi.max()) < num_vertices,
            f"{where}: permutation entries out of range",
        )
        counts = np.bincount(pi, minlength=num_vertices)
        _require(
            bool(np.all(counts == 1)),
            f"{where}: permutation is not a bijection",
        )


def check_integral(values, *, where: str = "") -> None:
    """Guard the silent float->int truncation of ``np.asarray(x, int64)``.

    Batch-engine boundaries coerce incoming index arrays to int64; when
    the sanitizer is armed, handing them float data raises instead of
    silently flooring.
    """
    if not enabled():
        return
    array = np.asarray(values)
    _require(
        np.issubdtype(array.dtype, np.integer)
        or array.dtype == np.bool_,
        f"{where}: expected integer data, got dtype {array.dtype} "
        f"(silent downcast would truncate values)",
    )


def check_dtype(
    array: np.ndarray, expected: np.dtype | type, *, where: str = ""
) -> None:
    """Require an exact dtype at an engine boundary (when armed)."""
    if not enabled():
        return
    array = np.asarray(array)
    _require(
        array.dtype == np.dtype(expected),
        f"{where}: expected dtype {np.dtype(expected)}, got "
        f"{array.dtype} (silent downcast hazard)",
    )
