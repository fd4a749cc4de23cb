"""Vertex orderings as permutations, and graph relabelling.

Throughout the reproduction an *ordering* ``pi`` is stored as an integer
array where ``pi[v]`` is the new rank of vertex ``v`` (0-based; the paper's
``Pi(i)`` is 1-based, which changes no gap measure).  The *natural* ordering
is the identity permutation.

This module provides validation, inversion, composition, and the relabelling
operation that produces the reordered graph on which all downstream
computation happens — exactly the workflow described in Section III of the
paper.
"""

from __future__ import annotations

import numpy as np

from ..analysis import sanitize
from ..engine import engine_for_work
from .builder import pair_order
from .csr import CSRGraph

__all__ = [
    "identity_ordering",
    "is_valid_ordering",
    "validate_ordering",
    "invert_ordering",
    "compose_orderings",
    "apply_ordering",
    "ordering_from_sequence",
]


def identity_ordering(num_vertices: int) -> np.ndarray:
    """The natural ordering ``pi[v] = v``."""
    return np.arange(num_vertices, dtype=np.int64)


def is_valid_ordering(pi: np.ndarray, num_vertices: int | None = None) -> bool:
    """Whether ``pi`` is a permutation of ``[0, n)``."""
    pi = np.asarray(pi)
    if pi.ndim != 1:
        return False
    n = pi.size if num_vertices is None else num_vertices
    if pi.size != n:
        return False
    seen = np.zeros(n, dtype=bool)
    valid = (pi >= 0) & (pi < n)
    if not valid.all():
        return False
    seen[pi] = True
    return bool(seen.all())


def validate_ordering(pi: np.ndarray, num_vertices: int | None = None) -> np.ndarray:
    """Return ``pi`` as an int64 array, raising if it is not a permutation."""
    sanitize.check_integral(pi, where="validate_ordering")
    pi = np.asarray(pi, dtype=np.int64)
    if not is_valid_ordering(pi, num_vertices):
        raise ValueError("ordering is not a valid permutation")
    return pi


def invert_ordering(pi: np.ndarray) -> np.ndarray:
    """Inverse permutation: ``inv[pi[v]] = v``.

    ``inv[r]`` answers "which original vertex has rank ``r``", which is the
    form needed when laying vertices out in memory by rank.
    """
    pi = validate_ordering(pi)
    inv = np.empty_like(pi)
    inv[pi] = np.arange(pi.size, dtype=np.int64)
    return inv


def compose_orderings(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Apply ``first`` then ``second``: result[v] = second[first[v]].

    Useful for hybrid schemes, e.g. a community ordering refined by RCM on
    the coarse graph (Grappolo-RCM).
    """
    first = validate_ordering(first)
    second = validate_ordering(second)
    if first.size != second.size:
        raise ValueError("orderings must have the same length")
    return second[first]


def ordering_from_sequence(sequence: np.ndarray) -> np.ndarray:
    """Convert a visit sequence into a rank array.

    ``sequence[r]`` is the vertex visited at rank ``r`` (the inverse view);
    the result ``pi`` satisfies ``pi[sequence[r]] = r``.  Most traversal
    based schemes (RCM, SlashBurn, Gorder) naturally produce sequences.
    """
    sequence = np.asarray(sequence, dtype=np.int64)
    return invert_ordering(sequence)


def apply_ordering(graph: CSRGraph, pi: np.ndarray) -> CSRGraph:
    """Relabel ``graph`` so that vertex ``v`` becomes ``pi[v]``.

    The returned graph has identical structure (Section II of the paper:
    "the overall structure of the graph remains unchanged with reordering")
    but its CSR arrays are laid out in the new rank order, which is what
    changes the memory-access behaviour of traversals.  The relabelled
    ``(row, neighbour)`` pairs go through the builder's one stable pair
    sort, so each row keeps its neighbours (and weights) in id order.
    """
    pi = validate_ordering(pi, graph.num_vertices)
    n = graph.num_vertices
    src = np.repeat(pi, graph.degrees())
    dst = pi[graph.indices]
    order = pair_order(
        src, dst, n, engine_for_work(graph.num_directed_edges)
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    weights = graph.weights[order] if graph.is_weighted else None
    return CSRGraph(indptr, dst[order], weights)
