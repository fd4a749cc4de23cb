"""Degree- and hub-based schemes (paper Section III-B).

Three lightweight schemes that use only degree information:

* **Degree Sort** — sort all vertices by degree.
* **Hub Sort** (Zhang et al.) — sort only the *hub* vertices (degree above a
  cutoff) to the front in non-increasing degree order; non-hubs keep their
  relative natural order.
* **Hub Clustering** (Balaji & Lucia) — merely make the hub vertices
  contiguous (in natural relative order), without sorting them.

These schemes do not optimise any gap measure; they aim at spatial locality
among frequently accessed hubs.

Every scheme here reduces to one primitive — a *stable* sort of the
vertex ids by a small non-negative integer key — so all four share the
:func:`_stable_key_order` dispatcher.  The scalar and vector tiers share
numpy's stable argsort; the native tier is the BOBA-style counting
sort (:mod:`repro._native.counting`), bit-identical to the argsort.
"""

from __future__ import annotations

import numpy as np

from ..engine import ENGINE_METADATA_KEY, resolve_engine
from ..graph.csr import CSRGraph
from ..graph.permute import ordering_from_sequence
from .base import OperationCounter, OrderingScheme

__all__ = [
    "DegreeSort",
    "HubSort",
    "HubCluster",
    "DegreeBasedGrouping",
    "average_degree_cutoff",
]


def average_degree_cutoff(graph: CSRGraph) -> float:
    """The standard hub cutoff: the average degree of the graph.

    Both the Hub Sort and Hub Clustering papers define hubs as vertices with
    degree above the average.
    """
    if graph.num_vertices == 0:
        return 0.0
    return graph.num_directed_edges / graph.num_vertices


def _stable_key_order_scalar(key: np.ndarray) -> np.ndarray:
    """Stable argsort of ``key`` (scalar and vector tiers)."""
    return np.argsort(key, kind="stable")


def _stable_key_order_native(
    key: np.ndarray, num_buckets: int
) -> np.ndarray | None:
    """Counting-sort tier; ``None`` when the kernel bows out."""
    from .._native import counting

    return counting.run(key, num_buckets)


def _stable_key_order(
    key: np.ndarray, num_buckets: int, metadata: dict
) -> np.ndarray:
    """Stable argsort of small-integer ``key`` through the engine tower.

    ``key`` must be int64 in ``[0, num_buckets)``.  When the native
    counting-sort kernel actually runs, the tier is recorded in
    ``metadata`` (:func:`repro.ordering.base.OrderingScheme.order`
    fills the engine key for the other tiers).
    """
    engine = resolve_engine()
    if engine == "native":
        sequence = _stable_key_order_native(key, num_buckets)
        if sequence is not None:
            metadata[ENGINE_METADATA_KEY] = "native"
            return sequence
    return _stable_key_order_scalar(key)


class DegreeSort(OrderingScheme):
    """Sort vertices by degree.

    Parameters
    ----------
    descending:
        Non-increasing degree order when True (default; hubs first, the
        variant the paper's application study uses as "Degree").
    """

    name = "degree_sort"
    category = "degree_hub"

    def __init__(self, *, descending: bool = True, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        self._descending = descending

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        degrees = graph.degrees()
        counter.count_vertices(n)
        counter.count_sort(n)
        max_degree = int(degrees.max()) if n else 0
        # Bucket key: descending order flips degrees so the stable sort
        # of the key equals argsort(-degrees); ties keep natural order.
        key = (max_degree - degrees) if self._descending else degrees
        metadata: dict = {"descending": self._descending}
        sequence = _stable_key_order(key, max_degree + 1, metadata)
        return ordering_from_sequence(sequence), metadata


class HubSort(OrderingScheme):
    """Sort hub vertices to the front; non-hubs keep natural order.

    Parameters
    ----------
    cutoff:
        Minimum degree (exclusive) for a vertex to count as a hub;
        ``None`` uses the average degree.
    """

    name = "hub_sort"
    category = "degree_hub"

    def __init__(self, *, cutoff: float | None = None, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        self._cutoff = cutoff

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        degrees = graph.degrees()
        cutoff = (
            self._cutoff if self._cutoff is not None
            else average_degree_cutoff(graph)
        )
        counter.count_vertices(n)
        hubs = degrees > cutoff
        counter.count_sort(int(np.count_nonzero(hubs)))
        max_degree = int(degrees.max()) if n else 0
        # Hubs sort by flipped degree (all keys <= max_degree); every
        # non-hub shares the max_degree+1 bucket, so the stable sort
        # keeps their natural order after the sorted hubs.
        key = np.where(hubs, max_degree - degrees, max_degree + 1)
        metadata: dict = {
            "cutoff": float(cutoff),
            "num_hubs": int(np.count_nonzero(hubs)),
        }
        sequence = _stable_key_order(key, max_degree + 2, metadata)
        return ordering_from_sequence(sequence), metadata


class DegreeBasedGrouping(OrderingScheme):
    """Degree-Based Grouping (Faldu, Diamond & Grot 2019; paper ref [12]).

    The lightweight scheme of the paper's cited prior work: vertices are
    binned into coarse degree *groups* (powers-of-two degree ranges),
    groups laid out from hottest (highest degree) to coldest, and the
    relative **natural order preserved within every group**.  DBG captures
    Hub Sort's hot/cold separation while retaining whatever spatial
    structure the input labels already carry — the property Faldu et al.
    show full Degree Sort destroys.
    """

    name = "dbg"
    category = "degree_hub"

    def __init__(self, *, seed: int | None = 0) -> None:
        super().__init__(seed=seed)

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        degrees = graph.degrees()
        counter.count_vertices(n)
        # group id = floor(log2(degree + 1)); isolated vertices group 0.
        groups = np.floor(np.log2(degrees + 1)).astype(np.int64)
        num_groups = int(groups.max()) + 1 if n else 0
        # hottest groups first; stable within a group.
        key = (num_groups - 1) - groups
        metadata: dict = {"num_groups": num_groups}
        sequence = _stable_key_order(key, num_groups, metadata)
        return ordering_from_sequence(sequence), metadata


class HubCluster(OrderingScheme):
    """Make hub vertices contiguous without sorting them.

    The lightest-weight hub scheme: a single pass that relabels hubs to the
    front, both groups preserving their relative natural order.
    """

    name = "hub_cluster"
    category = "degree_hub"

    def __init__(self, *, cutoff: float | None = None, seed: int | None = 0) -> None:
        super().__init__(seed=seed)
        self._cutoff = cutoff

    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        n = graph.num_vertices
        degrees = graph.degrees()
        cutoff = (
            self._cutoff if self._cutoff is not None
            else average_degree_cutoff(graph)
        )
        counter.count_vertices(n)
        hubs = degrees > cutoff
        # Two buckets — hubs then non-hubs — each in natural order.
        key = np.where(hubs, np.int64(0), np.int64(1))
        metadata: dict = {
            "cutoff": float(cutoff),
            "num_hubs": int(np.count_nonzero(hubs)),
        }
        sequence = _stable_key_order(key, 2, metadata)
        return ordering_from_sequence(sequence), metadata
