"""Ordering scheme infrastructure: the result type, the ABC, the registry.

Every scheme in Section III is implemented as an :class:`OrderingScheme`
subclass.  A scheme consumes a graph and produces an :class:`Ordering`:
the permutation, plus a deterministic *operation count* standing in for the
reordering wall-clock cost (Figure 4 compares reordering costs across
schemes; we compare abstract operation counts, which preserves the relative
shape without depending on interpreter speed).
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from ..engine import (
    ENGINE_METADATA_KEY,
    engine_for_work,
    resolve_engine,
    use_engine,
)
from ..graph.csr import CSRGraph
from ..graph.permute import apply_ordering, validate_ordering

__all__ = [
    "Ordering",
    "OrderingScheme",
    "OperationCounter",
    "register_scheme",
    "get_scheme",
    "available_schemes",
    "iter_schemes",
]


class OperationCounter:
    """Accumulates the abstract work performed by a scheme.

    The counter tracks three classes of operations whose weighted sum is the
    scheme's reordering cost: vertex visits, edge traversals, and
    comparison/sort operations.  The weights are uniform (1.0) — Figure 4
    compares relative cost shapes, which operation counts determine.
    """

    __slots__ = ("vertex_ops", "edge_ops", "compare_ops")

    def __init__(self) -> None:
        self.vertex_ops = 0
        self.edge_ops = 0
        self.compare_ops = 0

    def count_vertices(self, n: int = 1) -> None:
        """Record ``n`` vertex-level operations."""
        self.vertex_ops += int(n)

    def count_edges(self, n: int = 1) -> None:
        """Record ``n`` edge traversals."""
        self.edge_ops += int(n)

    def count_compares(self, n: int = 1) -> None:
        """Record ``n`` comparison operations (sorting, heap updates)."""
        self.compare_ops += int(n)

    def count_sort(self, n: int) -> None:
        """Record the comparisons of sorting ``n`` items (n log2 n)."""
        if n > 1:
            self.compare_ops += int(n * np.log2(n))

    def count_sort_batch(self, sizes: np.ndarray) -> None:
        """Record many sorts at once: sum of ``int(n log2 n)`` over sizes.

        The batched engines account a whole BFS level (one sort per
        parent vertex) in a single call; per-element flooring keeps the
        total bit-identical to the scalar engines' repeated
        :meth:`count_sort` calls.
        """
        sizes = np.asarray(sizes)
        if not np.issubdtype(sizes.dtype, np.integer):
            raise TypeError(
                "count_sort_batch requires integer sizes, got dtype "
                f"{sizes.dtype}"
            )
        # Promote narrow dtypes before the log2 product so a large level
        # cannot overflow a caller-supplied int16/int32 intermediate.
        sizes = sizes.astype(np.int64, copy=False)
        sizes = sizes[sizes > 1]
        if sizes.size:
            self.compare_ops += int(
                np.floor(sizes * np.log2(sizes)).astype(np.int64).sum()
            )

    @property
    def total(self) -> int:
        """Total abstract operations."""
        return self.vertex_ops + self.edge_ops + self.compare_ops


@dataclass(frozen=True)
class Ordering:
    """The result of running a scheme on a graph.

    Attributes
    ----------
    scheme:
        Name of the producing scheme (registry key).
    permutation:
        Rank array ``pi`` with ``pi[v]`` = new rank of vertex ``v``.
    cost:
        Abstract operation count of producing the ordering.
    metadata:
        Scheme-specific extras (e.g. number of communities found, number of
        partitions, SlashBurn iterations).
    """

    scheme: str
    permutation: np.ndarray
    cost: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_ordering(self.permutation)

    @property
    def num_vertices(self) -> int:
        """Number of vertices the ordering covers."""
        return self.permutation.size

    def apply(self, graph: CSRGraph) -> CSRGraph:
        """Relabel ``graph`` under this ordering."""
        return apply_ordering(graph, self.permutation)


class OrderingScheme(abc.ABC):
    """Base class for all vertex reordering schemes.

    Subclasses implement :meth:`compute` returning the permutation and may
    use the provided :class:`OperationCounter` to report their cost.
    """

    #: registry key; subclasses must override.
    name: str = ""

    #: coarse category used in reports (Figure 3's taxonomy).
    category: str = "other"

    #: algorithm revision, part of the persistent cache key — bump whenever
    #: a change alters the permutation a scheme produces for some input.
    version: int = 1

    def __init__(self, *, seed: int | None = 0) -> None:
        self._seed = seed

    @property
    def seed(self) -> int | None:
        """Seed controlling any randomised tie-breaking in the scheme."""
        return self._seed

    def cache_token(self) -> str:
        """Deterministic string identifying this scheme *configuration*.

        Combines the registry name, the algorithm :attr:`version`, and
        every parameter declared by the constructor (seed, window width,
        partition count, ...), so the persistent ordering cache
        (:mod:`repro.ordering.store`) distinguishes e.g. ``metis`` at 16
        parts from ``metis`` at 32.  Each parameter ``p`` is read back
        from the ``_p`` attribute the constructor stores it in; instance
        state set later (recursion cursors, scratch) never enters the
        token, so it is the same before and after :meth:`order`.
        Engine choice is deliberately excluded: scalar and vector
        engines are bit-identical by contract, so they share entries.
        """
        params: list[str] = []
        for key in _declared_params(type(self)):
            try:
                value = getattr(self, f"_{key}")
            except AttributeError:
                raise TypeError(
                    f"{type(self).__name__} declares constructor parameter "
                    f"{key!r} but stores no `_{key}` attribute; cache_token "
                    f"cannot cover it"
                ) from None
            if isinstance(value, OrderingScheme):
                # e.g. MinLA's initial scheme: recurse so its config counts.
                value = f"<{value.cache_token()}>"
            elif not (
                isinstance(value, (bool, int, float, str)) or value is None
            ):
                raise TypeError(
                    f"{type(self).__name__}.{key} is a "
                    f"{type(value).__name__}; cache_token needs a scalar "
                    f"or a nested OrderingScheme"
                )
            params.append(f"{key}={value!r}")
        return f"{self.name}:v{self.version}:{','.join(params)}"

    def estimated_work(self, graph: CSRGraph) -> int | None:
        """Rough abstract-operation estimate, for tier short-circuiting.

        Trivial schemes (a couple of array ops) return an estimate so
        :func:`repro.engine.engine_for_work` can drop tiny workloads to
        the scalar tier, where vector dispatch overhead would dominate.
        ``None`` (the default) never short-circuits.
        """
        return None

    def order(self, graph: CSRGraph) -> Ordering:
        """Run the scheme and package the result.

        The tier that actually ran is recorded in the metadata under
        :data:`repro.engine.ENGINE_METADATA_KEY`; schemes with a native
        kernel refine the value themselves (a kernel may be
        unavailable), everything else is labelled with the dispatched
        tier — ``"vector"`` when the native tier was requested, since a
        scheme without a kernel runs its vector engine there.
        """
        counter = OperationCounter()
        rng = np.random.default_rng(self._seed)
        ran = engine_for_work(self.estimated_work(graph))
        if ran != resolve_engine():
            with use_engine(ran):
                permutation, metadata = self.compute(graph, counter, rng)
        else:
            permutation, metadata = self.compute(graph, counter, rng)
        metadata.setdefault(
            ENGINE_METADATA_KEY, "vector" if ran == "native" else ran
        )
        return Ordering(
            scheme=self.name,
            permutation=validate_ordering(permutation, graph.num_vertices),
            cost=counter.total,
            metadata=metadata,
        )

    @abc.abstractmethod
    def compute(
        self,
        graph: CSRGraph,
        counter: OperationCounter,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict]:
        """Compute the rank array for ``graph``.

        Returns
        -------
        (permutation, metadata)
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def _declared_params(cls: type) -> tuple[str, ...]:
    """Sorted names of the parameters ``cls.__init__`` declares."""
    signature = inspect.signature(cls.__init__)
    return tuple(sorted(
        name for name, param in signature.parameters.items()
        if name != "self"
        and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
    ))


_REGISTRY: dict[str, Callable[[], OrderingScheme]] = {}


def register_scheme(
    name: str, factory: Callable[[], OrderingScheme]
) -> None:
    """Register a scheme factory under ``name``.

    Re-registering a name replaces the factory, which lets tests install
    variants (e.g. different METIS partition counts).
    """
    _REGISTRY[name] = factory


def get_scheme(name: str) -> OrderingScheme:
    """Instantiate the scheme registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown ordering scheme {name!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_schemes() -> list[str]:
    """Sorted names of all registered schemes."""
    return sorted(_REGISTRY)


def iter_schemes(names: list[str] | None = None) -> Iterator[OrderingScheme]:
    """Instantiate schemes by name (all registered schemes by default)."""
    for name in names if names is not None else available_schemes():
        yield get_scheme(name)
