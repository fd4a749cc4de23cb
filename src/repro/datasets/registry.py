"""Building and caching dataset surrogates.

Surrogate construction is deterministic but not free (Delaunay, planted
partitions), so built graphs are memoised per process.  Tests and
benchmarks go through :func:`load` / :func:`load_many`.

Loads consult two layers before building:

1. the per-process memo — forked pool workers inherit the parent's;
2. the persistent graph store (:mod:`repro.graph.store`) — a warm
   process mmap-attaches the ``.rgr`` entry in milliseconds instead of
   re-running the generator recipe.

Store entries are content-addressed by :func:`dataset_store_key`, which
digests the dataset name together with the *source bytes* of the
generator and catalog modules and of the builder and relabel modules
(and their kernels) every surrogate passes through: editing any of them
invalidates every stale entry automatically, so the store can never
serve a graph built by a previous version of the code.  Every layer is only an
optimisation — any failure falls back to building, and freshly built
graphs are audited (:func:`repro.datasets.catalog.audit_graph`) and
written back to the store.
"""

from __future__ import annotations

import hashlib

from ..graph import store as graph_store
from ..graph.csr import CSRGraph
from . import catalog as _catalog_module
from .catalog import CATALOG, LARGE_SET, SMALL_SET, DatasetSpec, audit_graph

__all__ = [
    "load",
    "load_many",
    "dataset_store_key",
    "spec",
    "dataset_names",
    "small_set",
    "large_set",
]

#: per-process graph memo (explicit dict so tests can clear it).
_graph_cache: dict[str, CSRGraph] = {}

#: memoised digest of the recipe sources (computed once per process).
_recipe_digest: str | None = None


def spec(name: str) -> DatasetSpec:
    """The catalog entry for ``name`` (raises ``KeyError`` if unknown)."""
    try:
        return CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(CATALOG)}"
        ) from None


def _recipe_source_digest() -> str:
    """sha256 over the modules whose code determines every surrogate."""
    global _recipe_digest
    if _recipe_digest is None:
        from .._native import csr as csr_kernels
        from ..graph import builder, generators, permute

        digest = hashlib.sha256()
        digest.update(f"rgr{graph_store.FORMAT_VERSION}:".encode())
        # Every surrogate passes through GraphBuilder.build, and the
        # label shuffle through apply_ordering: their Python twins and
        # their kernels.
        modules = (generators, _catalog_module, builder, permute, csr_kernels)
        for module in modules:
            with open(module.__file__, "rb") as handle:
                digest.update(handle.read())
            digest.update(b":")
        _recipe_digest = digest.hexdigest()
    return _recipe_digest


def dataset_store_key(name: str) -> str:
    """The graph-store key for ``name`` (content-addressed by recipe).

    Any edit to the generator, catalog, builder or relabel source — or
    a store format bump — changes the key, so stale entries are never loaded (they age
    out as unreferenced files rather than being served).
    """
    return f"{name}-{_recipe_source_digest()[:16]}"


def _load_uncached(name: str) -> CSRGraph:
    """Resolve ``name`` through the store, then the builder."""
    store = graph_store.GraphStore.default()
    key = dataset_store_key(name)
    graph = store.load(key)
    if graph is not None:
        return graph
    graph = spec(name).build()
    audit_graph(graph)
    store.save(key, graph)
    return graph


def load(name: str) -> CSRGraph:
    """Build (or fetch from the memo / store) ``name``."""
    graph = _graph_cache.get(name)
    if graph is None:
        graph = _load_uncached(name)
        _graph_cache[name] = graph
    return graph


def load_many(names: tuple[str, ...] | list[str]) -> dict[str, CSRGraph]:
    """Load several datasets, keyed by name."""
    return {name: load(name) for name in names}


def dataset_names() -> tuple[str, ...]:
    """All 34 dataset names, small set first (Table I order)."""
    return SMALL_SET + LARGE_SET


def small_set() -> tuple[str, ...]:
    """The 25 qualitative-study dataset names."""
    return SMALL_SET


def large_set() -> tuple[str, ...]:
    """The 9 application-study dataset names."""
    return LARGE_SET
