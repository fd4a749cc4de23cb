"""repro — reproduction of "Vertex Reordering for Real-World Graphs and
Applications: An Empirical Evaluation" (IISWC 2020).

The package provides:

* :mod:`repro.graph` — CSR graph substrate, generators, I/O;
* :mod:`repro.datasets` — surrogates for the paper's 34 inputs;
* :mod:`repro.measures` — linear-arrangement gap measures and performance
  profiles (Section II-A);
* :mod:`repro.ordering` — the 11 reordering schemes (Section III);
* :mod:`repro.partition` — the multilevel partitioner (METIS substitute);
* :mod:`repro.community` — Louvain community detection (Grappolo
  substitute);
* :mod:`repro.simulator` — trace-driven multi-level cache and parallel
  execution simulator (the testbed/VTune substitute);
* :mod:`repro.apps` — the two applications: community detection and
  influence maximization (Section VI);
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure.

Quickstart::

    from repro.datasets import load
    from repro.ordering import get_scheme
    from repro.measures import gap_measures

    graph = load("chicago_road")
    ordering = get_scheme("rcm").order(graph)
    print(gap_measures(graph, ordering.permutation))
"""

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "CSRGraph",
    "from_edges",
    "gap_measures",
    "Ordering",
    "OrderingScheme",
    "get_scheme",
    "available_schemes",
]


def __getattr__(name: str):
    """Import an ``__all__`` name on its first access (PEP 562).

    ``import repro`` then loads no subpackage: a command pays only for
    the modules it runs.
    """
    if name in ("CSRGraph", "from_edges"):
        from . import graph as home
    elif name == "gap_measures":
        from . import measures as home
    elif name in ("Ordering", "OrderingScheme", "get_scheme",
                  "available_schemes"):
        from . import ordering as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
