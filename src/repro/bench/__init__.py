"""Experiment harness: runners, reporting, and per-figure entry points.

The names below load on first access, so ``python -m repro.bench`` reads
its arguments and knobs before it imports an experiment.
"""

__all__ = [
    "ExperimentResult",
    "ALL_EXPERIMENTS",
    "ABLATIONS",
    "EXTENSIONS",
    "FIG9_SCHEMES",
    "FIG11_SCHEMES",
    "table1",
    "fig1",
    "fig4",
    "fig5",
    "fig6a",
    "fig6b",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "format_table",
    "format_profile",
    "format_heat_row",
    "write_csv",
    "PROFILE_TAUS",
    "ordering_for",
    "measures_for",
    "collect_scores",
    "collect_costs",
]


def __getattr__(name: str):
    """Import an ``__all__`` name on its first access (PEP 562)."""
    if name == "ABLATIONS":
        from . import ablations as home
    elif name == "EXTENSIONS":
        from . import extensions as home
    elif name in ("PROFILE_TAUS", "format_heat_row", "format_profile",
                  "format_table", "write_csv"):
        from . import report as home
    elif name in ("collect_costs", "collect_scores", "measures_for",
                  "ordering_for"):
        from . import runners as home
    elif name in __all__:
        from . import experiments as home
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(home, name)
    return value
