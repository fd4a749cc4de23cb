"""Documentation hygiene: every public item carries a docstring."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.graph.generators",
    "repro.graph.io",
    "repro.datasets",
    "repro.measures",
    "repro.measures.spy",
    "repro.ordering",
    "repro.partition",
    "repro.community",
    "repro.simulator",
    "repro.apps",
    "repro.apps.delta_stepping",
    "repro.bench",
    "repro.bench.ablations",
    "repro.bench.extensions",
    "repro.bench.scaling",
    "repro.bench.cells",
    "repro.resilience",
    "repro.resilience.store",
    "repro.resilience.faults",
    "repro.resilience.journal",
    "repro.resilience.supervisor",
    "repro.resilience.reporting",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstring(package):
    mod = importlib.import_module(package)
    assert mod.__doc__ and mod.__doc__.strip(), package


@pytest.mark.parametrize("package", PACKAGES)
def test_public_items_documented(package):
    mod = importlib.import_module(package)
    undocumented = []
    for name in getattr(mod, "__all__", []):
        item = getattr(mod, name)
        if inspect.isfunction(item) or inspect.isclass(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(f"{package}.{name}")
    assert not undocumented, undocumented


def test_public_classes_document_public_methods():
    """Spot-check the core classes: public methods have docstrings."""
    from repro.graph import CSRGraph, GraphBuilder
    from repro.ordering import Ordering, OrderingScheme
    from repro.simulator import Cache, MemoryHierarchy, SimulatedMachine

    for cls in (CSRGraph, GraphBuilder, Ordering, OrderingScheme,
                Cache, MemoryHierarchy, SimulatedMachine):
        for name, member in inspect.getmembers(cls):
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(member, property):
                target = (
                    member.fget if isinstance(member, property) else member
                )
                assert target.__doc__ and target.__doc__.strip(), (
                    f"{cls.__name__}.{name}"
                )


def test_readme_mentions_every_deliverable():
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for token in (
        "DESIGN.md", "EXPERIMENTS.md", "examples/quickstart.py",
        "pytest benchmarks/", "repro.simulator", "repro.ordering",
    ):
        assert token in readme, token
