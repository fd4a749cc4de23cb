"""Documentation hygiene: docstrings on every public item, and docs
that match the code they describe."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

from repro.analysis import rules

REPO_ROOT = Path(__file__).resolve().parent.parent

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
    "repro.resilience.supervisor",
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
    readme = (REPO_ROOT / "README.md").read_text()
    for token in (
        "DESIGN.md", "EXPERIMENTS.md", "examples/quickstart.py",
        "pytest benchmarks/", "repro.simulator", "repro.ordering",
    ):
        assert token in readme, token


# ---------------------------------------------------------------------------
# Environment knobs: the README table lists exactly what the code reads
# ---------------------------------------------------------------------------
def _env_key(node, parents, constants):
    """The key expression of the environment read at ``node``, if any.

    Covers ``os.environ.get(K)``, ``os.getenv(K)``, ``os.environ[K]``
    and ``K in os.environ``; a key is a string literal or a module-level
    string constant.
    """
    parent = parents.get(node)
    key = None
    if isinstance(parent, ast.Call) and parent.func is node:
        key = parent.args[0] if parent.args else None
    elif isinstance(parent, ast.Subscript) and parent.value is node:
        key = parent.slice
    elif isinstance(parent, ast.Compare) and node in parent.comparators:
        key = parent.left
    elif isinstance(parent, ast.Attribute):
        call = parents.get(parent)
        if isinstance(call, ast.Call) and call.func is parent and call.args:
            key = call.args[0]
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.Name) and key.id in constants:
        return constants[key.id]
    return None


def _env_reads() -> list[tuple[str, str]]:
    """``(path, name)`` for every ``REPRO_*`` read under ``src/repro``.

    The reads are found with the ``env-read`` rule's own matcher, so a
    read the lint would flag (or exempt) cannot escape this check.
    """
    reads = []
    src = REPO_ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        parents = {
            child: node
            for node in ast.walk(tree)
            for child in ast.iter_child_nodes(node)
        }
        for node, parts in rules.env_accesses(tree):
            key = _env_key(node, parents, constants)
            assert key is not None, (
                f"{path}:{node.lineno}: unresolvable {'.'.join(parts)} key"
            )
            if key.startswith("REPRO_"):
                reads.append((path.relative_to(src).as_posix(), key))
    return reads


def _readme_knobs() -> set[str]:
    """The ``REPRO_*`` names in the README's environment-knob table."""
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.split("Environment knobs:", 1)[1].split("\n\n")[1]
    return set(re.findall(r"^\| `(REPRO_[A-Z_]+)", table, re.MULTILINE))


def test_readme_knob_table_matches_the_code():
    documented = _readme_knobs()
    read = {name for _file, name in _env_reads()}
    assert documented == read, (
        f"README lists but code never reads: {sorted(documented - read)}; "
        f"code reads but README omits: {sorted(read - documented)}"
    )


def test_cache_dir_has_one_reader():
    readers = [
        file for file, name in _env_reads() if name == "REPRO_CACHE_DIR"
    ]
    assert readers == ["repro/resilience/store.py"], readers
