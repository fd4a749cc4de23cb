"""The public API surface: imports, __all__ hygiene, end-to-end flow."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.graph",
    "repro.datasets",
    "repro.measures",
    "repro.ordering",
    "repro.partition",
    "repro.community",
    "repro.simulator",
    "repro.apps",
    "repro.bench",
    "repro.resilience",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{package}.{name} missing"


def test_version():
    import repro
    assert repro.__version__


def _loaded_modules(*argv: str) -> set[str]:
    """``sys.modules`` after a child ran ``python -m <argv>`` in-process."""
    import json
    import os
    import subprocess
    import sys

    from tests.conftest import REPO_ROOT

    probe = (
        "import json, runpy, sys\n"
        f"sys.argv = {list(argv)!r}\n"
        "try:\n"
        "    runpy.run_module(sys.argv[0], run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=dict(env, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_repro_loads_no_submodule():
    """The package exports resolve on first access (PEP 562)."""
    import os
    import subprocess
    import sys

    from tests.conftest import REPO_ROOT

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; "
         "print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.stdout.strip() == "['repro']"


def test_native_info_imports_only_the_kernels():
    """``--native-info`` is served before any experiment is imported."""
    loaded = _loaded_modules("repro.bench", "--native-info")
    assert "repro._native.rabbit" in loaded  # the probe did run
    banned = [
        "multiprocessing",
        *(f"repro.bench.{m}"
          for m in ("experiments", "ablations", "extensions", "perf")),
        *(f"repro.{m}"
          for m in ("apps", "simulator", "community", "partition",
                    "ordering", "graph", "measures", "datasets")),
    ]
    assert not [
        m for m in loaded
        if any(m == b or m.startswith(b + ".") for b in banned)
    ]


def test_quickstart_flow():
    """The README quickstart, verbatim."""
    from repro.datasets import load
    from repro.ordering import get_scheme
    from repro.measures import gap_measures

    graph = load("chicago_road")
    ordering = get_scheme("rcm").order(graph)
    measures = gap_measures(graph, ordering.permutation)
    assert measures.bandwidth < 50
