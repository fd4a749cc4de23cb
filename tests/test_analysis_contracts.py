"""Engine-parity contract checker: green on the tree, red on broken wiring."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.contracts import (
    check_bench_floors,
    check_contracts,
    check_equivalence_coverage,
    check_native_twins,
    check_ordering_sources,
    check_scalar_twins,
    check_scheme_classes,
    gated_functions,
    index_tree,
)


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise a synthetic ``repro`` package under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root / "repro"


GATED_KERNEL = """
    from ..engine import use_engine


    def _hot_scalar(x):
        return x


    def hot(x):
        if use_engine() == "native":
            return x
        return _hot_scalar(x)
    """

ENGINE_STUB = """
    def use_engine():
        return "native"
    """


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_current_tree_passes_every_contract():
    assert check_contracts() == []


def test_current_tree_has_gated_functions():
    """The checker is not vacuous: the tree really contains engine gates."""
    index = index_tree()
    gated = [g for info in index.values() for g in gated_functions(info)]
    assert len(gated) >= 10


def test_exempt_modules_are_skipped():
    index = index_tree()
    for module, info in index.items():
        if module.startswith(("repro.engine", "repro.bench", "repro.analysis")):
            assert gated_functions(info) == []


# ----------------------------------------------------------------------
# Synthetic trees: each contract must fail on the wiring it guards
# ----------------------------------------------------------------------
def test_orphaned_scalar_twin_detected(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/kernel/__init__.py": "",
            "repro/kernel/hot.py": """
                from ..engine import use_engine


                def hot(x):
                    if use_engine() == "native":
                        return x
                    return _hot_scalar(x)
                """,
        },
    )
    index = index_tree(src)
    findings = check_scalar_twins(index)
    assert [f.rule for f in findings] == ["parity-scalar-twin"]
    assert "_hot_scalar" in findings[0].message


def test_self_dispatch_scalar_twin_detected(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/hot.py": """
                from .engine import use_engine


                class Kernel:
                    def run(self, x):
                        if use_engine() == "native":
                            return x
                        return self.run_scalar(x)
                """,
        },
    )
    findings = check_scalar_twins(index_tree(src))
    assert [f.rule for f in findings] == ["parity-scalar-twin"]
    assert "self.run_scalar" in findings[0].message


def test_resolvable_scalar_twin_passes(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/kernel/__init__.py": "",
            "repro/kernel/hot.py": GATED_KERNEL,
        },
    )
    assert check_scalar_twins(index_tree(src)) == []


def test_gated_module_without_equivalence_test_detected(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/kernel/__init__.py": "",
            "repro/kernel/hot.py": GATED_KERNEL,
        },
    )
    tests_root = tmp_path / "tests"
    tests_root.mkdir()
    findings = check_equivalence_coverage(index_tree(src), tests_root)
    assert [f.rule for f in findings] == ["parity-equivalence-test"]
    assert "repro.kernel.hot" in findings[0].message


def test_direct_import_coverage_passes(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/kernel/__init__.py": "",
            "repro/kernel/hot.py": GATED_KERNEL,
        },
    )
    tests_root = tmp_path / "tests"
    tests_root.mkdir()
    (tests_root / "test_hot_equivalence.py").write_text(
        textwrap.dedent(
            """
            import repro.kernel.hot
            from repro.engine import use_engine
            """
        )
    )
    assert check_equivalence_coverage(index_tree(src), tests_root) == []


def test_transitive_coverage_through_imports(tmp_path):
    """A test importing a facade covers the gated module it imports."""
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/facade.py": """
                from .kernel import hot
                """,
            "repro/kernel/__init__.py": "",
            "repro/kernel/hot.py": GATED_KERNEL,
        },
    )
    tests_root = tmp_path / "tests"
    tests_root.mkdir()
    (tests_root / "test_facade_equivalence.py").write_text(
        "import repro.facade  # drives use_engine both ways\n"
    )
    assert check_equivalence_coverage(index_tree(src), tests_root) == []


def test_scheme_contract_violations_detected(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/base.py": """
                class OrderingScheme:
                    name = ""

                    def cache_token(self, graph):
                        return self.name

                    def order(self, graph):
                        raise NotImplementedError
                """,
            "repro/broken.py": """
                from .base import OrderingScheme


                class NamelessScheme(OrderingScheme):
                    pass
                """,
        },
    )
    findings = check_scheme_classes(index_tree(src))
    rules = [f.rule for f in findings]
    assert rules and set(rules) == {"scheme-contract"}
    messages = " ".join(f.message for f in findings)
    assert "NamelessScheme" in messages
    assert "name" in messages
    assert "compute" in messages


def test_complete_scheme_passes(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/good.py": """
                class OrderingScheme:
                    pass


                class DegreeSort(OrderingScheme):
                    name = "degsort"

                    def compute(self, graph, counter):
                        return None
                """,
        },
    )
    assert check_scheme_classes(index_tree(src)) == []


def test_real_tree_schemes_define_cache_tokens():
    """Every registered scheme in the tree resolves a cache_token."""
    findings = check_scheme_classes(index_tree())
    assert findings == []


# ----------------------------------------------------------------------
# bench-ordering-source contract
# ----------------------------------------------------------------------
def _experiments_tree(tmp_path, experiments_source):
    return write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/bench/__init__.py": "",
            "repro/bench/experiments.py": experiments_source,
            # outside the contract's scope: direct calls stay legal here
            "repro/bench/ablations.py": """
                def sweep(scheme, graph):
                    return scheme.order(graph)
                """,
        },
    )


def test_direct_order_call_in_experiments_detected(tmp_path):
    src = _experiments_tree(
        tmp_path,
        """
        from ..ordering import MetisOrder


        def _metis_cell(graph, parts):
            return MetisOrder(num_parts=parts).order(graph)
        """,
    )
    findings = check_ordering_sources(index_tree(src))
    assert [f.rule for f in findings] == ["bench-ordering-source"]
    assert findings[0].path.endswith("repro/bench/experiments.py")
    assert findings[0].line == 6
    assert "cached_order" in findings[0].message


def test_aliased_compute_in_experiments_detected(tmp_path):
    src = _experiments_tree(
        tmp_path,
        """
        def _cell(scheme, graph, counter, rng):
            run = scheme.compute
            return run(graph, counter, rng)
        """,
    )
    findings = check_ordering_sources(index_tree(src))
    assert [f.rule for f in findings] == ["bench-ordering-source"]


def test_store_backed_experiments_pass(tmp_path):
    src = _experiments_tree(
        tmp_path,
        """
        from ..ordering import MetisOrder
        from ..ordering.store import cached_order
        from .runners import ordering_for


        def _metis_cell(graph, parts):
            return cached_order(graph, MetisOrder(num_parts=parts))


        def _cd_cell(scheme, dataset):
            return ordering_for(scheme, dataset)
        """,
    )
    assert check_ordering_sources(index_tree(src)) == []


def test_ordering_source_rule_runs_in_check_contracts(tmp_path):
    src = _experiments_tree(
        tmp_path,
        """
        def _cell(scheme, graph):
            return scheme.order(graph)
        """,
    )
    tests_root = tmp_path / "tests"
    tests_root.mkdir()
    rules = {f.rule for f in check_contracts(src, tests_root)}
    assert "bench-ordering-source" in rules


def test_real_experiments_get_orderings_through_the_store():
    assert check_ordering_sources(index_tree()) == []


# ----------------------------------------------------------------------
# bench-floor contract
# ----------------------------------------------------------------------
GOOD_PERF = """
    FLOOR_A = 2.0

    STAGES = {
        "replay": {"flag": None, "floor": "FLOOR_A"},
        "apps": {"flag": "--apps", "floor": "FLOOR_A"},
    }


    def measure(args):
        pass


    def measure_apps(args):
        pass
    """

GOOD_MAKEFILE = """\
bench-perf:
\tpython -m repro.bench.perf --check
\tpython -m repro.bench.perf --apps --check
"""


def write_bench(tmp_path, perf_source, makefile_source):
    perf = tmp_path / "perf.py"
    perf.write_text(textwrap.dedent(perf_source))
    makefile = tmp_path / "Makefile"
    makefile.write_text(makefile_source)
    return perf, makefile


def test_bench_floor_wiring_passes(tmp_path):
    perf, makefile = write_bench(tmp_path, GOOD_PERF, GOOD_MAKEFILE)
    assert check_bench_floors(perf, makefile) == []


def test_unregistered_measure_stage_detected(tmp_path):
    perf, makefile = write_bench(
        tmp_path,
        textwrap.dedent(GOOD_PERF)
        + "\n\ndef measure_orderings(args):\n    pass\n",
        GOOD_MAKEFILE,
    )
    findings = check_bench_floors(perf, makefile)
    assert any(
        f.rule == "bench-floor" and "measure_orderings" in f.message
        for f in findings
    )


def test_missing_floor_constant_detected(tmp_path):
    perf, makefile = write_bench(
        tmp_path,
        GOOD_PERF.replace('"floor": "FLOOR_A"', '"floor": "NO_SUCH"'),
        GOOD_MAKEFILE,
    )
    findings = check_bench_floors(perf, makefile)
    assert any("NO_SUCH" in f.message for f in findings)


def test_makefile_stage_not_checked_detected(tmp_path):
    perf, makefile = write_bench(
        tmp_path,
        GOOD_PERF,
        "bench-perf:\n\tpython -m repro.bench.perf --check\n",
    )
    findings = check_bench_floors(perf, makefile)
    assert any(
        f.rule == "bench-floor" and "'apps'" in f.message for f in findings
    )


def test_missing_stages_registry_detected(tmp_path):
    perf, makefile = write_bench(
        tmp_path,
        "def measure(args):\n    pass\n",
        GOOD_MAKEFILE,
    )
    findings = check_bench_floors(perf, makefile)
    assert any("STAGES" in f.message for f in findings)


def test_real_bench_wiring_passes():
    assert check_bench_floors() == []


# ----------------------------------------------------------------------
# Native-twin contract: kernels name a resolvable scalar twin
# ----------------------------------------------------------------------
NATIVE_TREE_BASE = {
    "repro/__init__.py": "",
    "repro/ref.py": """
        def scalar_k(x):
            return x
        """,
    "repro/_native/__init__.py": "",
    "repro/_native/core.py": """
        class NativeKernel:
            def __init__(self, *a, **kw):
                pass
        """,
}


def _native_tree(tmp_path, scalar_twin: str = "repro.ref:scalar_k"):
    files = dict(NATIVE_TREE_BASE)
    files["repro/_native/foo.py"] = f"""
        from .core import NativeKernel


        KERNEL = NativeKernel(
            "k",
            "int x;",
            symbols={{}},
            scalar_twin="{scalar_twin}",
        )
        """
    src = write_tree(tmp_path, files)
    return check_native_twins(index_tree(src))


def test_kernel_with_resolvable_twins_passes(tmp_path):
    assert _native_tree(tmp_path) == []


def test_kernel_with_unresolvable_twin_detected(tmp_path):
    findings = _native_tree(tmp_path, scalar_twin="repro.ref:missing")
    assert [f.rule for f in findings] == ["native-twin"]
    assert "'repro.ref:missing'" in findings[0].message


# ----------------------------------------------------------------------
# End-to-end: check_contracts on a broken synthetic tree
# ----------------------------------------------------------------------
def test_check_contracts_fails_on_orphaned_gate(tmp_path):
    src = write_tree(
        tmp_path,
        {
            "repro/__init__.py": "",
            "repro/engine.py": ENGINE_STUB,
            "repro/hot.py": """
                from .engine import use_engine


                def hot(x):
                    if use_engine() == "native":
                        return x
                    return hot_scalar(x)
                """,
        },
    )
    tests_root = tmp_path / "tests"
    tests_root.mkdir()
    findings = check_contracts(src, tests_root)
    rules = {f.rule for f in findings}
    assert "parity-scalar-twin" in rules
    assert "parity-equivalence-test" in rules
