"""The reprolint rule set: positive, suppressed, and clean cases per rule."""

from __future__ import annotations

import ast
import importlib.util
import json
import textwrap

import pytest

from repro.analysis import core, rules
from repro.analysis.core import (
    Finding,
    available_rules,
    baseline_entries,
    load_baseline,
    render_json,
    render_text,
    scan_paths,
    scan_source,
    split_by_baseline,
)

EXPECTED_RULES = {
    "unseeded-rng",
    "wall-clock",
    "unordered-iter",
    "env-read",
    "mutable-default",
    "bare-oserror-swallow",
}


def lint(source: str, *, module: str = "repro.ordering.fake") -> list[Finding]:
    return scan_source(
        textwrap.dedent(source),
        rel_path="src/repro/ordering/fake.py",
        module=module,
    )


def rules_of(findings: list[Finding]) -> set[str]:
    return {f.rule for f in findings}


def test_rule_registry_complete():
    assert EXPECTED_RULES <= set(available_rules())


# ----------------------------------------------------------------------
# unseeded-rng
# ----------------------------------------------------------------------
class TestUnseededRng:
    def test_stdlib_random_flagged(self):
        findings = lint(
            """
            import random
            x = random.random()
            """
        )
        assert rules_of(findings) == {"unseeded-rng"}

    def test_from_random_import_flagged(self):
        findings = lint(
            """
            from random import shuffle
            shuffle(items)
            """
        )
        assert rules_of(findings) == {"unseeded-rng"}

    def test_legacy_numpy_random_flagged(self):
        findings = lint(
            """
            import numpy as np
            x = np.random.randint(10)
            """
        )
        assert rules_of(findings) == {"unseeded-rng"}

    def test_unseeded_default_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert rules_of(findings) == {"unseeded-rng"}

    def test_seeded_default_rng_clean(self):
        assert not lint(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            rng2 = np.random.default_rng(seed)
            rng3 = np.random.default_rng(seed=7)
            """
        )

    def test_suppressed(self):
        assert not lint(
            """
            import random
            x = random.random()  # reprolint: disable=unseeded-rng
            """
        )


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    SOURCE = """
        import time
        from datetime import datetime
        t = time.perf_counter()
        d = datetime.now()
        """

    def test_flagged_in_hot_module(self):
        findings = lint(self.SOURCE)
        assert rules_of(findings) == {"wall-clock"}
        assert len(findings) == 2

    def test_exempt_in_bench_module(self):
        assert not lint(self.SOURCE, module="repro.bench.perf")

    def test_exempt_in_analysis_module(self):
        assert not lint(self.SOURCE, module="repro.analysis.core")

    def test_non_clock_time_attr_clean(self):
        assert not lint(
            """
            import time
            time.sleep(0.1)
            """
        )

    def test_suppressed(self):
        assert not lint(
            """
            import time
            t = time.time()  # reprolint: disable=wall-clock
            """
        )


# ----------------------------------------------------------------------
# unordered-iter
# ----------------------------------------------------------------------
class TestUnorderedIter:
    def test_for_over_set_literal_flagged(self):
        findings = lint(
            """
            for x in {1, 2, 3}:
                pass
            """
        )
        assert rules_of(findings) == {"unordered-iter"}

    def test_for_over_bound_set_flagged(self):
        findings = lint(
            """
            live = set(range(8))
            for t in live:
                pass
            """
        )
        assert rules_of(findings) == {"unordered-iter"}

    def test_list_of_set_flagged(self):
        findings = lint(
            """
            frontier = {1, 2}
            order = list(frontier)
            """
        )
        assert rules_of(findings) == {"unordered-iter"}

    def test_comprehension_over_set_algebra_flagged(self):
        findings = lint(
            """
            a = {1, 2}
            b = {2, 3}
            out = [x for x in a - b]
            """
        )
        assert rules_of(findings) == {"unordered-iter"}

    def test_sorted_set_clean(self):
        assert not lint(
            """
            live = {3, 1, 2}
            for t in sorted(live):
                pass
            order = sorted(live)
            """
        )

    def test_rebinding_to_ordered_clears_taint(self):
        assert not lint(
            """
            items = {1, 2, 3}
            items = sorted(items)
            for x in items:
                pass
            """
        )

    def test_function_scope_isolated(self):
        # A set bound inside one function does not taint another's loop.
        assert not lint(
            """
            def a():
                items = {1, 2}
                return sorted(items)

            def b(items):
                for x in items:
                    pass
            """
        )

    def test_suppressed(self):
        assert not lint(
            """
            s = {1, 2}
            for x in s:  # reprolint: disable=unordered-iter
                pass
            """
        )


# ----------------------------------------------------------------------
# env-read
# ----------------------------------------------------------------------
# modules that take a knob's value from the ``repro.config`` snapshot
KNOB_READERS = frozenset(
    {
        "repro._native.core",
        "repro.analysis.sanitize",
        "repro.engine",
        "repro.resilience.faults",
        "repro.resilience.store",
    }
)


class TestEnvRead:
    SOURCE = """
        import os
        mode = os.environ.get("REPRO_MODE")
        flag = os.getenv("REPRO_FLAG")
        """

    def test_flagged_outside_sanctioned_modules(self):
        findings = lint(self.SOURCE)
        assert rules_of(findings) == {"env-read"}
        assert len(findings) == 2

    def test_sanctioned_config_module_clean(self):
        assert not lint(self.SOURCE, module="repro.config")

    def test_analysis_package_not_exempt(self):
        findings = lint(self.SOURCE, module="repro.analysis.sanitize")
        assert rules_of(findings) == {"env-read"}

    def test_from_import_flagged(self):
        findings = lint(
            """
            from os import environ
            mode = environ["X"]
            """
        )
        assert rules_of(findings) == {"env-read"}

    def test_suppressed(self):
        assert not lint(
            """
            import os
            mode = os.getenv("X")  # reprolint: disable=env-read
            """
        )

    @pytest.mark.parametrize(
        "module", sorted(rules.SANCTIONED_ENV_MODULES | KNOB_READERS)
    )
    def test_sanctioned_module_exists_and_reads_env(self, module):
        # a stale entry (deleted module, or one that no longer reads
        # the environment) silently widens the rule's exemption; a knob
        # reader outside it must take its value from the config snapshot
        spec = importlib.util.find_spec(module)
        assert spec is not None and spec.origin, module
        with open(spec.origin, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        nodes = list(ast.walk(tree))
        reads_os = any(
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
            for node in nodes
        )
        if module in rules.SANCTIONED_ENV_MODULES:
            assert reads_os, f"{module} reads no environment variable"
            return
        assert not reads_os, f"{module} reads the environment directly"
        assert any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "config"
            for node in nodes
        ), f"{module} reads no knob from the config snapshot"


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_literal_defaults_flagged(self):
        findings = lint(
            """
            def f(x=[]):
                pass

            def g(*, y={}):
                pass
            """
        )
        assert rules_of(findings) == {"mutable-default"}
        assert len(findings) == 2

    def test_constructor_default_flagged(self):
        findings = lint(
            """
            def f(x=set()):
                pass
            """
        )
        assert rules_of(findings) == {"mutable-default"}

    def test_immutable_defaults_clean(self):
        assert not lint(
            """
            def f(x=None, y=(), z="s", n=3):
                pass
            """
        )

    def test_suppressed(self):
        assert not lint(
            """
            def f(x=[]):  # reprolint: disable=mutable-default
                pass
            """
        )


# ----------------------------------------------------------------------
# bare-oserror-swallow
# ----------------------------------------------------------------------
class TestBareOserrorSwallow:
    def test_pass_body_flagged(self):
        findings = lint(
            """
            import os
            def f(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            """
        )
        assert rules_of(findings) == {"bare-oserror-swallow"}

    def test_bare_return_and_continue_flagged(self):
        findings = lint(
            """
            import os
            def f(path):
                try:
                    os.unlink(path)
                except OSError:
                    return
            def g(paths):
                for path in paths:
                    try:
                        os.unlink(path)
                    except IOError:
                        continue
            def h(path):
                try:
                    os.unlink(path)
                except (ValueError, OSError):
                    return None
            """
        )
        assert rules_of(findings) == {"bare-oserror-swallow"}
        assert len(findings) == 3

    def test_degrade_comment_exempts(self):
        assert not lint(
            """
            import os
            def f(path):
                try:
                    os.unlink(path)
                except OSError:
                    pass  # degrade: scratch file on a refusing volume
            """
        )

    def test_routed_handler_clean(self):
        assert not lint(
            """
            import os
            from repro.resilience import degrade
            def f(path):
                try:
                    os.unlink(path)
                except OSError as exc:
                    degrade.record("site", "kind", exc)
                    return None
            """
        )

    def test_subclass_handlers_not_flagged(self):
        assert not lint(
            """
            import os
            def f(path):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
            """
        )

    def test_value_returning_handler_clean(self):
        assert not lint(
            """
            import os
            def f(path, reports):
                try:
                    os.unlink(path)
                except OSError:
                    return reports
            """
        )


# ----------------------------------------------------------------------
# Scanner mechanics: suppressions, parse errors, baseline, reporters
# ----------------------------------------------------------------------
def test_bare_disable_suppresses_every_rule():
    assert not lint(
        """
        import random
        x = random.random()  # reprolint: disable
        """
    )


def test_suppression_is_per_line():
    findings = lint(
        """
        import random
        x = random.random()  # reprolint: disable=unseeded-rng
        y = random.random()
        """
    )
    assert len(findings) == 1
    assert findings[0].line == 4


def test_parse_error_reported_as_finding():
    findings = lint("def broken(:\n")
    assert rules_of(findings) == {"parse-error"}


def test_rule_filter_limits_scan():
    source = textwrap.dedent(
        """
        import random
        x = random.random()

        def f(x=[]):
            pass
        """
    )
    findings = scan_source(
        source,
        rel_path="src/repro/fake.py",
        module="repro.fake",
        rules=["mutable-default"],
    )
    assert rules_of(findings) == {"mutable-default"}


def test_unknown_rule_raises():
    with pytest.raises(KeyError):
        scan_source(
            "x = 1\n",
            rel_path="f.py",
            module="m",
            rules=["no-such-rule"],
        )


def test_findings_render_with_location():
    findings = lint(
        """
        import random
        x = random.random()
        """
    )
    text = render_text(findings)
    assert "src/repro/ordering/fake.py:3:" in text
    assert "unseeded-rng" in text
    payload = json.loads(render_json(findings))
    assert payload["findings"][0]["rule"] == "unseeded-rng"
    assert len(payload["findings"]) == 1


def test_baseline_split_and_staleness(tmp_path):
    findings = lint(
        """
        import random
        x = random.random()
        """
    )
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline_entries(findings)))
    baseline = load_baseline(baseline_path)

    new, baselined, stale = split_by_baseline(findings, baseline)
    assert not new and not stale
    assert len(baselined) == len(findings)

    # A fixed finding leaves its entry stale; a fresh one is new.
    fresh = Finding("env-read", "src/repro/other.py", 1, 0, "msg")
    new, baselined, stale = split_by_baseline([fresh], baseline)
    assert new == [fresh]
    assert not baselined
    assert len(stale) == len(findings)


def test_scan_paths_parallel_matches_serial(tmp_path):
    (tmp_path / "dirty.py").write_text(
        "import random\nx = random.random()\n"
    )
    (tmp_path / "clean.py").write_text("x = 1\n")
    serial = scan_paths([tmp_path], repo_root=tmp_path, jobs=1)
    parallel = scan_paths([tmp_path], repo_root=tmp_path, jobs=2)
    assert serial == parallel
    assert rules_of(serial) == {"unseeded-rng"}


def test_repo_tree_is_lint_clean():
    """The committed tree has zero unbaselined findings (the CI gate)."""
    findings = scan_paths([core.SRC_ROOT / "repro"])
    baseline = load_baseline()
    new, _, stale = split_by_baseline(findings, baseline)
    assert not new, render_text(new)
    assert not stale, f"stale baseline entries: {stale}"
