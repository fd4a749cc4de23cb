"""clint fixture suite: every C rule fires, and the race gate agrees.

Each synthetic kernel below seeds exactly the hazard one rule guards —
a cross-thread store, a leaked allocation, a ``rand()`` call, a bare
``int`` loop index, an uninitialized read, an unguarded cursor write —
and the tests prove the rule fires on it (and stays quiet on the fixed
variant).  The suppression grammar and the baseline round-trip are
pinned against :mod:`repro.analysis.core`'s machinery, and the seeded
race fixture is additionally compiled under the ``tsan`` profile and
driven for real: the acceptance bar is that the *same* race is caught
by both the static rule (``c-racy-store``) and ThreadSanitizer.
"""

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro._native import collect_sanitizer_reports
from repro.analysis.clint import (
    NATIVE_ROOT,
    c_rule_help,
    check_native_sources,
    discover_kernels,
    scan_kernel_source,
)
from repro.analysis.core import baseline_entries, split_by_baseline

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# Fixture kernels: one seeded hazard each
# ----------------------------------------------------------------------
#: A threaded kernel whose task body accumulates into a *shared* field
#: instead of a shard-private slot — the canonical data race.  Used both
#: statically (c-racy-store) and dynamically (compiled and run under
#: ThreadSanitizer in the end-to-end test below).
RACY_SRC = r"""
#include <stdint.h>

typedef struct {
    const int64_t *values;
    int64_t n;
    int64_t total;
} race_job;

static void race_task(void *argp, int64_t tid, int64_t nthreads)
{
    race_job *job = (race_job *)argp;
    int64_t lo, hi;
    repro_shard(job->n, tid, nthreads, &lo, &hi);
    for (int64_t i = lo; i < hi; i++)
        job->total += job->values[i];
}

int64_t race_sum(const int64_t *values, int64_t n, int64_t nthreads)
{
    race_job job = {values, n, 0};
    repro_parallel_for(race_task, &job, nthreads);
    return job.total;
}
"""

LEAKY_SRC = r"""
#include <stdint.h>
#include <stdlib.h>

int64_t leaky(int64_t n)
{
    int64_t *buf = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    int64_t *tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!tmp)
        return -1;
    if (n > 4)
        return 0;
    free(tmp);
    return buf ? 1 : 0;
}
"""

NONDET_SRC = r"""
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

int64_t jitter(void)
{
    srand((unsigned)time(NULL));
    return (int64_t)rand();
}
"""

NARROW_SRC = r"""
#include <stdint.h>

int64_t count_up(int64_t n)
{
    int64_t total = 0;
    for (int i = 0; i < n; i++)
        total += 1;
    return total;
}
"""

UNINIT_SRC = r"""
#include <stdint.h>

int64_t acc_bug(const int64_t *v, int64_t n)
{
    int64_t acc;
    for (int64_t i = 0; i < n; i++)
        acc += v[i];
    return acc;
}

void out_param_ok(int64_t n)
{
    int64_t lo;
    helper(&lo, n);
}
"""

CURSOR_SRC = r"""
#include <stdint.h>

int64_t pack(const int64_t *v, int64_t n, int64_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++)
        if (v[i] > 0)
            out[pos++] = v[i];
    return pos;
}
"""

CURSOR_GUARDED_SRC = r"""
#include <stdint.h>

int64_t pack(const int64_t *v, int64_t n, int64_t *out)
{
    int64_t pos = 0;
    for (int64_t i = 0; i < n; i++)
        if (v[i] > 0 && pos < n)
            out[pos++] = v[i];
    return pos;
}
"""

#: The racy task rewritten the way every shipped kernel does it: each
#: shard owns a private output slot indexed by tid.
SHARDED_SRC = r"""
#include <stdint.h>

typedef struct {
    const int64_t *values;
    int64_t n;
    int64_t partial[64];
} shard_job;

static void shard_task(void *argp, int64_t tid, int64_t nthreads)
{
    shard_job *job = (shard_job *)argp;
    int64_t lo, hi;
    repro_shard(job->n, tid, nthreads, &lo, &hi);
    int64_t acc = 0;
    for (int64_t i = lo; i < hi; i++)
        acc += job->values[i];
    job->partial[tid] = acc;
}

int64_t shard_sum(const int64_t *values, int64_t n, int64_t nthreads)
{
    shard_job job;
    job.values = values;
    job.n = n;
    repro_parallel_for(shard_task, &job, nthreads);
    int64_t total = 0;
    for (int64_t t = 0; t < nthreads; t++)
        total += job.partial[t];
    return total;
}
"""


def rules_of(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# Each rule fires on its seeded fixture (and only that rule)
# ----------------------------------------------------------------------
def test_racy_store_fires_on_shared_accumulator():
    findings = scan_kernel_source("racy", RACY_SRC, threaded=True)
    assert rules_of(findings) == ["c-racy-store"]
    (finding,) = findings
    assert "job->total" in finding.message
    assert "race_task" in finding.message


def test_racy_store_quiet_on_shard_private_stores():
    assert scan_kernel_source("sharded", SHARDED_SRC, threaded=True) == []


def test_racy_store_only_applies_to_threaded_kernels():
    """The same source is fine when the kernel never spawns threads."""
    assert scan_kernel_source("racy", RACY_SRC, threaded=False) == []


def test_malloc_leak_fires_on_both_variants():
    findings = scan_kernel_source("leaky", LEAKY_SRC)
    assert rules_of(findings) == ["c-malloc-leak"]
    messages = "\n".join(f.message for f in findings)
    # 'buf' is never freed at all; 'tmp' leaks on the early return.
    assert "never frees" in messages and "'buf'" in messages
    assert "return path" in messages and "'tmp'" in messages
    # the return directly under tmp's own null-check is exempt
    assert len(findings) == 2


def test_nondeterminism_fires_per_call():
    findings = scan_kernel_source("jitter", NONDET_SRC)
    assert rules_of(findings) == ["c-nondeterminism"]
    called = sorted(f.message.split("(")[0].split()[-1] for f in findings)
    assert called == ["rand", "srand", "time"]


def test_int_width_fires_on_bare_int_index():
    findings = scan_kernel_source("narrow", NARROW_SRC)
    assert rules_of(findings) == ["c-int-width"]
    assert "'int'" in findings[0].message


def test_uninitialized_read_fires_but_out_params_do_not():
    findings = scan_kernel_source("uninit", UNINIT_SRC)
    assert rules_of(findings) == ["c-uninitialized-read"]
    (finding,) = findings
    assert "'acc'" in finding.message  # &lo in out_param_ok is a write


def test_unchecked_write_fires_without_a_bound():
    findings = scan_kernel_source("cursor", CURSOR_SRC)
    assert rules_of(findings) == ["c-unchecked-write"]
    assert "'pos++'" in findings[0].message


def test_unchecked_write_quiet_with_a_bound():
    assert scan_kernel_source("cursor", CURSOR_GUARDED_SRC) == []


def test_rule_help_covers_every_emitted_rule():
    help_rules = set(c_rule_help())
    for source, threaded in (
        (RACY_SRC, True),
        (LEAKY_SRC, False),
        (NONDET_SRC, False),
        (NARROW_SRC, False),
        (UNINIT_SRC, False),
        (CURSOR_SRC, False),
    ):
        for finding in scan_kernel_source("k", source, threaded=threaded):
            assert finding.rule in help_rules


# ----------------------------------------------------------------------
# Suppressions and line anchoring
# ----------------------------------------------------------------------
RACY_LINE = "        job->total += job->values[i];"


def test_suppression_silences_named_rule():
    patched = RACY_SRC.replace(
        RACY_LINE,
        RACY_LINE + " /* clint: disable=c-racy-store (fixture) */",
    )
    assert patched != RACY_SRC
    assert scan_kernel_source("racy", patched, threaded=True) == []


def test_bare_suppression_silences_every_rule():
    patched = RACY_SRC.replace(
        RACY_LINE, RACY_LINE + " /* clint: disable */"
    )
    assert scan_kernel_source("racy", patched, threaded=True) == []


def test_suppression_for_other_rule_does_not_apply():
    patched = RACY_SRC.replace(
        RACY_LINE, RACY_LINE + " /* clint: disable=c-malloc-leak */"
    )
    findings = scan_kernel_source("racy", patched, threaded=True)
    assert rules_of(findings) == ["c-racy-store"]


def test_suppression_is_same_line_only():
    """A disable comment on the line above does not leak downward."""
    patched = RACY_SRC.replace(
        RACY_LINE,
        "        /* clint: disable=c-racy-store */\n" + RACY_LINE,
    )
    findings = scan_kernel_source("racy", patched, threaded=True)
    assert rules_of(findings) == ["c-racy-store"]


def test_findings_anchor_to_the_embedding_py_line():
    c_line = RACY_SRC.split("\n").index(RACY_LINE) + 1
    findings = scan_kernel_source(
        "racy", RACY_SRC, threaded=True,
        rel_path="src/repro/_native/fake.py", literal_line=100,
    )
    (finding,) = findings
    assert finding.path == "src/repro/_native/fake.py"
    assert finding.line == 100 + c_line - 1
    assert finding.message.startswith("[racy]")


# ----------------------------------------------------------------------
# Baseline round-trip through the shared reporter machinery
# ----------------------------------------------------------------------
def test_baseline_round_trip():
    findings = [
        *scan_kernel_source("leaky", LEAKY_SRC),
        *scan_kernel_source("jitter", NONDET_SRC),
    ]
    assert findings
    entries = baseline_entries(findings)["findings"]
    new, baselined, stale = split_by_baseline(findings, entries)
    assert new == [] and stale == []
    assert len(baselined) == len(findings)

    # drop one accepted entry: that finding is new again
    new, baselined, stale = split_by_baseline(findings, entries[1:])
    assert len(new) == 1 and stale == []

    # an entry with no live finding behind it is stale
    ghost = dict(entries[0], rule="c-malloc-leak", message="gone")
    new, baselined, stale = split_by_baseline(findings, [*entries, ghost])
    assert new == [] and len(stale) == 1


# ----------------------------------------------------------------------
# Discovery and the registry double-entry check
# ----------------------------------------------------------------------
def test_real_tree_is_clean():
    """The shipped kernels carry no unbaselined C finding (the --clint
    gate); any suppression in the tree must be inline and justified."""
    assert check_native_sources() == []


def test_discovery_matches_the_runtime_registry():
    from repro import _native

    discovered = {k.name: k for k in discover_kernels()}
    assert set(discovered) == set(_native.kernel_names())
    for name, kernel in discovered.items():
        assert kernel.threaded == _native.get_kernel(name).threaded
        assert kernel.source, f"{name} source not resolved by discovery"
        assert kernel.rel_path.startswith("src/repro/_native/")
        assert kernel.literal_line > 0


def test_registry_cross_check_fires_both_directions():
    discovered = discover_kernels()
    findings = check_native_sources(registered={"ghost_kernel"})
    unreg = [f for f in findings if f.rule == "c-unregistered-kernel"]
    # every real construction is "missing" from the fake registry...
    assert len([f for f in unreg if "dodge the runtime gate" in f.message]) \
        == len(discovered)
    # ...and the fake registration has no construction behind it
    assert any("'ghost_kernel'" in f.message for f in unreg)


def test_discovery_on_a_synthetic_tree(tmp_path):
    module = textwrap.dedent(
        '''
        from .core import NativeKernel

        _SOURCE = r"""
        #include <stdint.h>
        #include <stdlib.h>

        int64_t bad(void)
        {
            return (int64_t)rand();
        }
        """

        ONE = NativeKernel("one", _SOURCE, symbols={},
                           scalar_twin="a:b", vector_twin="a:b")
        TWO = NativeKernel("two", "int x;", symbols={},
                           scalar_twin="a:b", vector_twin="a:b",
                           threaded=True, serial_twin="a:b")
        '''
    )
    (tmp_path / "mod.py").write_text(module)
    kernels = {k.name: k for k in discover_kernels(tmp_path,
                                                   repo_root=tmp_path)}
    assert set(kernels) == {"one", "two"}
    assert kernels["one"].threaded is False
    assert kernels["two"].threaded is True
    assert "rand()" in kernels["one"].source
    # the _SOURCE binding anchors at the literal, not the call
    assert kernels["one"].literal_line < kernels["one"].call_line

    findings = check_native_sources(
        tmp_path, registered={"one", "two"}, repo_root=tmp_path
    )
    assert rules_of(findings) == ["c-nondeterminism"]
    assert findings[0].path == "mod.py"


def test_clint_cli_reports_the_sources_it_linted(capsys):
    """``--clint`` counts every kernel plus the thread-pool helper."""
    from repro import _native
    from repro.analysis.__main__ import main

    assert main(["--clint"]) == 0
    count = len(_native.kernel_names()) + 1
    assert count > 1
    assert f"across {count} file(s)" in capsys.readouterr().out


def test_helper_is_linted_with_the_real_tree():
    """THREAD_POOL_HELPER itself goes through the rules (it holds the
    pthread plumbing every threaded kernel embeds)."""
    names = {k.name for k in discover_kernels()}
    assert "thread_pool_helper" not in names  # not a NativeKernel call
    assert (NATIVE_ROOT / "core.py").exists()
    # check_native_sources is clean above, which covers the helper too


# ----------------------------------------------------------------------
# End to end: the seeded race is caught by BOTH halves of the gate
# ----------------------------------------------------------------------
def _tsan_runtime():
    """Path to libtsan.so, or None when the toolchain cannot provide it."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if not cc:
        return None
    try:
        proc = subprocess.run(
            [cc, "-print-file-name=libtsan.so"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    path = proc.stdout.strip()
    return path if path and os.path.isfile(path) else None


TSAN_DRIVER = """
import ctypes

from repro._native import core as native_core

kernel = native_core.NativeKernel(
    "clint_race_fixture",
    {source!r},
    symbols={{
        "race_sum": (
            (ctypes.POINTER(ctypes.c_int64), ctypes.c_int64,
             ctypes.c_int64),
            ctypes.c_int64,
        ),
    }},
    scalar_twin="builtins:sum",
    vector_twin="builtins:sum",
    threaded=True,
    serial_twin="builtins:sum",
)
lib = kernel.lib()
assert lib is not None, kernel.build_info()["status"]
assert kernel.build_info()["profile"] == "tsan"
n = 1 << 20
values = (ctypes.c_int64 * n)()
for _ in range(4):
    lib.race_sum(values, n, 4)
"""


def test_seeded_race_caught_by_lint_and_tsan(tmp_path):
    # Static half: clint's thread-discipline rule flags the store.
    findings = scan_kernel_source(
        "clint_race_fixture", RACY_SRC, threaded=True
    )
    assert any(f.rule == "c-racy-store" for f in findings)

    # Dynamic half: the same source, built under the tsan profile and
    # driven across four threads, must trip ThreadSanitizer.
    runtime = _tsan_runtime()
    if runtime is None:
        pytest.skip("no C toolchain with libtsan.so")
    log_dir = tmp_path / "tsan-logs"
    log_dir.mkdir()
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["REPRO_NATIVE_SANITIZE"] = "tsan"
    env["LD_PRELOAD"] = runtime
    env["TSAN_OPTIONS"] = f"log_path={log_dir}/report:exitcode=66"
    proc = subprocess.run(
        [sys.executable, "-c", TSAN_DRIVER.format(source=RACY_SRC)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    reports = collect_sanitizer_reports(str(log_dir))
    summaries = [r["summary"] for r in reports]
    assert proc.returncode == 66, (proc.returncode, proc.stderr, summaries)
    assert reports, "TSan exited 66 but wrote no log_path report"
    assert any(r["kind"] == "tsan" for r in reports)
    assert any("data race" in r["text"] for r in reports)
