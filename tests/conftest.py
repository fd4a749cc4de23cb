"""Shared fixtures: small hand-constructed graphs with known properties."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro import config
from repro.analysis import sanitize
from repro.engine import use_engine
from repro.graph import CSRGraph, from_edges

REPO_ROOT = Path(__file__).resolve().parents[1]

#: the per-artifact ``(N.Ns)`` wall-time stamp of the bench CLI headers.
_STAMP = re.compile(r" \(\d+\.\ds\) ==$", re.MULTILINE)


def strip_stamps(stdout: str) -> str:
    """Bench CLI output with its wall-time stamps removed."""
    return _STAMP.sub(" ==", stdout)


def run_bench(
    args: list[str], cache_dir: Path, **env: str
) -> subprocess.CompletedProcess:
    """``python -m repro.bench <args>`` in a child on ``cache_dir``.

    The child sees none of the caller's ``REPRO_*`` knobs (a chaos leg's
    ``REPRO_FAULTS`` must not leak into a clean reference run) — only
    the cache directory and the extra ``env`` given here.
    """
    child_env = {
        k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
    }
    child_env.update(
        PYTHONPATH=str(REPO_ROOT / "src"),
        REPRO_CACHE_DIR=str(cache_dir),
        **env,
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        cwd=REPO_ROOT, env=child_env, capture_output=True, text=True,
        timeout=600,
    )


def _reset_kernels() -> None:
    from repro._native import core

    for name in core.kernel_names():
        core.get_kernel(name).reset()


@contextmanager
def kernels_off():
    """Run the block as a host whose native kernels did not build.

    Appends ``native-build-fail:p=1`` to the ambient ``REPRO_FAULTS``
    (``;``-joined, so a chaos plan such as ``make test-faults``'s stays
    armed), re-parses the config and resets every kernel.  On exit the
    ambient plan comes back and every kernel is reset again, so the
    next ``lib()`` builds afresh.
    """
    ambient = (os.environ.get("REPRO_FAULTS") or "").strip()
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_FAULTS",
        ";".join(filter(None, (ambient, "native-build-fail:p=1"))),
    )
    config.reload()
    _reset_kernels()
    try:
        yield
    finally:
        patch.undo()
        config.reload()
        _reset_kernels()


#: the legs of an equivalence test: the C kernels, a host whose kernels
#: did not build, and the scalar reference.
LEGS = ("native", "kernels_off", "scalar")


def on_leg(leg: str):
    """The context that runs its block on ``leg`` (one of :data:`LEGS`)."""
    return kernels_off() if leg == "kernels_off" else use_engine(leg)


@pytest.fixture
def knobs():
    """Repoint environment knobs: ``knobs(REPRO_FAULTS="disk-full")``.

    A string sets a knob and ``None`` unsets it; every call re-parses
    :mod:`repro.config`.  Teardown restores the environment and then
    reloads, so every test ends on the ambient snapshot (the one
    ``make test-faults`` exports its ``REPRO_FAULTS`` into).
    """
    patch = pytest.MonkeyPatch()

    def set_knobs(**values: str | None) -> None:
        for name, value in values.items():
            if value is None:
                patch.delenv(name, raising=False)
            else:
                patch.setenv(name, value)
        config.reload()

    yield set_knobs
    patch.undo()
    config.reload()


@pytest.fixture(autouse=True)
def _isolated_ordering_cache(tmp_path, knobs):
    """Route the persistent ordering cache into each test's tmp dir.

    Keeps test runs from writing `.repro-cache/` into the repo and from
    seeing entries persisted by other tests or earlier runs.
    """
    knobs(REPRO_CACHE_DIR=str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _reset_resilience_state():
    """Restore pool defaults and the degraded-cell set after each test.

    Deliberately leaves ``REPRO_FAULTS`` alone: the chaos CI leg
    (``make test-faults``) exports it so the equivalence suites run with
    injected faults active — clearing it here would neuter that leg.
    (:func:`knobs` gives each test a fresh plan built from it.)
    """
    from repro.bench import pool, runners
    from repro.resilience import degrade

    yield
    runners.reset_degraded()
    pool.set_default_jobs(1)
    pool.set_default_timeout(None)
    pool.set_default_retries(2)
    degrade.reset()


@pytest.fixture(autouse=True)
def _no_kernel_left_degraded():
    """Fail a test that leaves a native kernel off for an unarmed reason.

    The twins are bit-identical, so a kernel left off would turn every
    later native-vs-twin test into twin-vs-twin, and none of them would
    fail.  An injected ``native-build-fail`` is the one expected way to
    turn a kernel off (armed by the test, or exported by ``make
    bench-native``'s second leg); any other degraded kernel, a real
    compile error, fails the test.  Either way every degraded kernel is
    reset, so the next test starts clean.  Only kernel state is read:
    ``lib()`` would start builds.
    """
    from repro._native import core

    yield
    unexpected = []
    for name in core.kernel_names():
        kernel = core.get_kernel(name)
        if kernel.status.startswith("degraded"):
            if "injected native-build-fail" not in kernel.status:
                unexpected.append(f"{name}: {kernel.status}")
            kernel.reset()
    if unexpected:
        pytest.fail(f"native kernel left degraded: {unexpected}")


@pytest.fixture(autouse=True)
def _numeric_sanitizer():
    """Arm the numeric sanitizer for every test when REPRO_SANITIZE=1.

    When the switch is unset this yields inside a null context and costs
    nothing; with ``REPRO_SANITIZE=1`` (the CI equivalence legs) every
    test body runs with numpy raising on float overflow/invalid, plus
    the boundary checks in :mod:`repro.analysis.sanitize` active.
    """
    with sanitize.sanitized():
        yield


def make_path(n: int) -> CSRGraph:
    """Path 0-1-2-...-(n-1)."""
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def make_cycle(n: int) -> CSRGraph:
    """Cycle over n vertices."""
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def make_star(leaves: int) -> CSRGraph:
    """Star: hub 0 with `leaves` leaves."""
    return from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def make_clique(n: int, offset: int = 0):
    """Edge list of a clique over [offset, offset+n)."""
    return [
        (offset + i, offset + j)
        for i in range(n)
        for j in range(i + 1, n)
    ]


def make_two_cliques(k: int = 5) -> CSRGraph:
    """Two k-cliques joined by a single bridge edge."""
    edges = make_clique(k) + make_clique(k, offset=k)
    edges.append((k - 1, k))
    return from_edges(2 * k, edges)


def make_grid(w: int, h: int) -> CSRGraph:
    """w x h grid graph."""
    edges = []
    for y in range(h):
        for x in range(w):
            v = y * w + x
            if x + 1 < w:
                edges.append((v, v + 1))
            if y + 1 < h:
                edges.append((v, v + w))
    return from_edges(w * h, edges)


def random_graph(n: int, m: int, seed: int = 0) -> CSRGraph:
    """Random multigraph input canonicalised into a simple graph."""
    rng = np.random.default_rng(seed)
    src = rng.integers(n, size=m)
    dst = rng.integers(n, size=m)
    return from_edges(n, np.column_stack((src, dst)))


@pytest.fixture
def path7() -> CSRGraph:
    return make_path(7)


@pytest.fixture
def cycle8() -> CSRGraph:
    return make_cycle(8)


@pytest.fixture
def star6() -> CSRGraph:
    return make_star(6)


@pytest.fixture
def two_cliques() -> CSRGraph:
    return make_two_cliques(5)


@pytest.fixture
def grid5x4() -> CSRGraph:
    return make_grid(5, 4)


@pytest.fixture
def medium_random() -> CSRGraph:
    return random_graph(120, 400, seed=5)


def raw_csr_graph():
    """A CSR no builder made: a duplicate weighted entry (0-1 twice),
    self-loops (2-2, 5-5), one-sided entries (3 lists 4 and 7 lists 6,
    neither listed back) and an unsorted row."""
    rows = {
        0: [(1, 0.5), (1, 1.25), (2, 2.0), (8, 1.0)],
        1: [(0, 0.75), (3, 1.5)],
        2: [(2, 4.0), (0, 2.0), (9, 0.5)],
        3: [(4, 3.0), (1, 1.5)],
        4: [(5, 1.0)],
        5: [(5, 1.0), (4, 1.0), (6, 2.5)],
        6: [(5, 2.5)],
        7: [(6, 1.0), (8, 0.25)],
        8: [(7, 0.25), (0, 1.0), (9, 2.0)],
        9: [(8, 2.0), (2, 0.5)],
    }
    indptr = np.zeros(11, dtype=np.int64)
    indices, weights = [], []
    for v in range(10):
        indptr[v + 1] = indptr[v] + len(rows[v])
        for u, w in rows[v]:
            indices.append(u)
            weights.append(w)
    return CSRGraph(indptr, np.asarray(indices), np.asarray(weights))
