"""Shared fixtures: small hand-constructed graphs with known properties."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import sanitize
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


@pytest.fixture(autouse=True)
def _isolated_ordering_cache(tmp_path, monkeypatch):
    """Route the persistent ordering cache into each test's tmp dir.

    Keeps test runs from writing `.repro-cache/` into the repo and from
    seeing entries persisted by other tests or earlier runs.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(autouse=True)
def _reset_resilience_state():
    """Restore pool defaults and the degraded-cell set after each test.

    Deliberately leaves ``REPRO_FAULTS`` alone: the chaos CI leg
    (``make test-faults``) exports it so the equivalence suites run with
    injected faults active — clearing it here would neuter that leg.
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
