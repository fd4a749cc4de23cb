"""The run configuration: one parse of the environment per process.

Every knob follows one rule (stripped; empty means unset; the two
enumerated knobs case-insensitive), a malformed knob fails at parse
time naming itself, and once parsed no hot path reads the environment
again — pool workers included.
"""

import os
from collections.abc import MutableMapping

import pytest

from repro import config
from repro.analysis import sanitize
from repro.apps.community_detection import run_community_detection
from repro.bench.pool import map_cells_detailed
from repro.engine import resolve_engine
from repro.ordering import PAPER_SCHEMES, get_scheme
from repro.resilience import faults
from tests.conftest import random_graph


class _NoKnobReads(MutableMapping):
    """``os.environ`` stand-in that fails any ``REPRO_*`` lookup."""

    def __init__(self, environ):
        self._environ = environ

    def __getitem__(self, key):
        if str(key).startswith("REPRO_"):
            raise AssertionError(f"environment read of {key}")
        return self._environ[key]

    def __setitem__(self, key, value):
        self._environ[key] = value

    def __delitem__(self, key):
        del self._environ[key]

    def __iter__(self):
        return iter(self._environ)

    def __len__(self):
        return len(self._environ)


def _cache_dir():
    return config.get().cache_dir


# REPRO_FAULTS and REPRO_NATIVE_SANITIZE take the same rule in
# test_resilience_faults.py and test_native_kernels.py.
@pytest.mark.parametrize(
    "knob, raw, read, expected",
    [
        ("REPRO_ORDERING_ENGINE", "", resolve_engine, "native"),
        ("REPRO_ORDERING_ENGINE", " Scalar ", resolve_engine, "scalar"),
        ("REPRO_SANITIZE", " ", sanitize.enabled, False),
        ("REPRO_SANITIZE", " 1 ", sanitize.enabled, True),
        ("REPRO_CACHE_DIR", " ", _cache_dir, config.DEFAULT_CACHE_DIR),
        ("REPRO_CACHE_DIR", " alt ", _cache_dir, "alt"),
    ],
)
def test_one_rule_for_every_knob(knobs, knob, raw, read, expected):
    knobs(**{knob: raw})
    assert read() == expected


@pytest.mark.parametrize(
    "knob, raw",
    [
        ("REPRO_ORDERING_ENGINE", "simd"),
        ("REPRO_ORDERING_ENGINE", "vector"),
        ("REPRO_NATIVE_SANITIZE", "msan"),
        ("REPRO_FAULTS", "disk-on-fire"),
    ],
)
def test_malformed_knob_fails_at_parse(knobs, knob, raw):
    with pytest.raises(ValueError, match=knob):
        knobs(**{knob: raw})  # re-parses through config.reload()
    with pytest.raises(ValueError, match=knob):
        config.get()  # and keeps failing until the knob is fixed


def test_reload_builds_a_fresh_fault_plan(knobs):
    knobs(REPRO_FAULTS="cache-corrupt")
    plan = faults.active_plan()
    assert faults.active_plan() is plan
    assert plan.next_entry_count("entry") == 0
    assert plan.next_entry_count("entry") == 1
    config.reload()
    assert faults.active_plan() is not plan
    assert faults.active_plan().next_entry_count("entry") == 0


def test_hot_paths_read_no_environment(monkeypatch):
    graph = random_graph(60, 180, seed=3)
    config.get()
    monkeypatch.setattr(os, "environ", _NoKnobReads(os.environ))
    for name in PAPER_SCHEMES:
        ordering = get_scheme(name).order(graph)
    run_community_detection(graph, ordering, num_threads=2)


def _resolved_engine(_cell):
    return resolve_engine()


def test_forked_workers_inherit_the_snapshot(knobs, monkeypatch):
    knobs(REPRO_ORDERING_ENGINE="scalar")
    monkeypatch.setattr(os, "environ", _NoKnobReads(os.environ))
    results = map_cells_detailed(_resolved_engine, range(2), jobs=2)
    assert [r.error for r in results] == [None, None]
    assert [r.value for r in results] == ["scalar", "scalar"]
