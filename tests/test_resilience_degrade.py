"""The degradation ladder: kernel latches, resource-pressure fallback, health.

Every test here proves the same contract from a different angle: a
degraded run *finishes with the same bits* as a clean one — the native
tier silently re-dispatches to its twins, resource pressure downgrades
to compute-without-cache, and all of it is counted, warned once, and
visible in the health report instead of crashing (or vanishing).
"""

import numpy as np
import pytest

from repro._native import core as native_core
from repro._native import counting as native_counting
from repro._native import fm as native_fm
from repro.engine import ENGINE_METADATA_KEY, VECTOR_MIN_WORK
from repro.graph.store import GraphStore
from repro.ordering import OrderingStore, get_scheme
from repro.resilience import degrade, faults
from tests.conftest import random_graph


def _set_faults(monkeypatch, spec):
    monkeypatch.setenv("REPRO_FAULTS", spec)


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """Fresh fault plans and degrade state around every test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults._PLANS.clear()
    degrade.reset()
    yield
    faults._PLANS.clear()
    degrade.reset()


@pytest.fixture
def counting_kernel():
    """The real counting-sort kernel, reset before and after the test.

    Resetting matters both ways: a previous test may have latched a
    build attempt (``_tried``), and a test that injects a build failure
    must not leave the kernel latched as unavailable for the rest of
    the session.
    """
    kernel = native_counting.KERNEL
    kernel.reset()
    yield kernel
    kernel.reset()


# ---------------------------------------------------------------------------
# record(): counters, events, one warning
# ---------------------------------------------------------------------------
class TestRecord:
    def test_counts_and_warns_once_per_site_kind(self, capsys):
        degrade.record("site-a", "kind-x", "first")
        degrade.record("site-a", "kind-x", "second")
        degrade.record("site-b", "kind-x", "other site")
        assert degrade.counters() == {
            "site-a:kind-x": 2,
            "site-b:kind-x": 1,
        }
        err = capsys.readouterr().err
        assert err.count("[degrade] site-a: kind-x") == 1
        assert err.count("[degrade] site-b: kind-x") == 1

    def test_exceptions_stringify(self):
        degrade.record("site", "kind", OSError(28, "No space left"))
        (event,) = degrade.events()
        assert "No space left" in event["detail"]

    def test_event_log_bounded_counters_exact(self):
        for index in range(degrade.MAX_EVENTS + 40):
            degrade.record("site", "kind", f"event {index}")
        assert len(degrade.events()) == degrade.MAX_EVENTS
        assert degrade.counters()["site:kind"] == degrade.MAX_EVENTS + 40

    def test_outbox_drains_once(self):
        degrade.record("site", "kind", "one")
        degrade.record("site", "kind", "two")
        drained = degrade.drain_outbox()
        assert [event["detail"] for event in drained] == ["one", "two"]
        assert degrade.drain_outbox() == []

    def test_absorb_merges_without_rewarning(self, capsys):
        degrade.record("worker-site", "kind", "worker warned already")
        drained = degrade.drain_outbox()
        capsys.readouterr()
        degrade.reset()  # simulate the parent process
        degrade.absorb(drained)
        assert degrade.counters() == {"worker-site:kind": 1}
        assert capsys.readouterr().err == ""
        # the dedup set was merged: a parent-side repeat stays quiet too
        degrade.record("worker-site", "kind", "parent repeat")
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Native kernels under injected faults (the guarded dispatch path)
# ---------------------------------------------------------------------------
KEYS = np.array([1, 0, 2, 1, 0, 2, 2, 1], dtype=np.int64)
EXPECTED = np.array([1, 4, 0, 3, 7, 2, 5, 6], dtype=np.int64)


class TestKernelFaults:
    def test_build_fail_latches_and_falls_back(
        self, monkeypatch, counting_kernel
    ):
        _set_faults(monkeypatch, "native-build-fail:p=1")
        assert counting_kernel.lib() is None
        assert native_counting.run(KEYS, 3) is None  # caller's twin runs
        assert degrade.counters() == {
            f"kernel.{counting_kernel.name}:native-build-fail": 1
        }
        # the schedule is gone, but the kernel stays off for the process
        monkeypatch.delenv("REPRO_FAULTS")
        assert native_counting.run(KEYS, 3) is None
        counting_kernel.reset()
        if counting_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        assert np.array_equal(native_counting.run(KEYS, 3), EXPECTED)

    def test_build_info_reports_degraded(
        self, monkeypatch, counting_kernel
    ):
        _set_faults(monkeypatch, "native-build-fail:p=1")
        info = counting_kernel.build_info()
        assert info["available"] is False
        assert info["status"].startswith("degraded: native-build-fail: ")
        assert "injected native-build-fail" in info["status"]
        assert info["fallback"] == info["status"]

    def test_build_info_clean_kernel_not_degraded(self, counting_kernel):
        info = counting_kernel.build_info()
        assert not info["status"].startswith("degraded")

    def test_runtime_fault_latches(self, monkeypatch, counting_kernel):
        if counting_kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        assert native_counting.run(KEYS, 3) is None  # fault -> fallback
        monkeypatch.delenv("REPRO_FAULTS")
        assert native_counting.run(KEYS, 3) is None  # still off
        assert counting_kernel.lib() is None
        info = counting_kernel.build_info()
        assert info["status"].startswith("degraded: native-runtime-fault: ")
        assert degrade.counters() == {
            f"kernel.{counting_kernel.name}:native-runtime-fault": 1
        }
        counting_kernel.reset()
        assert np.array_equal(native_counting.run(KEYS, 3), EXPECTED)

    def test_runtime_gate_routes_injected_fault(
        self, monkeypatch, counting_kernel
    ):
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        assert not native_core.runtime_gate(counting_kernel)
        assert counting_kernel.lib() is None
        assert degrade.counters() == {
            f"kernel.{counting_kernel.name}:native-runtime-fault": 1
        }

    def test_metis_under_runtime_fault_records_vector(self, monkeypatch):
        kernel = native_fm.KERNEL
        kernel.reset()
        if kernel.lib() is None:
            pytest.skip("native kernel unavailable")
        graph = random_graph(2000, 10000, seed=5)
        assert graph.num_directed_edges > VECTOR_MIN_WORK
        scheme = get_scheme("metis")
        clean = scheme.order(graph)
        assert clean.metadata[ENGINE_METADATA_KEY] == "native"
        _set_faults(monkeypatch, "native-runtime-fault:p=1")
        try:
            faulted = get_scheme("metis").order(graph)
        finally:
            # the builder's counting sort latches off too
            for name in native_core.kernel_names():
                native_core.get_kernel(name).reset()
        assert faulted.metadata[ENGINE_METADATA_KEY] == "vector"
        assert np.array_equal(faulted.permutation, clean.permutation)
        assert degrade.counters()[
            f"kernel.{kernel.name}:native-runtime-fault"
        ] == 1


# ---------------------------------------------------------------------------
# Resource pressure: disk-full, torn reads
# ---------------------------------------------------------------------------
class TestResourcePressure:
    def test_ordering_store_disk_full_computes_without_cache(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(50, 120, seed=2)
        scheme = get_scheme("bfs")
        clean = OrderingStore(str(tmp_path / "clean"))
        expected = clean.get_or_compute(graph, scheme)

        _set_faults(monkeypatch, "disk-full:p=1")
        store = OrderingStore(str(tmp_path / "full"))
        ordering = store.get_or_compute(graph, scheme)
        assert np.array_equal(ordering.permutation, expected.permutation)
        assert store.store(graph, scheme, ordering) is None
        assert degrade.counters()["ordering-store.write:disk-full"] >= 1

    def test_graph_store_disk_full_returns_none(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(30, 60, seed=1)
        _set_faults(monkeypatch, "disk-full:p=1")
        store = GraphStore(str(tmp_path))
        assert store.save("entry", graph) is None
        assert degrade.counters()["graph-store.write:disk-full"] == 1

    def test_torn_read_quarantines_and_recomputes(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(50, 120, seed=9)
        scheme = get_scheme("rcm")
        store = OrderingStore(str(tmp_path / "store"))
        expected = store.get_or_compute(graph, scheme)  # clean write

        _set_faults(monkeypatch, "store-torn-read:p=1")
        again = store.get_or_compute(graph, scheme)
        assert np.array_equal(again.permutation, expected.permutation)
        assert store.quarantined >= 1
        assert degrade.counters()["ordering-store:quarantined"] >= 1

    def test_graph_store_torn_read_quarantines(
        self, monkeypatch, tmp_path
    ):
        graph = random_graph(30, 60, seed=4)
        store = GraphStore(str(tmp_path))
        assert store.save("entry", graph) is not None
        _set_faults(monkeypatch, "store-torn-read:p=1")
        assert store.load("entry") is None
        assert store.quarantined == 1
        assert degrade.counters()["graph-store:quarantined"] == 1


# ---------------------------------------------------------------------------
# Health reporting
# ---------------------------------------------------------------------------
class TestHealth:
    def test_clean_process_is_healthy(self):
        report = degrade.health_report()
        assert report["healthy"]
        assert report["counters"] == {}
        assert "ok (no degradation recorded)" in degrade.format_health()

    def test_degraded_process_reports_everything(self, counting_kernel):
        degrade.record("some-site", "some-kind", "detail")
        counting_kernel.disable("native-runtime-fault", RuntimeError("boom"))
        report = degrade.health_report()
        assert not report["healthy"]
        text = degrade.format_health(report)
        assert "degraded-sites=2" in text
        assert (
            f"[counter] kernel.{counting_kernel.name}:native-runtime-fault: 1"
            in text
        )
        assert "[counter] some-site:some-kind: 1" in text
