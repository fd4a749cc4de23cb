"""The supervised pool: equivalence, retries, respawn, timeouts, cleanup.

Everything here runs without ``REPRO_FAULTS`` trickery — real crashes
(``os._exit``), real hangs (``sleep``), real exceptions — so the
supervisor's recovery machinery is exercised against genuine process
behaviour.  The injected-fault schedules are covered separately in
``test_resilience_faults.py``.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.resilience.supervisor import CellResult, run_supervised


@pytest.fixture(autouse=True)
def _no_injected_faults(knobs):
    """This file tests genuine failures; keep injected ones out even
    when the chaos CI leg exports ``REPRO_FAULTS``."""
    knobs(REPRO_FAULTS=None)


def _double(x):
    return x * 2


def _tag_pid(x):
    return (x, os.getpid())


def _crash_on_two(x):
    if x == 2:
        os._exit(99)
    return x * 2


def _fail_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x * 2


def _slow(x):
    time.sleep(2.0)
    return x


def _hang_on_one(x):
    if x == 1:
        time.sleep(60)
    return x + 10


def _crash_until_marker(cell):
    """Crash hard unless this cell's marker file already exists."""
    value, marker_dir = cell
    marker = os.path.join(marker_dir, f"marker-{value}")
    if value == 3 and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8"):
            pass
        os._exit(99)
    return value * 2


def _values(results):
    return [r.value for r in results]


class TestEquivalence:
    def test_parallel_matches_sequential(self):
        cells = list(range(16))
        seq = run_supervised(_double, cells, jobs=1)
        par = run_supervised(_double, cells, jobs=4)
        assert _values(seq) == _values(par) == [c * 2 for c in cells]

    def test_results_in_input_order(self):
        cells = [9, 1, 7, 3, 5]
        results = run_supervised(_double, cells, jobs=3)
        assert _values(results) == [18, 2, 14, 6, 10]

    def test_structured_results(self):
        (result,) = run_supervised(_double, [21], jobs=1)
        assert isinstance(result, CellResult)
        assert result.ok and result.value == 42
        assert result.error is None
        assert result.attempts == 1
        assert result.duration >= 0.0

    def test_parallel_uses_worker_processes(self):
        results = run_supervised(_tag_pid, list(range(8)), jobs=2)
        pids = {pid for _, pid in _values(results)}
        assert os.getpid() not in pids

    def test_empty_cells(self):
        assert run_supervised(_double, [], jobs=4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            run_supervised(_double, [1], jobs=0)
        with pytest.raises(ValueError):
            run_supervised(_double, [1], retries=-1)


class TestWorkerDeath:
    def test_persistent_crash_degrades_cell_only(self):
        results = run_supervised(_crash_on_two, range(8), jobs=4, retries=2)
        assert not results[2].ok
        assert results[2].attempts == 3
        assert "worker died" in results[2].error
        assert "99" in results[2].error
        for i in (0, 1, 3, 4, 5, 6, 7):
            assert results[i].ok and results[i].value == i * 2

    def test_crash_once_then_succeed(self, tmp_path):
        cells = [(i, str(tmp_path)) for i in range(6)]
        results = run_supervised(_crash_until_marker, cells, jobs=3, retries=2)
        assert all(r.ok for r in results)
        assert _values(results) == [i * 2 for i in range(6)]
        assert results[3].attempts == 2  # died once, respawned, retried
        assert all(
            r.attempts == 1 for i, r in enumerate(results) if i != 3
        )

    def test_zero_retries_degrades_immediately(self):
        results = run_supervised(_crash_on_two, range(4), jobs=2, retries=0)
        assert not results[2].ok and results[2].attempts == 1


class TestExceptionsAndTimeouts:
    def test_exception_degrades_with_description(self):
        results = run_supervised(_fail_on_two, range(5), jobs=2, retries=1)
        assert not results[2].ok
        assert results[2].attempts == 2
        assert "ValueError" in results[2].error
        assert "boom" in results[2].error

    def test_sequential_exception_degrades_identically(self):
        seq = run_supervised(_fail_on_two, range(5), jobs=1, retries=1)
        par = run_supervised(_fail_on_two, range(5), jobs=2, retries=1)
        assert [(r.ok, r.value, r.attempts) for r in seq] == [
            (r.ok, r.value, r.attempts) for r in par
        ]

    def test_hung_cell_times_out_and_degrades(self):
        results = run_supervised(
            _hang_on_one, range(4), jobs=2, timeout=0.5, retries=1
        )
        assert not results[1].ok
        assert "timed out" in results[1].error
        assert results[1].attempts == 2
        for i in (0, 2, 3):
            assert results[i].ok and results[i].value == i + 10

    def test_timeout_enforced_at_width_one(self):
        """A deadline holds at ``jobs=1`` too: the cell runs in a worker
        process the supervisor can stop, not in-process."""
        start = time.monotonic()
        (result,) = run_supervised(
            _slow, [1], jobs=1, timeout=0.2, retries=0
        )
        assert not result.ok
        assert "timed out" in result.error
        assert time.monotonic() - start < 2.0  # not waited out


class TestCleanup:
    def test_no_leaked_children_after_run(self):
        run_supervised(_double, range(8), jobs=4)
        run_supervised(_crash_on_two, range(6), jobs=3, retries=1)
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, (
                multiprocessing.active_children()
            )
            time.sleep(0.05)

    def test_keyboard_interrupt_reaps_workers(self, tmp_path):
        """Ctrl-C during a wide grid must not leak worker processes."""
        script = textwrap.dedent("""
            import sys, time
            from repro.resilience.supervisor import run_supervised

            def slow(x):
                time.sleep(30)
                return x

            print("started", flush=True)
            run_supervised(slow, range(4), jobs=2)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().strip() == b"started"
            time.sleep(1.0)  # let the pool spawn and dispatch
            os.killpg(proc.pid, signal.SIGINT)
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode != 0  # KeyboardInterrupt propagated
        # The process group is gone: no surviving workers to signal.
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
