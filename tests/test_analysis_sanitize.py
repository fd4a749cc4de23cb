"""Runtime numeric sanitizer: armed checks, disabled no-ops, integrations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import SanitizerError
from repro.graph.csr import CSRGraph
from repro.graph.permute import validate_ordering
from repro.ordering.base import OperationCounter
from repro.simulator.batch import lru_stack_distances
from tests.conftest import LEGS, on_leg


@pytest.fixture
def armed(knobs):
    knobs(REPRO_SANITIZE="1")


@pytest.fixture
def disarmed(knobs):
    knobs(REPRO_SANITIZE=None)


# ----------------------------------------------------------------------
# Switch semantics
# ----------------------------------------------------------------------
def test_disabled_by_default(disarmed):
    assert not sanitize.enabled()
    # Every check is a no-op when disarmed — even on garbage input.
    sanitize.check_csr(np.array([3.5]), np.array([1.5]))
    sanitize.check_permutation(np.array([0.5]), 3)
    sanitize.check_integral(np.array([0.5]))
    sanitize.check_dtype(np.zeros(2, np.int32), np.int64)


def test_zero_means_disabled(knobs):
    knobs(REPRO_SANITIZE=" 0 ")
    assert not sanitize.enabled()


def test_enabled_when_set(armed):
    assert sanitize.enabled()


def test_sanitized_raises_on_float_overflow(armed):
    with pytest.raises(FloatingPointError):
        with sanitize.sanitized():
            np.float64(1e308) * np.float64(10.0)


def test_sanitized_nullcontext_when_disarmed(disarmed):
    from contextlib import nullcontext

    assert isinstance(sanitize.sanitized(), nullcontext)


def test_guarded_decorator(armed):
    @sanitize.guarded
    def overflowing():
        return np.float64(1e308) * np.float64(10.0)

    with pytest.raises(FloatingPointError):
        overflowing()


def test_guarded_reads_switch_per_call(knobs):
    @sanitize.guarded
    def overflowing():
        return np.float64(1e308) * np.float64(10.0)

    knobs(REPRO_SANITIZE=None)
    # Neutralise any ambient errstate (e.g. the suite-wide sanitizer
    # fixture when the whole run is armed) so only guarded() decides.
    with np.errstate(over="ignore"):
        assert np.isinf(overflowing())
    knobs(REPRO_SANITIZE="1")
    with pytest.raises(FloatingPointError):
        overflowing()


# ----------------------------------------------------------------------
# check_csr
# ----------------------------------------------------------------------
def test_check_csr_accepts_valid(armed):
    sanitize.check_csr(
        np.array([0, 2, 4], dtype=np.int64),
        np.array([1, 1, 0, 0], dtype=np.int64),
        np.ones(4),
    )


def test_check_csr_rejects_float_arrays(armed):
    with pytest.raises(SanitizerError, match="non-integer"):
        sanitize.check_csr(
            np.array([0.0, 1.0]), np.array([0], dtype=np.int64)
        )


def test_check_csr_rejects_narrow_dtype_overflow(armed):
    # 200 directed edges cannot be addressed through int8 indices.
    indices = np.zeros(200, dtype=np.int8)
    indptr = np.array([0, 200], dtype=np.int64)
    with pytest.raises(SanitizerError, match="overflow"):
        sanitize.check_csr(indptr, indices)


def test_check_csr_rejects_non_monotone_indptr(armed):
    with pytest.raises(SanitizerError, match="monotone"):
        sanitize.check_csr(
            np.array([0, 3, 2], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
        )


def test_check_csr_rejects_out_of_range_indices(armed):
    with pytest.raises(SanitizerError, match="out-of-range"):
        sanitize.check_csr(
            np.array([0, 2], dtype=np.int64),
            np.array([0, 5], dtype=np.int64),
        )


def test_check_csr_rejects_nonfinite_weights(armed):
    with pytest.raises(SanitizerError, match="non-finite"):
        sanitize.check_csr(
            np.array([0, 1], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([np.inf]),
        )


# ----------------------------------------------------------------------
# check_permutation / check_integral / check_dtype
# ----------------------------------------------------------------------
def test_check_permutation_accepts_bijection(armed):
    sanitize.check_permutation(np.array([2, 0, 1], dtype=np.int64), 3)


def test_check_permutation_rejects_duplicates(armed):
    with pytest.raises(SanitizerError, match="bijection"):
        sanitize.check_permutation(np.array([0, 0, 2], dtype=np.int64), 3)


def test_check_permutation_rejects_wrong_length(armed):
    with pytest.raises(SanitizerError, match="length"):
        sanitize.check_permutation(np.array([0, 1], dtype=np.int64), 3)


def test_check_integral_rejects_float(armed):
    with pytest.raises(SanitizerError, match="truncate"):
        sanitize.check_integral(np.array([1.5, 2.0]), where="unit")


def test_check_integral_accepts_ints_and_bools(armed):
    sanitize.check_integral(np.array([1, 2], dtype=np.int32))
    sanitize.check_integral(np.array([True, False]))


def test_check_dtype_mismatch(armed):
    with pytest.raises(SanitizerError, match="downcast"):
        sanitize.check_dtype(np.zeros(2, np.int32), np.int64, where="unit")


# ----------------------------------------------------------------------
# Boundary integrations
# ----------------------------------------------------------------------
def test_csrgraph_structural_errors_stay_valueerror(armed):
    # The sanitizer must not shadow the constructor's ValueError contract.
    with pytest.raises(ValueError):
        CSRGraph(np.array([1, 2]), np.array([0, 0]))


def test_csrgraph_rejects_float_input_when_armed(armed):
    with pytest.raises(SanitizerError):
        CSRGraph(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]))


def test_csrgraph_accepts_float_input_when_disarmed(disarmed):
    graph = CSRGraph(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0]))
    assert graph.num_edges == 1


def test_validate_ordering_rejects_float_when_armed(armed):
    with pytest.raises(SanitizerError):
        validate_ordering(np.array([0.0, 1.0]))


def test_simulator_line_stream_rejects_float_when_armed(armed):
    with pytest.raises(SanitizerError):
        lru_stack_distances(np.array([0.5, 1.5]))


@pytest.mark.parametrize("leg", ["native", "kernels_off"])
def test_simulated_region_line_checks_when_armed(armed, leg):
    """An empty line list is no float stream; a float one is, with the
    kernels on or off."""
    from repro.simulator import SimulatedMachine, WorkItem

    machine = SimulatedMachine(2)
    with on_leg(leg):
        result = machine.run_dynamic(
            [WorkItem([], 5), WorkItem([1, 2], 3)], chunk=1
        )
        assert result.thread_cycles[0] == 5
        assert sum(result.thread_loads) == 2
        with pytest.raises(SanitizerError):
            machine.run_dynamic([WorkItem([1, 2], 3), WorkItem([0.5], 1)])


@pytest.mark.parametrize("leg", LEGS)
def test_static_region_line_checks_when_armed(armed, leg):
    """Per-thread lists replayed by ``run`` are checked on every leg,
    not only where the kernel flattens them."""
    from repro.simulator import SimulatedMachine, WorkItem

    machine = SimulatedMachine(2)
    with on_leg(leg):
        result = machine.run([[WorkItem([], 5)], [WorkItem([1, 2], 3)]])
        assert result.thread_loads == (0, 2)
        with pytest.raises(SanitizerError):
            machine.run([[WorkItem([1, 2], 3)], [WorkItem([0.5], 1)]])


def test_count_sort_batch_rejects_float_sizes():
    counter = OperationCounter()
    with pytest.raises(TypeError, match="integer sizes"):
        counter.count_sort_batch(np.array([2.0, 4.0]))


def test_count_sort_batch_promotes_narrow_dtypes():
    batch = OperationCounter()
    batch.count_sort_batch(np.array([70, 90, 100], dtype=np.int8))
    scalar = OperationCounter()
    for n in (70, 90, 100):
        scalar.count_sort(n)
    assert batch.compare_ops == scalar.compare_ops


def test_counters_stay_python_ints():
    counter = OperationCounter()
    counter.count_vertices(np.int32(2 ** 30))
    counter.count_vertices(np.int32(2 ** 30))
    counter.count_edges(np.int64(5))
    # numpy int32 accumulation would have wrapped; python ints never do.
    assert counter.vertex_ops == 2 ** 31
    assert type(counter.vertex_ops) is int
    assert type(counter.edge_ops) is int
