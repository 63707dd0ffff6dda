"""Thread-parallel native kernel: determinism, config, and fallback.

Generated kernels carry an in-process pthread driver.  The load-bearing
contract is *bit-identical results for every thread count*: the row
partition splits on fixed compile-time block boundaries, so threading
never reorders a reduction.  This suite locks that in across dtypes,
query types, and chunk-seam batch sizes, plus the configuration
surface around it: ``threads=`` / ``REPRO_NATIVE_THREADS`` validation
(:class:`~repro.errors.RuntimeConfigError` naming the offending
source), per-thread observability, the ``inference_backend`` context
manager's exception-safety, and the no-compiler degradation of a
threaded ask.
"""

import os
import warnings

import numpy as np
import pytest

from repro.compiler.cgen import BLOCK_ROWS, MAX_KERNEL_THREADS
from repro.compiler.native_build import (
    clear_native_kernels,
    compiler_command,
    get_native_kernel,
    native_or_plan_log_likelihood,
    resolve_native_threads,
    set_native_observability,
)
from repro.errors import ReproError, RuntimeConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace_export import HostSpanRecorder
from repro.spn import (
    compile_plan,
    get_inference_backend,
    inference_backend,
    log_likelihood,
    plan_log_likelihood,
    random_spn,
    set_inference_backend,
)

needs_cc = pytest.mark.skipif(
    compiler_command() is None, reason="no C compiler on this host"
)

#: Thread counts exercised against the single-thread baseline: an even
#: split, a count coprime with the block grid, and whatever this host
#: actually has.
THREAD_COUNTS = sorted({2, 7, os.cpu_count() or 1})


@pytest.fixture(autouse=True)
def _isolated_native_cache(tmp_path, monkeypatch):
    """Route kernel artifacts to a throwaway dir and drop the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    clear_native_kernels()
    yield
    clear_native_kernels()


def _plan_and_batch(n_rows, seed=3):
    spn = random_spn(4, depth=3, n_bins=5, seed=seed)
    plan = compile_plan(spn)
    rng = np.random.default_rng(seed + 1)
    data = rng.integers(0, 5, size=(n_rows, plan.n_data_columns)).astype(
        np.float64
    )
    data[rng.random(data.shape) < 0.1] = 255.0
    return plan, data


# ---------------------------------------------------------------------------
# Bit-identical results for every thread count
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_thread_count_invariance_all_query_types(dtype):
    """Every thread count reproduces the 1-thread root bit-for-bit,
    for both storage dtypes and all three query flavours."""
    plan, data = _plan_and_batch(20001)
    kernel = get_native_kernel(plan, dtype, require=True)
    for kwargs in (
        {},
        {"marginalized": [1, 3]},
        {"missing_value": 255.0},
    ):
        baseline = kernel.log_likelihood(data, threads=1, **kwargs)
        for nt in THREAD_COUNTS:
            got = kernel.log_likelihood(data, threads=nt, **kwargs)
            assert np.array_equal(baseline, got), (
                f"threads={nt} diverged from threads=1 for query "
                f"{kwargs!r} dtype {np.dtype(dtype).name}"
            )


@needs_cc
def test_thread_count_invariance_at_chunk_seams():
    """Batch sizes straddling the block grid (and single-row batches)
    stay bit-identical when threaded — thread chunks split on block
    boundaries, so seams are where an off-by-one would show."""
    plan, data = _plan_and_batch(0)
    kernel = get_native_kernel(plan, np.float64, require=True)
    block = BLOCK_ROWS
    _, data = _plan_and_batch(2 * block + 3)
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 3):
        baseline = kernel.log_likelihood(data[:n], threads=1)
        for nt in THREAD_COUNTS:
            got = kernel.log_likelihood(data[:n], threads=nt)
            assert np.array_equal(baseline, got), (
                f"batch size {n} (block {block}) diverged at "
                f"threads={nt}"
            )


@needs_cc
def test_env_var_thread_count_matches_explicit(monkeypatch):
    """``REPRO_NATIVE_THREADS`` routes through the same resolution as
    ``threads=`` and produces the same (bit-identical) results."""
    plan, data = _plan_and_batch(9001)
    kernel = get_native_kernel(plan, np.float64, require=True)
    baseline = kernel.log_likelihood(data, threads=1)
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
    assert np.array_equal(baseline, kernel.log_likelihood(data))
    # An explicit argument beats the environment.
    assert np.array_equal(
        baseline, kernel.log_likelihood(data, threads=1)
    )


# ---------------------------------------------------------------------------
# Thread-count validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, -3, 2.5, "two"])
def test_threads_argument_validation(bad):
    with pytest.raises(RuntimeConfigError, match="threads="):
        resolve_native_threads(bad)


@pytest.mark.parametrize("bad", ["0", "-3", "two", "2.5"])
def test_threads_env_validation(bad, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_THREADS", bad)
    with pytest.raises(
        RuntimeConfigError, match="REPRO_NATIVE_THREADS"
    ):
        resolve_native_threads()


def test_threads_resolution_order_and_clamp(monkeypatch):
    monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
    assert resolve_native_threads() == 1
    assert resolve_native_threads(5) == 5
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "6")
    assert resolve_native_threads() == 6
    assert resolve_native_threads(2) == 2  # argument wins
    # Absurd asks clamp to the generated driver's hard cap instead of
    # overflowing its fixed-size chunk table.
    assert resolve_native_threads(10**6) == MAX_KERNEL_THREADS


# ---------------------------------------------------------------------------
# Per-thread observability
# ---------------------------------------------------------------------------


@needs_cc
def test_per_thread_busy_counters_and_spans():
    """Multi-threaded calls surface per-chunk busy counters and spans."""
    plan, _ = _plan_and_batch(0)
    kernel = get_native_kernel(plan, np.float64, require=True)
    block = BLOCK_ROWS
    _, data = _plan_and_batch(2 * block)  # exactly two chunks
    registry = MetricsRegistry()
    tracer = HostSpanRecorder()
    previous = set_native_observability(registry, tracer)
    try:
        kernel.log_likelihood(data, threads=2)
    finally:
        set_native_observability(*previous)
    assert registry.value("native.thread0.busy_seconds") > 0.0
    assert registry.value("native.thread1.busy_seconds") > 0.0
    tracks = tracer.tracks()
    assert "native thread0" in tracks and "native thread1" in tracks


# ---------------------------------------------------------------------------
# inference_backend context-manager exception safety
# ---------------------------------------------------------------------------


def test_backend_cm_restores_on_foreign_exception():
    """Non-ReproError exceptions restore the previous backend too."""
    assert get_inference_backend() == "plan"
    with pytest.raises(ValueError):
        with inference_backend("reference"):
            raise ValueError("boom")
    assert get_inference_backend() == "plan"


def test_backend_cm_restores_over_body_switches():
    """A body that switches backends itself and then raises still
    lands back on the original selection."""
    assert get_inference_backend() == "plan"
    with pytest.raises(RuntimeError):
        with inference_backend("reference"):
            set_inference_backend("plan")
            raise RuntimeError("boom")
    assert get_inference_backend() == "plan"


def test_backend_cm_invalid_name_leaves_selection_untouched():
    """An invalid name raises before switching anything."""
    with inference_backend("reference"):
        with pytest.raises(ReproError, match="backend"):
            with inference_backend("fpga"):
                pass  # pragma: no cover - never entered
        assert get_inference_backend() == "reference"


# ---------------------------------------------------------------------------
# No-compiler degradation of a threaded ask
# ---------------------------------------------------------------------------


@pytest.fixture()
def _no_compiler(monkeypatch):
    """Mask the toolchain the way the no-cc CI leg does."""
    monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/repro-no-cc")
    from repro.compiler import native_build

    monkeypatch.setattr(native_build, "_WARNED", set())


def test_threaded_ask_degrades_with_single_warning(
    _no_compiler, monkeypatch
):
    """``REPRO_NATIVE_THREADS`` on a host without a toolchain degrades
    exactly like the single-threaded ask: plan results, one warning."""
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "4")
    spn = random_spn(3, depth=2, n_bins=4, seed=31)
    plan = compile_plan(spn)
    rng = np.random.default_rng(32)
    data = rng.integers(0, 4, size=(32, plan.n_data_columns)).astype(
        np.float64
    )
    expected = plan_log_likelihood(plan, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with inference_backend("native"):
            got = log_likelihood(spn, data)
            again = log_likelihood(spn, data)
    np.testing.assert_allclose(got, expected, rtol=1e-15)
    assert np.array_equal(got, again)
    fallbacks = [
        w for w in caught if "no C compiler" in str(w.message)
    ]
    assert len(fallbacks) == 1, [str(w.message) for w in caught]


def test_threaded_ask_still_validated_without_compiler(
    _no_compiler, monkeypatch
):
    """An invalid thread count raises loudly even when the kernel
    would have fallen back to numpy anyway — config errors must never
    be masked by degradation."""
    monkeypatch.setenv("REPRO_NATIVE_THREADS", "zero")
    plan, data = _plan_and_batch(8)
    with pytest.raises(
        RuntimeConfigError, match="REPRO_NATIVE_THREADS"
    ):
        native_or_plan_log_likelihood(plan, data)
