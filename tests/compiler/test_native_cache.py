"""On-disk kernel cache: naming, host-ISA keying, and LRU pruning.

Artifact names encode everything that must invalidate a
cached kernel — dtype, codegen revision, thread-runtime tag, and a
host-ISA fingerprint (or ``portable``) — so one shared cache dir can
serve machines with different CPUs.  The cache is bounded by
:func:`~repro.compiler.native_build.prune_native_cache`, which evicts
whole artifact groups least-recently-*used* first (cache hits refresh
mtime).
"""

import os
import time

import numpy as np
import pytest

from repro.compiler.cgen import CODEGEN_VERSION, generate_kernel_source
from repro.compiler.native_build import (
    DEFAULT_CACHE_MAX_BYTES,
    build_kernel,
    clear_native_kernels,
    compiler_command,
    native_cache_dir,
    native_cache_stats,
    native_thread_mode,
    prune_native_cache,
)
from repro.spn import compile_plan, get_plan, nips_benchmark, random_spn

needs_cc = pytest.mark.skipif(
    compiler_command() is None, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def _isolated_native_cache(tmp_path, monkeypatch):
    """Route kernel artifacts to a throwaway dir and drop the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NATIVE_PORTABLE", raising=False)
    clear_native_kernels()
    yield
    clear_native_kernels()


def _plan(seed):
    return compile_plan(random_spn(3, depth=2, n_bins=4, seed=seed))


def _backdate(cache, stem, age_seconds):
    """Shift every file of one artifact group into the past."""
    then = time.time() - age_seconds
    for path in cache.iterdir():
        if path.name.startswith(stem):
            os.utime(path, (then, then))


# ---------------------------------------------------------------------------
# Artifact naming
# ---------------------------------------------------------------------------


@needs_cc
def test_artifact_name_encodes_mode_and_isa():
    """The filename carries the codegen revision, the probed thread
    runtime, and a host-ISA fingerprint tag."""
    path = build_kernel(_plan(40), np.float64)
    name = path.name
    assert f"cg{CODEGEN_VERSION}" in name
    tag = {"openmp": "omp", "pthreads": "pth", "serial": "st"}[
        native_thread_mode()
    ]
    assert f"-{tag}-" in name
    # ``-march=native`` builds key by an 8-hex ISA fingerprint; hosts
    # where the probe fails key as portable instead.
    assert "-portable-" in name or any(
        part
        and len(part) == 8
        and all(c in "0123456789abcdef" for c in part)
        for part in name.split("-")
    )


@needs_cc
def test_portable_opt_out_yields_distinct_artifact(monkeypatch):
    """``REPRO_NATIVE_PORTABLE=1`` drops ``-march=native`` and keys
    the artifact separately from the ISA-tuned build."""
    plan = _plan(41)
    tuned = build_kernel(plan, np.float64)
    clear_native_kernels()
    monkeypatch.setenv("REPRO_NATIVE_PORTABLE", "1")
    portable = build_kernel(plan, np.float64)
    assert "-portable-" in portable.name
    assert portable != tuned


# ---------------------------------------------------------------------------
# Build cost
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "network, max_lines", [("NIPS10", 800), ("NIPS80", 2500)]
)
def test_generated_source_stays_small(network, max_lines):
    """Compile time follows source size: codegen v2 emitted 1,348 /
    8,427 lines for these two and NIPS80 took minutes to build; v3
    emits about 700 / 1,900 and builds in seconds.  The bound keeps a
    per-leaf emitter from quietly coming back."""
    plan = get_plan(nips_benchmark(network).spn)
    for dtype in (np.float64, np.float32):
        n_lines = generate_kernel_source(plan, dtype).count("\n")
        assert n_lines < max_lines, f"{network} {np.dtype(dtype).name}"


# ---------------------------------------------------------------------------
# Stats and LRU pruning
# ---------------------------------------------------------------------------


def test_stats_and_prune_on_empty_cache():
    stats = native_cache_stats()
    assert stats["artifacts"] == 0 and stats["bytes"] == 0
    report = prune_native_cache(0)
    assert report == {
        "removed": 0,
        "removed_bytes": 0,
        "kept": 0,
        "kept_bytes": 0,
    }
    assert DEFAULT_CACHE_MAX_BYTES > 0


@needs_cc
def test_cache_stats_counts_groups():
    build_kernel(_plan(42), np.float64)
    build_kernel(_plan(43), np.float64)
    stats = native_cache_stats()
    assert stats["artifacts"] == 2
    assert stats["bytes"] > 0
    assert stats["path"] == str(native_cache_dir())


@needs_cc
def test_prune_evicts_oldest_group_first():
    """Under budget pressure the stalest artifact group goes first,
    and eviction takes the whole group (.so and .c together)."""
    old = build_kernel(_plan(44), np.float64)
    new = build_kernel(_plan(45), np.float64)
    cache = native_cache_dir()
    _backdate(cache, old.name[: -len(".so")], 3600)
    keep_bytes = sum(
        p.stat().st_size
        for p in cache.iterdir()
        if p.name.startswith(new.name[: -len(".so")])
    )
    report = prune_native_cache(keep_bytes)
    assert report["removed"] == 1 and report["kept"] == 1
    assert not old.exists()
    assert not old.with_suffix(".c").exists()
    assert new.exists()


@needs_cc
def test_cache_hit_refreshes_recency():
    """A cache hit bumps the artifact's mtime, so recently *used*
    kernels outlive recently *built* ones under pruning."""
    hot = build_kernel(_plan(46), np.float64)
    cold = build_kernel(_plan(47), np.float64)
    cache = native_cache_dir()
    _backdate(cache, hot.name[: -len(".so")], 3600)
    _backdate(cache, cold.name[: -len(".so")], 1800)
    clear_native_kernels()
    assert build_kernel(_plan(46), np.float64) == hot  # hit -> touch
    keep_bytes = sum(
        p.stat().st_size
        for p in cache.iterdir()
        if p.name.startswith(hot.name[: -len(".so")])
    )
    report = prune_native_cache(keep_bytes)
    assert report["removed"] == 1
    assert hot.exists() and not cold.exists()


@needs_cc
def test_prune_to_zero_clears_cache():
    build_kernel(_plan(48), np.float64)
    report = prune_native_cache(0)
    assert report["kept"] == 0 and report["kept_bytes"] == 0
    assert native_cache_stats()["artifacts"] == 0
