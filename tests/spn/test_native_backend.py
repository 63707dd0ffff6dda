"""Cross-backend property tests for the native compiled-kernel backend.

The per-plan C kernels (:mod:`repro.compiler.cgen` /
:mod:`repro.compiler.native_build`) must be *indistinguishable* from
the numpy plan evaluator at the root: float64 kernels agree to within
a few ULP (libm vs numpy rounding), float32 kernels to within the
documented ``rtol=1e-6 / atol=1e-4`` envelope, across all three query
types (full likelihood, marginal, missing-value), odd chunk-boundary
batch sizes, and single-row batches.  The suite also locks in the
operational contract: no-compiler environments degrade to the numpy
plan backend with a single loud warning (and raise only on explicit
``backend="native"`` requests), the on-disk cache is keyed by dtype
and codegen version, and ``inference_backend`` restores the previous
process-wide backend on exit.
"""

import os
import warnings

import numpy as np
import pytest

from repro.compiler.cgen import BLOCK_ROWS, generate_kernel_source, linear_rows
from repro.compiler.native_build import (
    build_kernel,
    clear_native_kernels,
    compiler_command,
    get_native_kernel,
    load_kernel,
    native_or_plan_log_likelihood,
    set_native_observability,
)
from repro.errors import NativeBackendError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.spn import (
    SPN,
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    ProductNode,
    SumNode,
    compile_plan,
    get_inference_backend,
    get_plan,
    inference_backend,
    log_likelihood,
    log_likelihood_with_missing,
    marginal_log_likelihood,
    nips_benchmark,
    plan_log_likelihood,
    random_spn,
    set_inference_backend,
)

#: float64 kernels differ from numpy by rounding alone: libm-vs-numpy
#: ULPs in exp/log above the linear-domain cut, multiply-then-log
#: against log-sum-exp below it.  Observed max 2.4e-15 relative, on
#: NIPS80; 5.7e-16 on the wholly linear NIPS10; 9.5e-16 on the edge
#: pool (all query types, float64).
F64_RTOL, F64_ATOL = 1e-12, 1e-12
#: float32 storage carries ~1 ULP relative error at the root (the
#: documented envelope, dominated by relative error at large |LL|).
F32_RTOL, F32_ATOL = 1e-6, 1e-4

needs_cc = pytest.mark.skipif(
    compiler_command() is None, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def _isolated_native_cache(tmp_path, monkeypatch):
    """Route kernel artifacts to a throwaway dir and drop the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_native_kernels()
    yield
    clear_native_kernels()


def _mixed_spn():
    """One SPN exercising every leaf family the codegen emits.

    Variable 3's histograms have irregular bin widths, so their group
    codes cells through the grid lookup rather than the integer clamp.
    """
    return SPN(
        SumNode(
            [
                ProductNode(
                    [
                        HistogramLeaf(
                            0,
                            np.arange(7, dtype=float),
                            np.array([0.1, 0.2, 0.3, 0.2, 0.1, 0.1]),
                        ),
                        GaussianLeaf(1, 1.0, 2.0),
                        CategoricalLeaf(2, [0.2, 0.3, 0.5]),
                        HistogramLeaf(
                            3,
                            np.array([0.0, 2.5, 5.0]),
                            np.array([0.3, 0.1]),
                        ),
                    ]
                ),
                ProductNode(
                    [
                        HistogramLeaf(
                            0,
                            np.arange(7, dtype=float),
                            np.array([0.3, 0.1, 0.1, 0.1, 0.2, 0.2]),
                        ),
                        GaussianLeaf(1, -1.0, 0.5),
                        CategoricalLeaf(2, [0.6, 0.3, 0.1]),
                        HistogramLeaf(
                            3,
                            np.array([1.0, 4.0]),
                            np.array([1.0 / 3.0]),
                        ),
                    ]
                ),
            ],
            [0.4, 0.6],
        )
    )


def _batch(plan, n_rows, seed, high=6):
    rng = np.random.default_rng(seed)
    return rng.integers(0, high, size=(n_rows, plan.n_data_columns)).astype(
        np.float64
    )


# ---------------------------------------------------------------------------
# Root agreement with the numpy plan backend
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_native_matches_plan_on_random_spns(seed):
    """float64 kernels agree with numpy near bit-for-bit."""
    spn = random_spn(4, depth=3, n_bins=5, seed=seed)
    plan = compile_plan(spn)
    kernel = get_native_kernel(plan, np.float64, require=True)
    data = _batch(plan, 257, seed + 1, high=5)
    np.testing.assert_allclose(
        kernel.log_likelihood(data),
        plan_log_likelihood(plan, data),
        rtol=F64_RTOL,
        atol=F64_ATOL,
    )


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_native_all_query_types_mixed_leaves(dtype):
    """Likelihood, marginal and missing-value queries on every leaf
    family (incl. a grid-coded irregular-histogram group), both dtypes."""
    plan = compile_plan(_mixed_spn())
    kernel = get_native_kernel(plan, dtype, require=True)
    rng = np.random.default_rng(5)
    data = rng.uniform(-2.0, 6.0, size=(301, plan.n_data_columns))
    data[rng.random(data.shape) < 0.15] = 255.0
    rtol, atol = (
        (F64_RTOL, F64_ATOL) if dtype is np.float64 else (F32_RTOL, F32_ATOL)
    )
    for kwargs in (
        {},
        {"marginalized": [1, 3]},
        {"missing_value": 255.0},
        {"marginalized": [0], "missing_value": 255.0},
    ):
        np.testing.assert_allclose(
            kernel.log_likelihood(data, **kwargs),
            plan_log_likelihood(plan, data, dtype=dtype, **kwargs),
            rtol=rtol,
            atol=atol,
            err_msg=f"query {kwargs!r} dtype {np.dtype(dtype).name}",
        )


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_native_matches_plan_on_nips_scale(dtype):
    """NIPS10-scale agreement across all three query types."""
    plan = get_plan(nips_benchmark("NIPS10").spn)
    kernel = get_native_kernel(plan, dtype, require=True)
    data = _batch(plan, 2000, 11, high=2)
    rtol, atol = (
        (F64_RTOL, F64_ATOL) if dtype is np.float64 else (F32_RTOL, F32_ATOL)
    )
    for kwargs in ({}, {"marginalized": [0, 5, 9]}, {"missing_value": 255.0}):
        np.testing.assert_allclose(
            kernel.log_likelihood(data, **kwargs),
            plan_log_likelihood(plan, data, dtype=dtype, **kwargs),
            rtol=rtol,
            atol=atol,
            err_msg=f"query {kwargs!r} dtype {np.dtype(dtype).name}",
        )


@needs_cc
def test_native_chunk_boundaries_and_single_row():
    """Batch sizes straddling the kernel's internal block size (and a
    single-row batch) all agree — no off-by-one at chunk seams."""
    spn = random_spn(3, depth=2, n_bins=4, seed=3)
    plan = compile_plan(spn)
    kernel = get_native_kernel(plan, np.float64, require=True)
    block = BLOCK_ROWS
    data = _batch(plan, 2 * block + 3, 4, high=4)
    for n in (1, 2, block - 1, block, block + 1, 2 * block + 3):
        np.testing.assert_allclose(
            kernel.log_likelihood(data[:n]),
            plan_log_likelihood(plan, data[:n]),
            rtol=F64_RTOL,
            atol=F64_ATOL,
            err_msg=f"batch size {n} (block {block})",
        )


# ---------------------------------------------------------------------------
# The codegen-v3 emitters: inline histogram gathers, grid lookup for
# irregular bins, chunked adds, padded row loops
# ---------------------------------------------------------------------------


def _hist(var, lo, probs):
    """A unit-bin histogram leaf on ``[lo, lo + len(probs))``."""
    return HistogramLeaf(var, np.arange(lo, lo + len(probs) + 1.0), probs)


#: Breaks of the irregular leaves in :func:`_edge_spn` (variable 2):
#: uneven widths, two breaks 1e-9 apart (they share a grid cell, so the
#: lookup needs K > 1), and a one-bin leaf.
_IRREGULAR_BREAKS = (
    np.array([-3.0, -1.0, -1.0 + 1e-9, 0.25, 2.5, 2.75, 9.0, 40.0]),
    np.array([1.0, 4.0]),
)


def _edge_spn():
    """Every shape the v3 emitters special-case, in one valid SPN.

    * ``shared`` — a histogram leaf with two parents;
    * ``leaf_sum`` / ``wide_sum`` — sum nodes whose children are leaves
      (2 inline ones; 26, i.e. more than one add statement's worth);
    * two 30-child products (> 24 terms: chunked adds) mixing inline
      histogram leaves (irregular ones included) with stored Gaussian /
      categorical leaves, so marginalising or masking a variable hits
      a gather that is fused into a product.
    """
    rng = np.random.default_rng(42)

    def probs(n):
        p = rng.random(n) + 0.05
        return p / p.sum()

    shared = _hist(0, 0, probs(6))

    def branch(irregular_breaks, mean, cat_probs, leaf_sum):
        breaks = irregular_breaks
        irregular = HistogramLeaf(
            2, breaks, probs(len(breaks) - 1) / np.diff(breaks)
        )
        tail = [_hist(v, v % 3 - 1, probs(4 + v % 5)) for v in range(5, 30)]
        return ProductNode(
            [
                shared,
                leaf_sum,
                irregular,
                GaussianLeaf(3, mean, 1.5),
                CategoricalLeaf(4, cat_probs),
            ]
            + tail
        )

    leaf_sum = SumNode(
        [_hist(1, 0, probs(5)), _hist(1, 2, probs(7))], [0.25, 0.75]
    )
    wide_sum = SumNode(
        [_hist(1, i % 4, probs(3 + i % 6)) for i in range(26)], probs(26)
    )
    return SPN(
        SumNode(
            [
                branch(_IRREGULAR_BREAKS[0], 0.5, [0.2, 0.3, 0.5], leaf_sum),
                branch(_IRREGULAR_BREAKS[1], -2.0, [0.6, 0.3, 0.1], wide_sum),
            ],
            [0.35, 0.65],
        )
    )


def _edge_batch(n_rows, seed=8):
    """In-domain integers with out-of-domain, fractional and non-finite
    values sprinkled over every column."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-1, 9, size=(n_rows, 30)).astype(np.float64)
    odd = np.array(
        [np.nan, np.inf, -np.inf, 1e300, -1e300, 0.5, 3.999999, -0.0,
         -7.0, 64.0, 1e-320, 2.0**31, -(2.0**31), 2.0**53]
    )
    mask = rng.random(data.shape) < 0.2
    data[mask] = rng.choice(odd, size=int(mask.sum()))
    return data


_EDGE_QUERIES = (
    {},
    {"marginalized": [0]},  # the shared inline leaf
    {"marginalized": [1, 2, 7]},  # leaf-only sums, irregular, one of 25
    {"missing_value": 0.5},
    {"marginalized": [3, 29], "missing_value": 64.0},
)


def _prebuilt(plan, tmp_path_factory):
    """*plan* and a ``dtype -> kernel`` loader; each kernel is built once
    for the module (a build takes seconds), then only ``dlopen``-ed, so
    the per-test cache isolation does not rebuild it."""
    paths = {}

    def kernel(dtype):
        if dtype not in paths:
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv(
                    "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("kernel"))
                )
                paths[dtype] = build_kernel(plan, dtype)
        return load_kernel(paths[dtype], plan, dtype)

    return plan, kernel


@pytest.fixture(scope="module")
def edge(tmp_path_factory):
    """The edge SPN's plan and its kernel loader."""
    return _prebuilt(compile_plan(_edge_spn()), tmp_path_factory)


def _assert_matches_plan(kernel, plan, data, dtype=np.float64, **query):
    rtol, atol = (
        (F64_RTOL, F64_ATOL) if dtype is np.float64 else (F32_RTOL, F32_ATOL)
    )
    with np.errstate(over="ignore"):  # the oracle squares 1e300
        expected = plan_log_likelihood(plan, data, dtype=dtype, **query)
    np.testing.assert_allclose(
        kernel.log_likelihood(data, **query),
        expected,
        rtol=rtol,
        atol=atol,
        err_msg=f"query {query!r} rows {len(data)}",
    )


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_edge_shapes_and_values_match_plan(edge, dtype):
    """Shared leaves, leaf-only sums, > 24-child nodes, fused and stored
    leaves under marginal / missing queries, on NaN, +-inf, 1e300,
    fractional and out-of-domain inputs."""
    plan, kernel = edge[0], edge[1](dtype)
    data = _edge_batch(1000)
    if dtype is np.float32:
        # Keep values float32 can hold, so both sides see the same input.
        with np.errstate(over="ignore"):
            data = data.astype(np.float32).astype(np.float64)
    for query in _EDGE_QUERIES:
        _assert_matches_plan(kernel, plan, data, dtype, **query)


@needs_cc
def test_padded_tile_batch_sizes_match_plan(edge):
    """Batch sizes around the 16-row pad and the block: pad rows must
    neither leak into answers nor be read from past the batch."""
    plan, kernel = edge[0], edge[1](np.float64)
    data = _edge_batch(BLOCK_ROWS + 1, seed=9)
    for n in (1, 15, 16, 17, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1):
        for query in ({}, {"marginalized": [0, 2]}, {"missing_value": 0.5}):
            # A fresh exact-size copy: a read past row n is a read past
            # the allocation, not into the next row of a bigger array.
            _assert_matches_plan(kernel, plan, data[:n].copy(), **query)


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_irregular_breaks_and_their_neighbours(edge, dtype):
    """The grid lookup is exactly ``searchsorted(side="right")``: every
    break value of every irregular leaf, and the doubles (floats, on
    float32 storage) just below and above it."""
    plan, kernel = edge[0], edge[1](dtype)
    real = np.dtype(dtype).type
    values = []
    for breaks in _IRREGULAR_BREAKS:
        for b in breaks.astype(dtype):
            values += [np.nextafter(b, real(-np.inf)), b,
                       np.nextafter(b, real(np.inf))]
    data = np.ones((len(values), 30))
    data[:, 2] = values
    # The 1e-9-apart breaks share a grid cell: two compares per lookup.
    assert "[s + 1])" in generate_kernel_source(plan, dtype)
    _assert_matches_plan(kernel, plan, data, dtype)
    _assert_matches_plan(kernel, plan, data, dtype, missing_value=2.5)


@needs_cc
def test_irregular_lookup_on_nips_leaves():
    """Same, on the grid-coded groups of NIPS10 and NIPS30 (NIPS30's
    variable 0 carries two irregular leaves: two compares per lookup)."""
    for name in ("NIPS10", "NIPS30"):
        plan = get_plan(nips_benchmark(name).spn)
        kernel = get_native_kernel(plan, np.float64, require=True)
        rows = []
        for group in plan.histogram_block.groups:
            if group.unit_bins:
                continue
            for b in group.breaks:
                for x in (np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)):
                    row = np.ones(plan.n_data_columns)
                    row[group.variable] = x
                    rows.append(row)
        _assert_matches_plan(kernel, plan, np.array(rows))
    assert "(xr >= brk_0[s + 1])" in generate_kernel_source(plan)


@needs_cc
def test_single_leaf_network():
    """A root that is itself an inline histogram leaf has no slab row."""
    plan = compile_plan(SPN(_hist(0, 0, [0.2, 0.5, 0.3])))
    kernel = get_native_kernel(plan, np.float64, require=True)
    data = np.array([[-1.0], [0.0], [1.5], [2.0], [3.0], [np.nan]])
    _assert_matches_plan(kernel, plan, data)
    _assert_matches_plan(kernel, plan, data, marginalized=[0])


def test_generated_source_structure():
    """No libm clamp calls, and no value-slab row for any histogram
    leaf, irregular bins included: the slab holds exactly the interior
    nodes."""
    plan = get_plan(nips_benchmark("NIPS10").spn)
    source = generate_kernel_source(plan, np.float64)
    assert "fmin(" not in source and "fmax(" not in source
    assert "irregular histogram" not in source
    n_stored = plan.n_nodes - plan.n_leaves
    assert n_stored == 26
    assert f"slab rows: {n_stored}  " in source
    assert f"v + {n_stored - 1}L * BLOCK;" in source
    assert f"v + {n_stored}L * BLOCK;" not in source
    assert source.count("/* row codes, variable") == plan.n_data_columns
    # Wholly linear in float64 (root lo -278): no exp, one log, at the
    # root, and no log-domain table.
    assert "exp(" not in source and source.count("log(") == 1
    assert "T_LIN[" in source and "T_HIST" not in source
    assert f"linear rows: {n_stored}\n" in source


# ---------------------------------------------------------------------------
# The linear-domain cut: exact zeros, and a network below float64's range
# ---------------------------------------------------------------------------


def _zeros_spn():
    """Exact zeros the kernel must keep exact: a leaf with floor 0 (its
    zero-density bin and out-of-support cells are log 0) on every
    variable, and a sum whose never-zero child has weight 0.  Neither
    can be constructed (the node classes refuse them), so both are set
    on built nodes."""

    def zeroed(var):
        leaf = HistogramLeaf(var, np.arange(4.0), [0.5, 0.0, 0.5])
        leaf.floor = 0.0
        return leaf

    def other(var):
        return _hist(var, 0, [0.2, 0.3, 0.5])

    weightless = SumNode([other(2), zeroed(2)], [0.5, 0.5])
    weightless.weights[0], weightless.log_weights[0] = 0.0, -np.inf
    return SPN(
        SumNode(
            [
                ProductNode([
                    SumNode([zeroed(0), other(0)], [0.5, 0.5]),
                    SumNode([zeroed(1), zeroed(1)], [0.4, 0.6]),
                    weightless,
                ]),
                ProductNode([other(0), zeroed(1), other(2)]),
            ],
            [0.5, 0.5],
        )
    )


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_exact_zeros_in_the_linear_domain(dtype):
    """A zero weight, zero-density bins and zero-floor support run
    linear in both dtypes, where log 0 is exactly 0: answers keep every
    -inf and match the plan elsewhere, for all three query types."""
    with np.errstate(divide="ignore"):
        plan = compile_plan(_zeros_spn())
    linear = linear_rows(plan, dtype)
    assert linear[plan.root_row] and linear[plan.n_leaves:].all()
    kernel = get_native_kernel(plan, dtype, require=True)
    data = _batch(plan, 300, 61, high=5) - 1.0  # -1 .. 3: every cell
    expected = plan_log_likelihood(plan, data, dtype=dtype)
    assert np.isneginf(expected).any() and np.isfinite(expected).any()
    for query in ({}, {"marginalized": [1]}, {"missing_value": 1.0}):
        _assert_matches_plan(kernel, plan, data, dtype, **query)


def _deep_floor_spn():
    """A network whose static ``lo`` (about -855) is far below float64's
    normal range: a sum over two products of 120 floor-1e-12 histogram
    leaves (log -27.6 each), with sums at three depths so each dtype
    cuts it at its own level.

    Each root product multiplies ten 3-variable mixtures; a mixture is a
    sum of two products of three 2-leaf sums.  float64 runs every
    mixture linear (``lo`` about -85) and each root product reads ten of
    them through a ``log``; float32 (linear down to -79.3) runs only the
    2-leaf sums linear, read through a ``log`` by the products above.
    """
    rng = np.random.default_rng(57)

    def probs(n):
        p = rng.random(n) + 0.05
        return p / p.sum()

    def leaf_sum(var):
        return SumNode([_hist(var, 0, probs(5)), _hist(var, 1, probs(4))],
                       probs(2))

    def mixture(first):
        return SumNode(
            [ProductNode([leaf_sum(v) for v in range(first, first + 3)])
             for _ in range(2)],
            probs(2),
        )

    return SPN(SumNode(
        [ProductNode([mixture(v) for v in range(0, 30, 3)]) for _ in range(2)],
        [0.3, 0.7],
    ))


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    """The deep floor SPN's plan and its kernel loader."""
    return _prebuilt(compile_plan(_deep_floor_spn()), tmp_path_factory)


def _deep_batch(n_rows, seed=58):
    """In-support integers with floor values (out of every leaf's
    support, or NaN) on 40 % of the entries, and all-floor rows."""
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 5, size=(n_rows, 30)).astype(np.float64)
    mask = rng.random(data.shape) < 0.4
    data[mask] = rng.choice([-5.0, 9.0, np.nan], size=int(mask.sum()))
    data[::17] = -5.0
    data[1::17] = np.nan
    return data


def test_deep_network_source_cuts_at_each_dtypes_range():
    plan = compile_plan(_deep_floor_spn())
    assert plan.log_bounds.lo[plan.root_row] < -708.4
    cut = "(real_t) log(v["
    source = generate_kernel_source(plan, np.float64)
    assert source.count(cut) == 2 * 10  # root products read mixtures
    assert "linear rows: 180\n" in source  # 120 + 40 + 20 sums/products
    source = generate_kernel_source(plan, np.float32)
    assert source.count(cut) == 40 * 3  # products of 2-leaf sums
    assert "linear rows: 120\n" in source


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deep_network_floor_rows_cross_the_cut(deep, dtype):
    """All-floor rows score about -829, below what any float64 value
    can hold in the linear domain: the kernel stays finite and matches
    the plan (float64 within F64_RTOL, float32 in its envelope)."""
    plan, kernel = deep[0], deep[1](dtype)
    floor = np.full((40, 30), -5.0)
    floor[1::2] = np.nan
    got = kernel.log_likelihood(floor)
    assert np.all(np.isfinite(got)) and np.all(got < -708.4)
    _assert_matches_plan(kernel, plan, floor, dtype)
    for query in ({}, {"marginalized": [0, 4, 29]}, {"missing_value": 9.0}):
        _assert_matches_plan(kernel, plan, _deep_batch(700), dtype, **query)


@needs_cc
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deep_network_thread_and_position_invariant(deep, dtype):
    kernel = deep[1](dtype)
    data = _deep_batch(8 * BLOCK_ROWS - 5)
    whole = kernel.log_likelihood(data, threads=1)
    for threads in (2, 7):
        assert np.array_equal(kernel.log_likelihood(data, threads=threads),
                              whole), threads
    for size in (1, 7, 37):
        pieces = [kernel.log_likelihood(data[i: i + size])
                  for i in range(0, len(data), size)]
        assert np.array_equal(np.concatenate(pieces), whole), size


# ---------------------------------------------------------------------------
# Position invariance: a row's answer does not depend on its batch
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_row_answers_do_not_depend_on_batch_position(dtype, threads):
    """Every row of a 4,096-row batch evaluated alone, in batches of
    3 / 5 / 7 / 11 / 13 / 37 and inside the whole batch gives the same
    bits, for all three query types.  (Codegen v2 ran short batches and
    batch tails through differently-rounding ``exp`` routines.)"""
    plan = get_plan(nips_benchmark("NIPS10").spn)
    kernel = get_native_kernel(plan, dtype, require=True)
    rng = np.random.default_rng(7)
    data = rng.integers(0, 60, size=(4096, plan.n_data_columns)).astype(dtype)
    data[rng.random(data.shape) < 0.1] = 255.0
    for query in ({}, {"marginalized": [0, 3]}, {"missing_value": 255.0}):
        whole = kernel.log_likelihood(data, threads=threads, **query)
        for size in (1, 3, 5, 7, 11, 13, 37):
            pieces = [
                kernel.log_likelihood(
                    data[i: i + size], threads=threads, **query
                )
                for i in range(0, len(data), size)
            ]
            assert np.array_equal(np.concatenate(pieces), whole), (
                f"batches of {size} differ from the whole batch for query "
                f"{query!r} dtype {np.dtype(dtype).name} threads {threads}"
            )


@needs_cc
def test_backend_switch_routes_inference_api():
    """The process-wide ``native`` backend answers through the kernel
    and matches the plan backend on the public inference functions."""
    spn = random_spn(3, depth=2, n_bins=4, seed=9)
    data = _batch(get_plan(spn), 64, 10, high=4)
    expected = log_likelihood(spn, data)
    expected_marg = marginal_log_likelihood(spn, data, [1])
    expected_missing = log_likelihood_with_missing(spn, data)
    with inference_backend("native"):
        np.testing.assert_allclose(
            log_likelihood(spn, data), expected, rtol=F64_RTOL, atol=F64_ATOL
        )
        np.testing.assert_allclose(
            marginal_log_likelihood(spn, data, [1]),
            expected_marg,
            rtol=F64_RTOL,
            atol=F64_ATOL,
        )
        np.testing.assert_allclose(
            log_likelihood_with_missing(spn, data),
            expected_missing,
            rtol=F64_RTOL,
            atol=F64_ATOL,
        )


# ---------------------------------------------------------------------------
# Backend selection and the context manager
# ---------------------------------------------------------------------------


def test_inference_backend_context_manager_restores():
    assert get_inference_backend() == "plan"
    with inference_backend("reference"):
        assert get_inference_backend() == "reference"
    assert get_inference_backend() == "plan"
    with pytest.raises(ReproError):
        with inference_backend("reference"):
            raise ReproError("boom")
    assert get_inference_backend() == "plan"


def test_inference_backend_rejects_unknown():
    with pytest.raises(ReproError, match="backend"):
        set_inference_backend("fpga")
    with pytest.raises(ReproError, match="backend"):
        with inference_backend("nativ"):
            pass  # pragma: no cover - never entered


# ---------------------------------------------------------------------------
# No-compiler degradation
# ---------------------------------------------------------------------------


@pytest.fixture()
def _no_compiler(monkeypatch):
    """Mask the toolchain the way the no-cc CI leg does."""
    monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/repro-no-cc")
    from repro.compiler import native_build

    monkeypatch.setattr(native_build, "_WARNED", set())


def test_no_compiler_graceful_fallback(_no_compiler):
    """Implicit native requests warn once and fall back to numpy."""
    spn = random_spn(3, depth=2, n_bins=4, seed=14)
    plan = compile_plan(spn)
    data = _batch(plan, 32, 15, high=4)
    with pytest.warns(RuntimeWarning, match="no C compiler"):
        kernel = get_native_kernel(plan, np.float64)
    assert kernel is None
    expected = plan_log_likelihood(plan, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second request must stay silent
        got = native_or_plan_log_likelihood(plan, data)
    np.testing.assert_allclose(got, expected, rtol=1e-15)
    with inference_backend("native"):
        np.testing.assert_allclose(
            log_likelihood(spn, data), expected, rtol=1e-15
        )


def test_no_compiler_explicit_requests_raise(_no_compiler):
    """Explicit ``native`` asks fail loudly instead of degrading."""
    spn = random_spn(3, depth=2, n_bins=4, seed=16)
    plan = compile_plan(spn)
    with pytest.raises(NativeBackendError, match="no C compiler"):
        get_native_kernel(plan, np.float64, require=True)
    from repro.baselines import ParallelPlanExecutor

    with pytest.raises(NativeBackendError, match="no C compiler"):
        ParallelPlanExecutor(spn, n_workers=1, backend="native")


# ---------------------------------------------------------------------------
# Build cache keying and observability
# ---------------------------------------------------------------------------


@needs_cc
def test_cache_hit_and_dtype_keyed_artifacts():
    """Rebuilding the same plan is a cache hit; dtype and codegen
    version are visible in the on-disk artifact name."""
    plan = compile_plan(random_spn(3, depth=2, n_bins=4, seed=20))
    registry = MetricsRegistry()
    previous = set_native_observability(registry)
    try:
        path64 = build_kernel(plan, np.float64)
        again = build_kernel(plan, np.float64)
        path32 = build_kernel(plan, np.float32)
    finally:
        set_native_observability(*previous)
    assert again == path64
    assert path32 != path64
    assert "float64" in path64.name and "float32" in path32.name
    from repro.compiler.cgen import CODEGEN_VERSION

    assert f"cg{CODEGEN_VERSION}" in path64.name
    assert registry.value("native.cache_hits") == 1
    assert registry.value("native.cache_misses") == 2
    assert registry.value("native.build_seconds") > 0.0


@needs_cc
def test_load_kernel_reuses_artifact_without_compiler(monkeypatch):
    """Workers dlopen a prebuilt artifact even with the toolchain
    masked — the never-rebuild-per-fork contract."""
    plan = compile_plan(random_spn(3, depth=2, n_bins=4, seed=21))
    path = build_kernel(plan, np.float64)
    monkeypatch.setenv("REPRO_NATIVE_CC", "/nonexistent/repro-no-cc")
    kernel = load_kernel(path, plan, np.float64)
    data = _batch(plan, 40, 22, high=4)
    np.testing.assert_allclose(
        kernel.log_likelihood(data),
        plan_log_likelihood(plan, data),
        rtol=F64_RTOL,
        atol=F64_ATOL,
    )


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------


@needs_cc
@pytest.mark.parametrize("n_workers", [1, 2])
def test_executor_native_backend(n_workers):
    """Explicit ``backend="native"`` executors answer through the
    kernel (serial and forked-worker paths) and match the plan."""
    from repro.baselines import ParallelPlanExecutor

    spn = random_spn(3, depth=2, n_bins=4, seed=25)
    plan = get_plan(spn)
    data = _batch(plan, 5000, 26, high=4)
    expected = plan_log_likelihood(plan, data)
    with ParallelPlanExecutor(
        spn, n_workers=n_workers, backend="native"
    ) as executor:
        assert executor.backend == "native"
        got = executor.submit(data)
    np.testing.assert_allclose(got, expected, rtol=F64_RTOL, atol=F64_ATOL)


@needs_cc
def test_executor_defaults_to_plan_backend():
    from repro.baselines import ParallelPlanExecutor

    spn = random_spn(3, depth=2, n_bins=4, seed=27)
    with ParallelPlanExecutor(spn, n_workers=1) as executor:
        assert executor.backend == "plan"
    with pytest.raises(ReproError, match="backend"):
        ParallelPlanExecutor(spn, n_workers=1, backend="fpga")
