"""Property and unit tests for compiled inference plans.

The plan compiler/evaluator (:mod:`repro.spn.plan`,
:mod:`repro.spn.plan_eval`) is validated three ways: against the
independent scalar oracle ``naive_log_likelihood``, against the
reference per-node graph walk on randomized SPNs (marginal and
missing-value queries included), and on the structural edge cases the
fused kernels must not mishandle (all ``-inf`` sum rows, degenerate
single-node graphs, stale-plan invalidation).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cpu import naive_log_likelihood
from repro.errors import ReproError, SPNStructureError
from repro.spn import (
    SPN,
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    ProductNode,
    SumNode,
    clear_plan_cache,
    compile_plan,
    evaluate_plan,
    get_inference_backend,
    get_plan,
    log_likelihood,
    log_likelihood_with_missing,
    marginal_log_likelihood,
    plan_cache_info,
    plan_log_likelihood,
    random_spn,
    set_inference_backend,
)
from repro.spn.inference import node_log_values, reference_node_log_values
from repro.spn.nodes import LeafNode
from repro.spn.plan_eval import plan_leaf_log_values, plan_node_log_values


def _hist(var, masses):
    return HistogramLeaf(var, np.arange(len(masses) + 1, dtype=float), masses)


def _random_data(spn, n_rows, seed, high=6):
    rng = np.random.default_rng(seed)
    width = max(spn.scope) + 1
    return rng.integers(0, high, size=(n_rows, width)).astype(np.float64)


def _query(data, query, seed, marginalized):
    """The plan and walk keywords of *query*: likelihood, a marginal
    subset, or per-sample missing values (written into *data*)."""
    if query == "marginal":
        return {"marginalized": marginalized}, {"marginalized": marginalized}
    if query == "missing":
        data[np.random.default_rng(seed).random(data.shape) < 0.2] = 255.0
        return {"missing_value": 255.0}, {"missing_mask": data == 255.0}
    return {}, {}


# ---------------------------------------------------------------------------
# Agreement with the independent scalar oracle
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_variables=st.integers(min_value=1, max_value=6),
    depth=st.integers(min_value=1, max_value=4),
)
def test_plan_matches_naive_oracle(seed, n_variables, depth):
    spn = random_spn(n_variables, depth=depth, n_bins=4, seed=seed)
    data = _random_data(spn, 17, seed + 1, high=5)
    expected = naive_log_likelihood(spn, data)
    got = plan_log_likelihood(compile_plan(spn), data)
    np.testing.assert_allclose(got, expected, rtol=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_marginal_matches_reference(seed):
    spn = random_spn(5, depth=3, n_bins=4, seed=seed)
    data = _random_data(spn, 13, seed)
    rng = np.random.default_rng(seed)
    scope = sorted(spn.scope)
    marg = [v for v in scope if rng.random() < 0.4]
    expected = reference_node_log_values(spn, data, marginalized=marg)[spn.root.id]
    got = plan_log_likelihood(compile_plan(spn), data, marginalized=marg)
    assert np.array_equal(got, expected)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_missing_matches_reference(seed):
    spn = random_spn(5, depth=3, n_bins=4, seed=seed)
    data = _random_data(spn, 13, seed)
    rng = np.random.default_rng(seed + 7)
    data[rng.random(data.shape) < 0.3] = 255.0
    missing = data == 255.0
    expected = reference_node_log_values(spn, data, missing_mask=missing)[spn.root.id]
    got = plan_log_likelihood(compile_plan(spn), data, missing_value=255.0)
    assert np.array_equal(got, expected)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_plan_node_values_match_reference(seed):
    spn = random_spn(4, depth=3, n_bins=4, seed=seed)
    data = _random_data(spn, 9, seed)
    expected = reference_node_log_values(spn, data)
    got = plan_node_log_values(compile_plan(spn), data)
    assert set(got) == set(expected)
    for node_id, values in expected.items():
        assert np.array_equal(got[node_id], values), node_id


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_components=st.integers(min_value=8, max_value=12),
    n_rows=st.integers(min_value=1, max_value=20),
    query=st.sampled_from(["likelihood", "marginal", "missing"]),
)
def test_wide_sums_match_reference_bit_for_bit(seed, n_components, n_rows, query):
    """Sums of 8-12 children, where numpy's pairwise blocks would
    reorder the terms, still add them in child order on both sides."""
    spn = random_spn(4, depth=2, n_components=n_components, n_bins=4, seed=seed)
    data = _random_data(spn, n_rows, seed)
    plan_query, walk_query = _query(data, query, seed, [1, 2])
    plan = compile_plan(spn)
    expected = reference_node_log_values(spn, data, **walk_query)
    matrix = evaluate_plan(plan, data, **plan_query)
    for row, node_id in enumerate(plan.node_ids):
        assert np.array_equal(matrix[row], expected[int(node_id)]), int(node_id)


# ---------------------------------------------------------------------------
# Public-API dispatch (plan is the default backend)
# ---------------------------------------------------------------------------


def test_default_backend_is_plan():
    assert get_inference_backend() == "plan"


def test_backend_toggle_roundtrip():
    spn = random_spn(4, depth=3, n_bins=4, seed=3)
    data = _random_data(spn, 21, 3)
    via_plan = log_likelihood(spn, data)
    set_inference_backend("reference")
    try:
        assert get_inference_backend() == "reference"
        via_walk = log_likelihood(spn, data)
    finally:
        set_inference_backend("plan")
    assert np.array_equal(via_plan, via_walk)


def test_unknown_backend_rejected():
    with pytest.raises(ReproError):
        set_inference_backend("simd")


def test_public_api_shapes_and_types():
    spn = random_spn(4, depth=3, n_bins=4, seed=5)
    data = _random_data(spn, 11, 5)
    ll = log_likelihood(spn, data)
    assert isinstance(ll, np.ndarray) and ll.shape == (11,)
    marg = marginal_log_likelihood(spn, data, [0])
    assert isinstance(marg, np.ndarray) and marg.shape == (11,)
    assert np.all(marg >= ll - 1e-12)
    missing = log_likelihood_with_missing(spn, data)
    assert isinstance(missing, np.ndarray) and missing.shape == (11,)
    values = node_log_values(spn, data)
    assert isinstance(values, dict)
    assert set(values) == {node.id for node in spn.nodes}
    np.testing.assert_allclose(values[spn.root.id], ll, rtol=1e-12)


def test_data_wider_than_scope_is_accepted():
    spn = random_spn(3, depth=2, n_bins=4, seed=11)
    data = _random_data(spn, 8, 11)
    padded = np.hstack([data, np.full((8, 2), 99.0)])
    np.testing.assert_allclose(
        log_likelihood(spn, padded), log_likelihood(spn, data), rtol=1e-12
    )


def test_single_sample_row_vector():
    spn = random_spn(3, depth=2, n_bins=4, seed=2)
    row = _random_data(spn, 1, 2)[0]
    assert log_likelihood(spn, row).shape == (1,)


# ---------------------------------------------------------------------------
# Structural edge cases
# ---------------------------------------------------------------------------


def test_single_leaf_spn():
    spn = SPN(_hist(0, [0.25, 0.75]))
    plan = compile_plan(spn)
    assert plan.n_nodes == 1
    data = np.array([[0.0], [1.0], [7.0]])
    np.testing.assert_allclose(
        plan_log_likelihood(plan, data),
        naive_log_likelihood(spn, data),
        rtol=1e-12,
    )


def test_single_sum_over_leaves():
    spn = SPN(SumNode([_hist(0, [0.5, 0.5]), _hist(0, [0.9, 0.1])], [0.3, 0.7]))
    data = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(
        plan_log_likelihood(compile_plan(spn), data),
        naive_log_likelihood(spn, data),
        rtol=1e-12,
    )


def test_all_neginf_sum_rows_stay_neginf():
    # A Gaussian at z ~ 1e200 underflows to log-density -inf, so every
    # child of the sum node is -inf for that row: the stable segment
    # logsumexp must produce -inf, not NaN, exactly like the reference.
    gauss = SPN(
        SumNode(
            [GaussianLeaf(0, 0.0, 1.0), GaussianLeaf(0, 0.0, 1.0)], [0.5, 0.5]
        )
    )
    extreme = np.array([[1e200], [0.0]])
    with np.errstate(over="ignore"):
        out = plan_log_likelihood(compile_plan(gauss), extreme)
        ref = reference_node_log_values(gauss, extreme)[gauss.root.id]
    assert np.isneginf(out[0]) and np.isneginf(ref[0])
    assert np.isfinite(out[1])
    np.testing.assert_allclose(out[1], ref[1], rtol=1e-12)


def test_mixed_leaf_families_match_naive():
    # One product mixing all three fused leaf families plus the
    # non-unit-bin histogram that takes the generic fallback kernel.
    wide = HistogramLeaf(3, np.array([0.0, 2.5, 5.0]), np.array([0.3, 0.1]))
    spn = SPN(
        SumNode(
            [
                ProductNode(
                    [
                        _hist(0, [0.5, 0.5]),
                        GaussianLeaf(1, 1.0, 2.0),
                        CategoricalLeaf(2, [0.2, 0.3, 0.5]),
                        wide,
                    ]
                ),
                ProductNode(
                    [
                        _hist(0, [0.9, 0.1]),
                        GaussianLeaf(1, -1.0, 0.5),
                        CategoricalLeaf(2, [0.6, 0.3, 0.1]),
                        HistogramLeaf(3, np.array([1.0, 4.0]), np.array([1.0 / 3.0])),
                    ]
                ),
            ],
            [0.4, 0.6],
        )
    )
    rng = np.random.default_rng(12)
    data = np.column_stack(
        [
            rng.integers(0, 2, 40),
            rng.normal(0, 2, 40),
            rng.integers(0, 3, 40),
            rng.uniform(-1, 6, 40),
        ]
    ).astype(np.float64)
    np.testing.assert_allclose(
        plan_log_likelihood(compile_plan(spn), data),
        naive_log_likelihood(spn, data),
        rtol=1e-10,
    )


def test_nan_input_matches_reference_floor_semantics():
    spn = random_spn(3, depth=2, n_bins=4, seed=9)
    data = _random_data(spn, 4, 9)
    data[1, 0] = np.nan
    got = plan_log_likelihood(compile_plan(spn), data)
    expected = reference_node_log_values(spn, data)[spn.root.id]
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_unknown_marginal_variable_rejected():
    spn = random_spn(3, depth=2, n_bins=4, seed=4)
    with pytest.raises(SPNStructureError):
        plan_log_likelihood(compile_plan(spn), _random_data(spn, 3, 4), marginalized=[17])


def test_evaluate_plan_matrix_contract():
    spn = random_spn(4, depth=3, n_bins=4, seed=6)
    plan = compile_plan(spn)
    data = _random_data(spn, 7, 6)
    matrix = evaluate_plan(plan, data)
    assert matrix.shape == (plan.n_nodes, 7)
    reference = reference_node_log_values(spn, data)
    for row, node_id in enumerate(plan.node_ids):
        np.testing.assert_allclose(matrix[row], reference[int(node_id)], rtol=1e-10)


# ---------------------------------------------------------------------------
# Plan caching and invalidation
# ---------------------------------------------------------------------------


def test_plan_cache_reuses_compiled_plan():
    clear_plan_cache()
    spn = random_spn(4, depth=3, n_bins=4, seed=8)
    first = get_plan(spn)
    second = get_plan(spn)
    assert first is second
    info = plan_cache_info()
    assert info["hits"] >= 1 and info["misses"] >= 1 and info["size"] >= 1


def test_mutated_spn_does_not_reuse_stale_plan():
    spn = SPN(SumNode([_hist(0, [0.5, 0.5]), _hist(0, [0.9, 0.1])], [0.3, 0.7]))
    data = np.array([[0.0], [1.0]])
    before = log_likelihood(spn, data)
    # In-place parameter mutation: same graph object, new distribution.
    root = spn.root
    root.weights = np.array([0.9, 0.1])
    root.log_weights = np.log(root.weights)
    after = log_likelihood(spn, data)
    assert not np.allclose(before, after)
    np.testing.assert_allclose(after, naive_log_likelihood(spn, data), rtol=1e-12)


def test_mutated_leaf_table_invalidates_plan():
    leaf = _hist(0, [0.5, 0.5])
    spn = SPN(leaf)
    before = log_likelihood(spn, np.array([[0.0]]))
    leaf.densities = np.array([0.2, 0.8])
    after = log_likelihood(spn, np.array([[0.0]]))
    assert not np.allclose(before, after)
    np.testing.assert_allclose(after, np.log([0.2]), rtol=1e-12)


def test_clear_plan_cache_resets_counters():
    clear_plan_cache()
    info = plan_cache_info()
    assert info["size"] == 0 and info["hits"] == 0 and info["misses"] == 0


# ---------------------------------------------------------------------------
# Chunk boundaries and storage precision (dtype=)
# ---------------------------------------------------------------------------


@pytest.fixture()
def tiny_chunks(monkeypatch):
    """Force the evaluator's chunk to its 256-row floor so modest
    batches span several chunks (600 rows -> 256 + 256 + 88)."""
    monkeypatch.setattr("repro.spn.plan_eval.DEFAULT_CHUNK_BYTES", 1)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
def test_marginal_query_across_chunk_boundaries(tiny_chunks, dtype, tol):
    """Marginalisation state must survive the chunked column walk —
    600 rows do not divide into 256-row chunks evenly."""
    spn = random_spn(6, depth=3, n_bins=6, seed=19)
    data = _random_data(spn, 600, seed=20)
    marg = [1, 3]
    expected = reference_node_log_values(spn, data, marginalized=marg)[spn.root.id]
    got = plan_log_likelihood(
        compile_plan(spn), data, marginalized=marg, dtype=dtype
    )
    np.testing.assert_allclose(got, expected, atol=tol, rtol=1e-10)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
def test_missing_values_across_chunk_boundaries(tiny_chunks, dtype, tol):
    spn = random_spn(6, depth=3, n_bins=6, seed=21)
    data = _random_data(spn, 600, seed=22)
    data[5::7, 2] = 255.0  # sentinel rows in every chunk
    expected = reference_node_log_values(
        spn, data, missing_mask=data == 255.0
    )[spn.root.id]
    got = plan_log_likelihood(
        compile_plan(spn), data, missing_value=255.0, dtype=dtype
    )
    np.testing.assert_allclose(got, expected, atol=tol, rtol=1e-10)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_degenerate_batches(tiny_chunks, dtype):
    """batch == 0 and batch == 1 through the chunked path."""
    spn = random_spn(5, depth=3, n_bins=5, seed=23)
    plan = compile_plan(spn)
    width = max(spn.scope) + 1
    empty = plan_log_likelihood(plan, np.empty((0, width)), dtype=dtype)
    assert empty.shape == (0,) and empty.dtype == np.float64
    single = _random_data(spn, 1, seed=24)
    got = plan_log_likelihood(plan, single, dtype=dtype)
    np.testing.assert_allclose(
        got, naive_log_likelihood(spn, single), atol=1e-4, rtol=1e-10
    )


def test_chunked_equals_unchunked(monkeypatch):
    """Chunk splits are invisible in float64 — bit-identical results."""
    spn = random_spn(6, depth=3, n_bins=6, seed=25)
    data = _random_data(spn, 600, seed=26)
    whole = plan_log_likelihood(compile_plan(spn), data)
    monkeypatch.setattr("repro.spn.plan_eval.DEFAULT_CHUNK_BYTES", 1)
    chunked = plan_log_likelihood(compile_plan(spn), data)
    assert np.array_equal(whole, chunked)


def test_float32_input_accepted_without_upcast():
    """float32 data with dtype=float32 must evaluate directly (the
    executor's zero-copy path) and match the float64 answer closely."""
    spn = random_spn(6, depth=3, n_bins=6, seed=27)
    data = _random_data(spn, 257, seed=28)
    plan = compile_plan(spn)
    exact = plan_log_likelihood(plan, data)
    via32 = plan_log_likelihood(plan, data.astype(np.float32), dtype=np.float32)
    np.testing.assert_allclose(via32, exact, atol=1e-4)


def test_invalid_dtype_rejected():
    spn = random_spn(4, depth=2, n_bins=4, seed=29)
    with pytest.raises(SPNStructureError):
        plan_log_likelihood(
            compile_plan(spn), _random_data(spn, 3, seed=30), dtype=np.int64
        )


# ---------------------------------------------------------------------------
# Per-variable leaf groups: irregular bins, shared variables, zero column
# ---------------------------------------------------------------------------


class _Laplace(LeafNode):
    """A leaf family without a fused kernel: the per-leaf Python path."""

    kind = "laplace"

    def log_density(self, values):
        return np.log(0.5) - np.abs(np.asarray(values, dtype=np.float64) - 2.0)


#: Two interleaved irregular leaves per variable (one pair of breaks
#: 1e-9 apart, one one-bin leaf).
_IRREGULAR = (
    np.array([-1.5, 0.5, 1.0, 1.0 + 1e-9, 2.25, 3.0, 7.75]),
    np.array([0.0, 1.5, 2.5, 6.0]),
    np.array([1.25, 4.0]),
)


def _irregular(var, breaks, rng):
    masses = rng.random(len(breaks) - 1) + 0.05
    return HistogramLeaf(var, breaks, masses / masses.sum() / np.diff(breaks))


def _group_spn():
    """Variable 0 carries unit-bin *and* interleaved irregular leaves,
    variable 1 unit-bin leaves only, variable 2 irregular leaves only,
    variable 3 a Gaussian and variable 4 a leaf of a foreign family, so
    every group coding path and the group-by-group rows are exercised."""
    rng = np.random.default_rng(31)

    def unit(var, lo, n):
        masses = rng.random(n) + 0.05
        return HistogramLeaf(var, np.arange(lo, lo + n + 1, dtype=float), masses / masses.sum())

    def branch(shift):
        mixed = SumNode(
            [unit(0, shift, 5), _irregular(0, _IRREGULAR[shift], rng), unit(0, 2, 6)],
            [0.5, 0.3, 0.2],
        )
        return ProductNode(
            [
                unit(1, shift - 1, 4),
                mixed,
                _irregular(2, _IRREGULAR[2 - shift], rng),
                GaussianLeaf(3, float(shift), 1.5),
                _Laplace(4),
            ][::1 if shift else -1]
        )

    return SPN(SumNode([branch(0), branch(1)], [0.4, 0.6]))


def _group_batch(n_rows, seed=33):
    """Every irregular break and its neighbouring doubles, non-finite
    and huge values and every integer of the domains in each column,
    then a random mix of those and fractional values."""
    rng = np.random.default_rng(seed)
    breaks = np.concatenate(_IRREGULAR)
    probes = np.concatenate([
        breaks, np.nextafter(breaks, -np.inf), np.nextafter(breaks, np.inf),
        [np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0], np.arange(-2.0, 10.0),
    ])
    data = rng.uniform(-2.5, 9.0, size=(n_rows, 5))
    mask = rng.random(data.shape) < 0.5
    data[mask] = rng.choice(probes, size=int(mask.sum()))
    data[: len(probes)] = probes[:, np.newaxis]
    return data


def _assert_leaf_values(got, leaf, expected):
    """Bit for bit, except the Gaussian closed form, which folds its
    normaliser into one constant (a different rounding order)."""
    if isinstance(leaf, GaussianLeaf):
        np.testing.assert_allclose(got, expected, rtol=1e-12)
    else:
        assert np.array_equal(got, expected, equal_nan=True), leaf


def test_plan_leaf_values_equal_log_density_bit_for_bit():
    spn = _group_spn()
    data = _group_batch(300)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got = plan_leaf_log_values(compile_plan(spn), data)
        for leaf in spn.leaves:
            _assert_leaf_values(got[leaf.id], leaf, leaf.log_density(data[:, leaf.variable]))


def test_plan_leaf_values_equal_log_density_on_nips10():
    from repro.spn import nips_benchmark

    spn = nips_benchmark("NIPS10").spn
    plan = get_plan(spn)
    edges = np.concatenate([  # NIPS10 has irregular-bin leaves
        group.breaks for group in plan.histogram_block.groups if not group.unit_bins
    ])
    data = np.tile(np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [np.nan, np.inf, -np.inf, 1e300, 3.5],
    ])[:, np.newaxis], (1, plan.n_data_columns))
    got = plan_leaf_log_values(plan, data)
    for leaf in spn.leaves:
        assert np.array_equal(got[leaf.id], leaf.log_density(data[:, leaf.variable]))


@pytest.mark.parametrize("name", ["NIPS10", "NIPS20", "NIPS30", "NIPS40", "NIPS80"])
def test_nips_histogram_leaves_all_join_their_variable_group(name):
    """No generic block; rows run group by group, variables sorted; each
    table has a column per cell plus the all-zero column."""
    from repro.spn import nips_benchmark

    plan = get_plan(nips_benchmark(name).spn)
    assert plan.generic_block is None
    groups = plan.histogram_block.groups
    assert len(plan.histogram_block) == plan.n_leaves
    assert [g.variable for g in groups] == sorted(plan.scope)
    row = 0
    for group in groups:
        assert group.row_start == row
        assert np.all(plan.leaf_variables[row: row + len(group)] == group.variable)
        assert group.table.shape == (len(group), len(group.breaks) + 2)
        assert not group.table[:, -1].any()
        row += len(group)
    assert row == plan.n_leaves


def test_unit_bin_fill_is_bounded_by_max_composite_domain():
    """Unit-bin leaves further apart than MAX_COMPOSITE_DOMAIN keep only
    their own breaks: the group is searched, not filled, and still
    answers bit for bit."""
    from repro.spn.plan import MAX_COMPOSITE_DOMAIN

    far = MAX_COMPOSITE_DOMAIN + 10.0
    left = HistogramLeaf(0, np.arange(0.0, 4.0), [0.2, 0.3, 0.5])
    right = HistogramLeaf(0, np.arange(far, far + 4.0), [0.6, 0.3, 0.1])
    plan = compile_plan(SPN(SumNode([left, right], [0.5, 0.5])))
    (group,) = plan.histogram_block.groups
    assert len(group.breaks) == 8 and not group.unit_bins
    data = np.concatenate([
        group.breaks, np.nextafter(group.breaks, -np.inf),
        np.nextafter(group.breaks, np.inf), [np.nan, np.inf, -np.inf, 50.0],
    ])[:, np.newaxis]
    got = plan_leaf_log_values(plan, data)
    for leaf in (left, right):
        assert np.array_equal(got[leaf.id], leaf.log_density(data[:, 0]))


@pytest.mark.parametrize(
    "query",
    [{"marginalized": [0]}, {"marginalized": [0, 2, 4]}, {"missing_value": 1.0},
     {"missing_value": 2.25, "marginalized": [1]}],
)
def test_zero_column_on_a_mixed_variable(query):
    spn = _group_spn()
    plan = compile_plan(spn)
    data = _group_batch(200)
    data[::3, 0] = data[::4, 2] = 2.25  # missing entries on searched variables
    data[1::5, 0] = 1.0
    marg = set(query.get("marginalized", ()))
    missing = query.get("missing_value")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        leaves = plan_leaf_log_values(plan, data, **query)
        for leaf in spn.leaves:
            expected = leaf.log_density(data[:, leaf.variable])
            expected[data[:, leaf.variable] == missing] = 0.0
            if leaf.variable in marg:
                expected[:] = 0.0
            _assert_leaf_values(leaves[leaf.id], leaf, expected)
        mask = data == missing if missing is not None else None
        reference = reference_node_log_values(
            spn, data, marginalized=sorted(marg), missing_mask=mask
        )[spn.root.id]
        got = plan_log_likelihood(plan, data, **query)
    np.testing.assert_allclose(got, reference, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "query", [{}, {"marginalized": [0, 4]}, {"missing_value": 2.25}]
)
def test_seam_batch_sizes_are_invisible(tiny_chunks, dtype, query):
    """Rows answer the same whatever batch they arrive in: sizes 1,
    15, 16, 17 and the 256-row chunk +- 1, both storage dtypes."""
    spn = _group_spn()
    plan = compile_plan(spn)
    with np.errstate(divide="ignore", over="ignore"):
        data = _group_batch(600).astype(dtype)
        whole = plan_log_likelihood(plan, data, dtype=dtype, **query)
        for size in (1, 15, 16, 17, 255, 256, 257):
            n = min(len(data), size * max(1, 40 // size))
            pieces = np.concatenate([
                plan_log_likelihood(plan, data[i: i + size], dtype=dtype, **query)
                for i in range(0, n, size)
            ])
            assert np.array_equal(pieces, whole[: len(pieces)], equal_nan=True), size
        exact = plan_log_likelihood(plan, data.astype(np.float64), **query)
    finite = np.isfinite(exact)
    np.testing.assert_allclose(whole[finite], exact[finite], atol=1e-4, rtol=1e-5)
    np.testing.assert_array_equal(whole[~finite], exact[~finite])


def test_evaluate_plan_rows_follow_node_ids_with_irregular_leaves():
    spn = _group_spn()
    plan = compile_plan(spn)
    data = _group_batch(120)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        matrix = evaluate_plan(plan, data, missing_value=2.25)
        reference = reference_node_log_values(spn, data, missing_mask=data == 2.25)
    leaves = {leaf.id: leaf for leaf in spn.leaves}
    for row, node_id in enumerate(plan.node_ids):
        if int(node_id) in leaves:
            _assert_leaf_values(matrix[row], leaves[int(node_id)], reference[int(node_id)])
        else:
            np.testing.assert_allclose(matrix[row], reference[int(node_id)], rtol=1e-12)


# ---------------------------------------------------------------------------
# The NIPS networks: bit for bit against the walk, in any batch
# ---------------------------------------------------------------------------


def _nips_query(name, n_rows, query, dtype=np.float64):
    """A ``host_cpu_batch`` of *name* and the keywords of *query*."""
    from repro.experiments.utilization import host_cpu_batch

    data = host_cpu_batch(name, n_rows, dtype=dtype)
    return (data, *_query(data, query, 37, [0, 3, 7]))


@pytest.mark.parametrize("query", ["likelihood", "marginal", "missing"])
@pytest.mark.parametrize("name", ["NIPS10", "NIPS20", "NIPS80"])
def test_nips_plans_equal_the_walk_bit_for_bit(name, query):
    """Every node of the float64 plan (1000 rows: two chunks on NIPS80)
    and the root equal the reference walk exactly."""
    from repro.spn import nips_benchmark

    spn = nips_benchmark(name).spn
    plan = compile_plan(spn)
    data, plan_query, walk_query = _nips_query(name, 1000, query)
    expected = reference_node_log_values(spn, data, **walk_query)
    matrix = evaluate_plan(plan, data, **plan_query)
    for row, node_id in enumerate(plan.node_ids):
        assert np.array_equal(matrix[row], expected[int(node_id)]), int(node_id)
    assert np.array_equal(
        plan_log_likelihood(plan, data, **plan_query), expected[spn.root.id]
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("query", ["likelihood", "missing"])
def test_nips80_answers_do_not_depend_on_the_batch(dtype, query):
    """A NIPS80 row answers alike in batches of 1, 2, 3, 17 and the
    chunk +- 1; the last row of a chunk + 1 batch runs as a one-column
    chunk, the shape where a numpy reduction turns pairwise."""
    from repro.spn import nips_benchmark
    from repro.spn.plan_eval import _chunk_size

    spn = nips_benchmark("NIPS80").spn
    plan = compile_plan(spn)
    chunk = _chunk_size(plan, 10**9, np.dtype(dtype).itemsize)
    data, plan_query, walk_query = _nips_query("NIPS80", chunk + 1, query, dtype)
    whole = plan_log_likelihood(plan, data, dtype=dtype, **plan_query)
    for size in (1, 2, 3, 17, chunk - 1, chunk, chunk + 1):
        n = min(len(data), size * max(1, 40 // size))
        pieces = np.concatenate([
            plan_log_likelihood(plan, data[i: i + size], dtype=dtype, **plan_query)
            for i in range(0, n, size)
        ])
        assert np.array_equal(pieces, whole[: len(pieces)]), size
    tail = plan_log_likelihood(plan, data[-1:], dtype=dtype, **plan_query)
    assert np.array_equal(tail, whole[-1:])
    if dtype == np.float64:
        walk = reference_node_log_values(spn, data, **walk_query)[spn.root.id]
        assert np.array_equal(whole, walk)
