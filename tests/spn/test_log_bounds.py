"""Soundness of the plan's static log-value bounds.

:attr:`repro.spn.plan.InferencePlan.log_bounds` decides which nodes the
native kernel evaluates in the linear domain, so an input that escapes
a bound is a wrong answer there, not a loose estimate.  Every row of
the numpy evaluator's value matrix must lie inside ``[lo, hi]`` for
random, NIPS and edge-pool networks under every query type; ``-inf``
may appear only where ``can_zero`` says so.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spn import (
    SPN,
    HistogramLeaf,
    ProductNode,
    SumNode,
    compile_plan,
    evaluate_plan,
    get_plan,
    nips_benchmark,
    random_spn,
)
from tests.spn.test_native_backend import (
    _EDGE_QUERIES,
    _edge_batch,
    _edge_spn,
    _zeros_spn,
)
from tests.spn.test_plan import _group_batch, _group_spn


def _assert_inside(plan, data, **query):
    """Every value of every row inside its row's bounds."""
    lo, hi, can_zero = (bound[:, np.newaxis] for bound in plan.log_bounds)
    with np.errstate(all="ignore"):
        values = evaluate_plan(plan, data, **query)
    slack = 1e-12 * (1.0 + np.abs(np.where(np.isfinite(values), values, 0.0)))
    finite = np.isfinite(values)
    outside = finite & ((values < lo - slack) | (values > hi + slack))
    assert not outside.any(), f"rows {np.unique(np.nonzero(outside)[0])} {query}"
    assert not (np.isneginf(values) & ~can_zero).any(), query
    assert not np.isposinf(values).any(), query
    # NaN comes only from a leaf family unbounded below (a Gaussian or
    # generic leaf fed NaN), never from a histogram.
    assert not (np.isnan(values) & (lo > -np.inf)).any(), query


def _queries(plan, missing):
    return ({}, {"marginalized": sorted(plan.scope)[::2]}, {"missing_value": missing})


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_variables=st.integers(min_value=1, max_value=6),
    depth=st.integers(min_value=1, max_value=4),
)
def test_bounds_hold_on_random_spns(seed, n_variables, depth):
    plan = compile_plan(random_spn(n_variables, depth=depth, n_bins=5, seed=seed))
    rng = np.random.default_rng(seed)
    data = rng.integers(-2, 8, size=(64, plan.n_data_columns)).astype(np.float64)
    data[rng.random(data.shape) < 0.1] = np.nan
    for query in _queries(plan, missing=3.0):
        _assert_inside(plan, data, **query)


@pytest.mark.parametrize("name", ["NIPS10", "NIPS20", "NIPS30", "NIPS40", "NIPS80"])
def test_bounds_hold_on_nips_networks(name):
    plan = get_plan(nips_benchmark(name).spn)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 256, size=(300, plan.n_data_columns)).astype(np.float64)
    data[:10] = -1.0  # every leaf at its floor
    data[rng.random(data.shape) < 0.1] = 255.0
    for query in _queries(plan, missing=255.0):
        _assert_inside(plan, data, **query)


def test_bounds_hold_on_the_edge_pools():
    """The native backend's edge SPN (shared leaves, wide nodes,
    Gaussian and categorical leaves, non-finite inputs) and the plan's
    group SPN (irregular and mixed groups, a generic leaf)."""
    plan = compile_plan(_edge_spn())
    for query in _EDGE_QUERIES:
        _assert_inside(plan, _edge_batch(400), **query)
    plan = compile_plan(_group_spn())
    for query in ({}, {"marginalized": [0, 4]}, {"missing_value": 2.25}):
        _assert_inside(plan, _group_batch(300), **query)


def test_can_be_zero_rule():
    """A zero-density bin and a zero weight: a sum's ``lo`` is its best
    weighted child that is never zero, else its worst child; a
    zero-weight child drops out; every row stays sound."""
    spn = _zeros_spn()
    with np.errstate(divide="ignore"):
        plan = compile_plan(spn)
    lo, hi, can_zero = plan.log_bounds
    mix, only_zero, weightless = spn.root.children[0].children
    zeroed, other = mix.children
    zeroed, other, mix, only_zero, weightless = (
        list(plan.node_ids).index(node.id)
        for node in (zeroed, other, mix, only_zero, weightless)
    )
    assert can_zero[zeroed] and not can_zero[other]
    assert lo[zeroed] == np.log(0.5)  # its least finite cell
    assert not can_zero[mix] and lo[mix] == np.log(0.5) + lo[other]
    assert can_zero[only_zero] and lo[only_zero] == np.log(0.4) + np.log(0.5)
    # The never-zero child has weight 0: the live child can be zero.
    assert can_zero[weightless]
    assert lo[weightless] == np.log(0.5) + np.log(0.5)
    assert can_zero[plan.root_row] and hi[plan.root_row] <= np.log(2.0)
    data = np.random.default_rng(4).integers(-1, 4, size=(200, 3)).astype(float)
    for query in ({}, {"marginalized": [1]}, {"missing_value": 1.0}):
        _assert_inside(plan, data, **query)


def test_all_floor_row_attains_lo():
    """A sum over products of 30 floor-1e-12 histogram leaves: a row
    outside every leaf's support puts each leaf and each product exactly
    on its ``lo``, and the root within its weight's log of it."""
    rng = np.random.default_rng(5)

    def product():
        leaves = []
        for var in range(30):
            masses = rng.random(4) + 0.05
            leaves.append(HistogramLeaf(var, np.arange(5.0), masses / masses.sum()))
        return ProductNode(leaves)

    plan = compile_plan(SPN(SumNode([product(), product()], [0.9, 0.1])))
    lo = plan.log_bounds.lo
    values = evaluate_plan(plan, np.full((1, 30), -1.0))[:, 0]
    below_root = np.arange(plan.n_nodes) != plan.root_row
    np.testing.assert_allclose(values[below_root], lo[below_root], rtol=1e-14)
    assert lo[0] == np.log(1e-12) and lo[plan.root_row] < -708.4
    root = values[plan.root_row]
    assert lo[plan.root_row] <= root <= lo[plan.root_row] - np.log(0.9) + 1e-9
