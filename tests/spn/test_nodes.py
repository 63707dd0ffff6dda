"""Unit tests for SPN node types."""

import math

import numpy as np
import pytest

from repro.errors import SPNStructureError
from repro.spn import (
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    ProductNode,
    SumNode,
)


def _hist(var=0, masses=(0.25, 0.75)):
    breaks = np.arange(len(masses) + 1, dtype=float)
    return HistogramLeaf(var, breaks, masses)


class TestSumNode:
    def test_weights_normalised(self):
        node = SumNode([_hist(), _hist()], [2.0, 6.0])
        assert node.weights == pytest.approx([0.25, 0.75])

    def test_log_weights_consistent(self):
        node = SumNode([_hist(), _hist()], [1.0, 3.0])
        assert node.log_weights == pytest.approx(np.log(node.weights))

    def test_empty_children_rejected(self):
        with pytest.raises(SPNStructureError):
            SumNode([], [])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(SPNStructureError):
            SumNode([_hist()], [0.5, 0.5])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(SPNStructureError):
            SumNode([_hist(), _hist()], [1.0, 0.0])

    def test_nan_weight_rejected(self):
        with pytest.raises(SPNStructureError):
            SumNode([_hist(), _hist()], [1.0, float("nan")])

    def test_scope_from_children(self):
        node = SumNode([_hist(3), _hist(3)], [1, 1])
        assert node.scope == (3,)


class TestProductNode:
    def test_scope_is_sorted_union(self):
        node = ProductNode([_hist(4), _hist(1), _hist(2)])
        assert node.scope == (1, 2, 4)

    def test_empty_children_rejected(self):
        with pytest.raises(SPNStructureError):
            ProductNode([])


class TestHistogramLeaf:
    def test_density_normalised_over_support(self):
        leaf = HistogramLeaf(0, [0.0, 1.0, 2.0], [3.0, 1.0])
        # Unit-width bins: densities normalise to sum 1.
        assert leaf.densities == pytest.approx([0.75, 0.25])

    def test_log_density_inside_bins(self):
        leaf = HistogramLeaf(0, [0.0, 1.0, 2.0], [0.25, 0.75])
        values = np.array([0.0, 0.5, 1.0, 1.99])
        expected = np.log([0.25, 0.25, 0.75, 0.75])
        assert leaf.log_density(values) == pytest.approx(expected)

    def test_out_of_support_gets_floor(self):
        leaf = HistogramLeaf(0, [0.0, 1.0], [1.0], floor=1e-6)
        out = leaf.log_density(np.array([-1.0, 5.0]))
        assert out == pytest.approx([math.log(1e-6)] * 2)

    def test_upper_break_is_exclusive(self):
        leaf = HistogramLeaf(0, [0.0, 1.0], [1.0], floor=1e-6)
        assert leaf.log_density(np.array([1.0]))[0] == pytest.approx(math.log(1e-6))

    def test_nonuniform_bin_widths(self):
        leaf = HistogramLeaf(0, [0.0, 1.0, 3.0], [0.5, 0.25])
        # Total mass: 0.5*1 + 0.25*2 = 1.0 already normalised.
        assert leaf.log_density(np.array([2.0]))[0] == pytest.approx(math.log(0.25))

    def test_mass_renormalised(self):
        leaf = HistogramLeaf(0, [0.0, 1.0, 2.0], [2.0, 2.0])
        assert leaf.densities == pytest.approx([0.5, 0.5])

    def test_invalid_breaks_rejected(self):
        with pytest.raises(SPNStructureError):
            HistogramLeaf(0, [0.0, 0.0, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize(
        "breaks",
        # NaN passes a `diff <= 0` check; a +-inf break makes the mass
        # infinite and every density silently 0.
        [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]],
    )
    def test_non_finite_breaks_rejected(self, breaks):
        with pytest.raises(SPNStructureError, match="finite"):
            HistogramLeaf(0, breaks, [0.5, 0.5])

    def test_break_density_length_mismatch_rejected(self):
        with pytest.raises(SPNStructureError):
            HistogramLeaf(0, [0.0, 1.0], [0.5, 0.5])

    def test_zero_mass_rejected(self):
        with pytest.raises(SPNStructureError):
            HistogramLeaf(0, [0.0, 1.0], [0.0])

    def test_negative_variable_rejected(self):
        with pytest.raises(SPNStructureError):
            HistogramLeaf(-1, [0.0, 1.0], [1.0])

    def test_bin_log_probs_match_densities(self):
        leaf = HistogramLeaf(0, [0.0, 1.0, 2.0], [0.25, 0.75])
        assert leaf.bin_log_probs() == pytest.approx(np.log([0.25, 0.75]))

    def test_n_bins(self):
        assert _hist(masses=(0.1, 0.2, 0.7)).n_bins == 3


class TestGaussianLeaf:
    def test_matches_closed_form(self):
        leaf = GaussianLeaf(0, mean=1.0, stdev=2.0)
        x = np.array([1.0])
        expected = -0.5 * math.log(2 * math.pi * 4.0)
        assert leaf.log_density(x)[0] == pytest.approx(expected)

    def test_integrates_to_one(self):
        leaf = GaussianLeaf(0, mean=0.0, stdev=1.0)
        xs = np.linspace(-8, 8, 20001)
        mass = np.trapezoid(np.exp(leaf.log_density(xs)), xs)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_invalid_stdev_rejected(self):
        with pytest.raises(SPNStructureError):
            GaussianLeaf(0, 0.0, 0.0)

    def test_nonfinite_mean_rejected(self):
        with pytest.raises(SPNStructureError):
            GaussianLeaf(0, float("inf"), 1.0)


class TestCategoricalLeaf:
    def test_masses_normalised(self):
        leaf = CategoricalLeaf(0, [1.0, 3.0])
        assert leaf.probabilities == pytest.approx([0.25, 0.75])

    def test_log_density_lookup(self):
        leaf = CategoricalLeaf(0, [0.5, 0.5])
        assert leaf.log_density(np.array([1.0]))[0] == pytest.approx(math.log(0.5))

    def test_out_of_range_gets_floor(self):
        leaf = CategoricalLeaf(0, [0.5, 0.5], floor=1e-9)
        out = leaf.log_density(np.array([7.0, -1.0]))
        assert out == pytest.approx([math.log(1e-9)] * 2)

    def test_noninteger_value_gets_floor(self):
        leaf = CategoricalLeaf(0, [0.5, 0.5], floor=1e-9)
        assert leaf.log_density(np.array([0.5]))[0] == pytest.approx(math.log(1e-9))

    def test_empty_rejected(self):
        with pytest.raises(SPNStructureError):
            CategoricalLeaf(0, [])


def test_node_ids_unique():
    nodes = [_hist() for _ in range(10)]
    assert len({n.id for n in nodes}) == 10
