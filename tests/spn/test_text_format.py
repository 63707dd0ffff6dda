"""Unit and property tests for the SPFlow-compatible text format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SPNFormatError
from repro.spn import (
    SPN,
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    ProductNode,
    SumNode,
    dump,
    dumps,
    load,
    loads,
    log_likelihood,
    random_spn,
)


def _hist(var, masses=(0.25, 0.75)):
    return HistogramLeaf(var, np.arange(len(masses) + 1, dtype=float), masses)


class TestSerialise:
    def test_histogram_leaf_format(self):
        text = dumps(SPN(_hist(0)))
        assert text.startswith("Histogram(V0|[")
        assert ";" in text

    def test_gaussian_leaf_format(self):
        text = dumps(SPN(GaussianLeaf(2, 1.5, 0.5)))
        assert text == "Gaussian(V2|1.5;0.5)"

    def test_categorical_leaf_format(self):
        text = dumps(SPN(CategoricalLeaf(1, [0.5, 0.5])))
        assert text == "Categorical(V1|[0.5,0.5])"

    def test_product_uses_stars(self):
        spn = SPN(ProductNode([_hist(0), _hist(1)]))
        text = dumps(spn)
        assert text.count(" * ") == 1
        assert text.startswith("(") and text.endswith(")")

    def test_sum_uses_weighted_terms(self):
        spn = SPN(SumNode([_hist(0), _hist(0)], [0.25, 0.75]))
        text = dumps(spn)
        assert "0.25*" in text and "0.75*" in text and " + " in text


class TestParse:
    def test_parse_gaussian(self):
        spn = loads("Gaussian(V3|0.5;1.25)")
        leaf = spn.root
        assert isinstance(leaf, GaussianLeaf)
        assert leaf.variable == 3
        assert leaf.mean == 0.5
        assert leaf.stdev == 1.25

    def test_parse_histogram(self):
        spn = loads("Histogram(V0|[0.0,1.0,2.0];[0.25,0.75])")
        leaf = spn.root
        assert isinstance(leaf, HistogramLeaf)
        assert leaf.n_bins == 2

    def test_parse_categorical(self):
        spn = loads("Categorical(V1|[0.2,0.3,0.5])")
        assert isinstance(spn.root, CategoricalLeaf)
        assert spn.root.n_categories == 3

    def test_parse_product(self):
        spn = loads("(Histogram(V0|[0,1];[1.0]) * Histogram(V1|[0,1];[1.0]))")
        assert isinstance(spn.root, ProductNode)
        assert spn.n_variables == 2

    def test_parse_sum(self):
        spn = loads(
            "(0.3*Histogram(V0|[0,1,2];[0.5,0.5]) + 0.7*Histogram(V0|[0,1,2];[0.1,0.9]))"
        )
        assert isinstance(spn.root, SumNode)
        assert spn.root.weights == pytest.approx([0.3, 0.7])

    def test_whitespace_insensitive(self):
        spn = loads(
            "( 0.5 * Histogram( V0 | [0,1] ; [1.0] )\n + 0.5*Histogram(V0|[0,1];[1.0]) )"
        )
        assert isinstance(spn.root, SumNode)

    def test_scientific_notation(self):
        spn = loads("Gaussian(V0|1e-3;2.5E2)")
        assert spn.root.mean == pytest.approx(1e-3)
        assert spn.root.stdev == pytest.approx(250.0)

    def test_nested_structure(self):
        text = (
            "(0.5*(Histogram(V0|[0,1];[1.0]) * Histogram(V1|[0,1];[1.0]))"
            " + 0.5*(Histogram(V0|[0,1];[1.0]) * Histogram(V1|[0,1];[1.0])))"
        )
        spn = loads(text)
        assert isinstance(spn.root, SumNode)
        assert all(isinstance(c, ProductNode) for c in spn.root.children)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "   ",
            "Histogram(V0|[0,1];[1.0]",  # missing paren
            "Unknown(V0|[0,1];[1.0])",
            "(Histogram(V0|[0,1];[1.0]) + Histogram(V1|[0,1];[1.0]))",  # sum w/o weights
            "Histogram(X0|[0,1];[1.0])",  # bad variable ref
            "(Histogram(V0|[0,1];[1.0]) * Histogram(V1|[0,1];[1.0])) junk",
            "(0.5*Histogram(V0|[0,1];[1.0]) * Histogram(V1|[0,1];[1.0]))",  # mixed ops
        ],
    )
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(SPNFormatError):
            loads(bad)

    def test_invalid_structure_still_checked(self):
        # Parses fine but is not decomposable.
        text = "(Histogram(V0|[0,1];[1.0]) * Histogram(V0|[0,1];[1.0]))"
        from repro.errors import SPNStructureError

        with pytest.raises(SPNStructureError):
            loads(text)
        assert loads(text, validate=False) is not None

    def test_non_finite_histogram_break_rejected(self):
        # 1e999 parses to inf; the leaf itself refuses it.
        from repro.errors import SPNStructureError

        with pytest.raises(SPNStructureError, match="finite"):
            loads("Histogram(V0|[0,1,1e999];[0.5,0.5])")


class TestRoundTrip:
    def test_file_round_trip(self):
        spn = SPN(SumNode([_hist(0), _hist(0)], [0.4, 0.6]))
        buffer = io.StringIO()
        dump(spn, buffer)
        buffer.seek(0)
        again = load(buffer)
        assert dumps(again) == dumps(spn)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_vars=st.integers(1, 10),
        depth=st.integers(1, 4),
    )
    def test_random_spn_round_trip_preserves_likelihood(self, seed, n_vars, depth):
        spn = random_spn(n_vars, depth=depth, n_bins=5, seed=seed)
        again = loads(dumps(spn))
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 5, size=(8, n_vars)).astype(float)
        np.testing.assert_allclose(
            log_likelihood(spn, data), log_likelihood(again, data), rtol=1e-12
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_double_round_trip_is_fixed_point(self, seed):
        spn = random_spn(6, depth=3, n_bins=4, seed=seed)
        once = dumps(loads(dumps(spn)))
        twice = dumps(loads(once))
        assert once == twice
