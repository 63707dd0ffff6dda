"""SPN node types.

An SPN is a rooted DAG over three node families:

* **Leaves** — univariate distributions over one random variable.  The
  paper's accelerator uses *histogram* leaves (Mixed SPNs); Gaussian and
  categorical leaves are provided for the software baseline and for
  structure-learning comparisons.
* **Product nodes** — factorisations over disjoint variable scopes.
* **Sum nodes** — normalised mixtures of children sharing one scope.

Nodes are plain data carriers; structural validation lives in
:mod:`repro.spn.graph` and evaluation in :mod:`repro.spn.inference`.
Each node gets a process-unique integer ``id`` used for hashing, ordering
and serialisation.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SPNStructureError

__all__ = [
    "Node",
    "SumNode",
    "ProductNode",
    "LeafNode",
    "HistogramLeaf",
    "GaussianLeaf",
    "CategoricalLeaf",
]

_node_ids = itertools.count()


class Node:
    """Base class of all SPN nodes.

    Attributes
    ----------
    id:
        Process-unique integer, assigned at construction.
    children:
        Child nodes in evaluation order (empty for leaves).
    scope:
        Sorted tuple of the variable indices the node's distribution
        ranges over.
    """

    kind = "node"

    def __init__(self, children: Sequence["Node"] = ()):
        self.id = next(_node_ids)
        self.children: List[Node] = list(children)

    @property
    def is_leaf(self) -> bool:
        """True for univariate distribution leaves."""
        return not self.children and isinstance(self, LeafNode)

    @property
    def scope(self) -> Tuple[int, ...]:
        """Sorted variable indices covered by this node."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} id={self.id} scope={self.scope}>"


class SumNode(Node):
    """A weighted mixture of children over a common scope.

    Weights must be positive and are normalised to sum to one at
    construction (SPN semantics require a convex combination).
    """

    kind = "sum"

    def __init__(self, children: Sequence[Node], weights: Sequence[float]):
        if len(children) == 0:
            raise SPNStructureError("sum node needs at least one child")
        if len(children) != len(weights):
            raise SPNStructureError(
                f"sum node has {len(children)} children but {len(weights)} weights"
            )
        weights = np.asarray(weights, dtype=np.float64)
        if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
            raise SPNStructureError("sum weights must be positive and finite")
        super().__init__(children)
        total = weights.sum()
        # Skip the division when already normalised (within float noise)
        # so serialise -> parse -> serialise is bit-exact (fixed point).
        self.weights = weights if abs(total - 1.0) <= 1e-12 else weights / total
        self.log_weights = np.log(self.weights)

    @property
    def scope(self) -> Tuple[int, ...]:
        return self.children[0].scope


class ProductNode(Node):
    """A factorisation over children with pairwise-disjoint scopes."""

    kind = "product"

    def __init__(self, children: Sequence[Node]):
        if len(children) == 0:
            raise SPNStructureError("product node needs at least one child")
        super().__init__(children)

    @property
    def scope(self) -> Tuple[int, ...]:
        merged: List[int] = []
        for child in self.children:
            merged.extend(child.scope)
        return tuple(sorted(merged))


class LeafNode(Node):
    """Base class of univariate distribution leaves."""

    kind = "leaf"

    def __init__(self, variable: int):
        if variable < 0:
            raise SPNStructureError(f"variable index must be >= 0, got {variable}")
        super().__init__()
        self.variable = int(variable)

    @property
    def scope(self) -> Tuple[int, ...]:
        return (self.variable,)

    def log_density(self, values: np.ndarray) -> np.ndarray:
        """Vectorised log-density/log-mass of *values* (1-D array)."""
        raise NotImplementedError


class HistogramLeaf(LeafNode):
    """A histogram distribution over one (discretised) variable.

    This is the Mixed-SPN leaf of Molina et al. that the paper's
    hardware maps to BRAM lookup tables: *breaks* define half-open bins
    ``[breaks[i], breaks[i+1])`` and *densities* give the probability
    density within each bin.  For integer-valued variables with
    unit-width bins the density equals the bin's probability mass, which
    is exactly the table the FPGA stores.

    Out-of-support values get probability ``floor`` (default: a tiny
    positive value) so hardware never has to represent exact zeros in
    log space.
    """

    kind = "histogram"

    #: Probability assigned to values outside the histogram support.
    DEFAULT_FLOOR = 1e-12

    def __init__(
        self,
        variable: int,
        breaks: Sequence[float],
        densities: Sequence[float],
        floor: float = DEFAULT_FLOOR,
    ):
        super().__init__(variable)
        breaks = np.asarray(breaks, dtype=np.float64)
        densities = np.asarray(densities, dtype=np.float64)
        if breaks.ndim != 1 or densities.ndim != 1:
            raise SPNStructureError("histogram breaks/densities must be 1-D")
        if len(breaks) != len(densities) + 1:
            raise SPNStructureError(
                f"histogram needs len(breaks) == len(densities)+1, got "
                f"{len(breaks)} breaks / {len(densities)} densities"
            )
        if len(densities) == 0:
            raise SPNStructureError("histogram needs at least one bin")
        if not np.all(np.isfinite(breaks)):
            raise SPNStructureError("histogram breaks must be finite")
        if np.any(np.diff(breaks) <= 0):
            raise SPNStructureError("histogram breaks must be strictly increasing")
        if np.any(densities < 0) or not np.all(np.isfinite(densities)):
            raise SPNStructureError("histogram densities must be >= 0 and finite")
        if floor <= 0:
            raise SPNStructureError("histogram floor must be positive")
        mass = float(np.sum(densities * np.diff(breaks)))
        if mass <= 0:
            raise SPNStructureError("histogram carries no probability mass")
        self.breaks = breaks
        # Skip the division when already normalised (within float noise)
        # so serialise -> parse -> serialise is bit-exact (fixed point).
        self.densities = densities if abs(mass - 1.0) <= 1e-12 else densities / mass
        self.floor = float(floor)

    @property
    def n_bins(self) -> int:
        """Number of histogram bins (the hardware LUT depth)."""
        return len(self.densities)

    def log_density(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        # searchsorted with side='right' maps breaks[i] <= v < breaks[i+1]
        # to bin i; index 0 / n_bins+1 are out of support.
        idx = np.searchsorted(self.breaks, values, side="right")
        inside = (idx >= 1) & (idx <= self.n_bins)
        dens = np.full(values.shape, self.floor, dtype=np.float64)
        dens[inside] = np.maximum(self.densities[idx[inside] - 1], self.floor)
        return np.log(dens)

    def bin_log_probs(self) -> np.ndarray:
        """Per-bin log densities with the floor applied.

        This is the table the hardware generator embeds in BRAM.
        """
        return np.log(np.maximum(self.densities, self.floor))


class GaussianLeaf(LeafNode):
    """A univariate normal distribution leaf."""

    kind = "gaussian"

    def __init__(self, variable: int, mean: float, stdev: float):
        super().__init__(variable)
        if not math.isfinite(mean):
            raise SPNStructureError(f"gaussian mean must be finite, got {mean}")
        if stdev <= 0 or not math.isfinite(stdev):
            raise SPNStructureError(f"gaussian stdev must be positive, got {stdev}")
        self.mean = float(mean)
        self.stdev = float(stdev)

    def log_density(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        z = (values - self.mean) / self.stdev
        return -0.5 * z * z - math.log(self.stdev) - 0.5 * math.log(2.0 * math.pi)


class CategoricalLeaf(LeafNode):
    """A categorical distribution over integer categories ``0..K-1``."""

    kind = "categorical"

    #: Probability for out-of-range categories (mirrors HistogramLeaf).
    DEFAULT_FLOOR = 1e-12

    def __init__(self, variable: int, probabilities: Sequence[float], floor: float = DEFAULT_FLOOR):
        super().__init__(variable)
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 1 or len(probs) == 0:
            raise SPNStructureError("categorical needs a non-empty 1-D probability vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise SPNStructureError("categorical probabilities must be >= 0 and finite")
        total = probs.sum()
        if total <= 0:
            raise SPNStructureError("categorical carries no probability mass")
        if floor <= 0:
            raise SPNStructureError("categorical floor must be positive")
        self.probabilities = probs if abs(total - 1.0) <= 1e-12 else probs / total
        self.floor = float(floor)

    @property
    def n_categories(self) -> int:
        """Number of categories."""
        return len(self.probabilities)

    def log_density(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        idx = np.rint(values).astype(np.int64)
        inside = (idx >= 0) & (idx < self.n_categories) & np.isclose(values, idx)
        out = np.full(idx.shape, np.log(self.floor), dtype=np.float64)
        out[inside] = np.log(np.maximum(self.probabilities[idx[inside]], self.floor))
        return out
