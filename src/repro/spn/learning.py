"""LearnSPN-style structure learning for Mixed SPNs.

Implements the classic recursive LearnSPN scheme (Gens & Domingos)
specialised to histogram leaves, mirroring the toolflow the paper
describes in §II-A: check variable independence (G-test of pairwise
independence on discretised data); if an independent split exists,
emit a product node over the connected components; otherwise cluster
the rows (k-means) and emit a sum node weighted by cluster sizes; stop
at single variables or tiny row counts and fit histogram leaves.

This is the "train with SPFlow, export to text" half of the paper's
development flow; :mod:`repro.spn.text_format` is the export half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SPNStructureError
from repro.spn.graph import SPN
from repro.spn.nodes import HistogramLeaf, Node, ProductNode, SumNode

__all__ = ["LearnSPNConfig", "learn_spn", "fit_histogram"]


@dataclass(frozen=True)
class LearnSPNConfig:
    """Hyper-parameters of the LearnSPN recursion."""

    #: Significance level of the pairwise G-test; larger values split
    #: scopes into products more eagerly (smaller networks).
    independence_alpha: float = 0.001
    #: Number of clusters per sum node.
    n_clusters: int = 2
    #: Stop recursing and fully factorise below this many rows.
    min_rows: int = 64
    #: Cap on recursion depth (sum+product layers).
    max_depth: int = 12
    #: Maximum histogram bins per leaf; wider-ranged variables are
    #: re-binned to at most this many equal-width bins.
    max_bins: int = 32
    #: Laplace smoothing added to each histogram bin count.
    smoothing: float = 1.0


def fit_histogram(
    values: np.ndarray,
    variable: int,
    *,
    domain: Optional[Tuple[float, float]] = None,
    max_bins: int = 32,
    smoothing: float = 1.0,
) -> HistogramLeaf:
    """Fit a histogram leaf to 1-D *values*.

    Integer-valued data with a small range gets unit-width bins (the
    bag-of-words case); anything else gets ``max_bins`` equal-width
    bins over the (data or supplied) domain.  *smoothing* pseudo-counts
    keep every bin strictly positive, which the hardware requires
    (log-domain tables cannot store -inf).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise SPNStructureError("fit_histogram needs a non-empty 1-D array")
    lo, hi = domain if domain is not None else (values.min(), values.max())
    if hi < lo:
        raise SPNStructureError(f"invalid domain ({lo}, {hi})")
    integral = np.allclose(values, np.rint(values))
    if integral and (hi - lo) + 1 <= max_bins:
        lo, hi = np.floor(lo), np.floor(hi)
        breaks = np.arange(lo, hi + 2, dtype=np.float64)
    else:
        if hi == lo:
            hi = lo + 1.0
        breaks = np.linspace(lo, hi, max_bins + 1)
        # Make the top edge inclusive for data exactly at the maximum.
        breaks[-1] = np.nextafter(breaks[-1], np.inf)
    counts, _ = np.histogram(values, bins=breaks)
    counts = counts.astype(np.float64) + smoothing
    widths = np.diff(breaks)
    densities = counts / (counts.sum() * widths)
    return HistogramLeaf(variable, breaks, densities)


def _discretise(column: np.ndarray, levels: int = 8) -> np.ndarray:
    """Map a column to small integer levels for the G-test."""
    uniq = np.unique(column)
    if len(uniq) <= levels:
        return np.searchsorted(uniq, column)
    quantiles = np.quantile(column, np.linspace(0, 1, levels + 1)[1:-1])
    return np.searchsorted(quantiles, column)


def _g_test_independent(
    x: np.ndarray, y: np.ndarray, alpha: float
) -> bool:
    """True when the pairwise G-test does NOT reject independence."""
    from scipy.stats import chi2

    xd = _discretise(x)
    yd = _discretise(y)
    kx = int(xd.max()) + 1
    ky = int(yd.max()) + 1
    if kx < 2 or ky < 2:
        return True  # a constant column is independent of everything
    table = np.zeros((kx, ky), dtype=np.float64)
    np.add.at(table, (xd, yd), 1.0)
    n = table.sum()
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row @ col / n
    mask = table > 0
    g = 2.0 * np.sum(table[mask] * np.log(table[mask] / expected[mask]))
    dof = (kx - 1) * (ky - 1)
    return g < chi2.ppf(1.0 - alpha, dof)


def _independent_components(
    data: np.ndarray, variables: Sequence[int], alpha: float
) -> List[List[int]]:
    """Partition *variables* into dependency-connected components."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(len(variables)))
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            if not _g_test_independent(data[:, i], data[:, j], alpha):
                graph.add_edge(i, j)
    components = [sorted(c) for c in nx.connected_components(graph)]
    components.sort(key=lambda c: c[0])
    return [[variables[i] for i in comp] for comp in components]


def _cluster_rows(
    data: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """K-means row clustering with a deterministic seed."""
    from scipy.cluster.vq import kmeans2

    k = min(n_clusters, len(data))
    if k < 2:
        return np.zeros(len(data), dtype=np.int64)
    jitter = rng.normal(scale=1e-6, size=data.shape)
    _, labels = kmeans2(
        (data + jitter).astype(np.float64),
        k,
        minit="++",
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return labels


def _learn(
    data: np.ndarray,
    variables: List[int],
    config: LearnSPNConfig,
    rng: np.random.Generator,
    depth: int,
    try_split: bool,
) -> Node:
    if len(variables) == 1:
        return fit_histogram(
            data[:, 0],
            variables[0],
            max_bins=config.max_bins,
            smoothing=config.smoothing,
        )
    if len(data) < config.min_rows or depth >= config.max_depth:
        return ProductNode(
            [
                fit_histogram(
                    data[:, i],
                    variable,
                    max_bins=config.max_bins,
                    smoothing=config.smoothing,
                )
                for i, variable in enumerate(variables)
            ]
        )
    if try_split:
        components = _independent_components(
            data, variables, config.independence_alpha
        )
        if len(components) > 1:
            children = []
            index_of = {v: i for i, v in enumerate(variables)}
            for component in components:
                cols = [index_of[v] for v in component]
                children.append(
                    _learn(
                        data[:, cols],
                        list(component),
                        config,
                        rng,
                        depth + 1,
                        try_split=False,
                    )
                )
            return ProductNode(children)
    labels = _cluster_rows(data, config.n_clusters, rng)
    children = []
    weights = []
    for label in np.unique(labels):
        rows = labels == label
        if rows.sum() == 0:
            continue
        children.append(
            _learn(
                data[rows],
                variables,
                config,
                rng,
                depth + 1,
                try_split=True,
            )
        )
        weights.append(float(rows.sum()))
    if len(children) == 1:
        # Clustering failed to separate rows; factorise to terminate.
        return ProductNode(
            [
                fit_histogram(
                    data[:, i],
                    variable,
                    max_bins=config.max_bins,
                    smoothing=config.smoothing,
                )
                for i, variable in enumerate(variables)
            ]
        )
    return SumNode(children, weights)


def learn_spn(
    data: np.ndarray,
    *,
    config: Optional[LearnSPNConfig] = None,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    name: str = "learned-spn",
) -> SPN:
    """Learn a Mixed-SPN structure and parameters from *data*.

    Parameters
    ----------
    data:
        ``(rows, n_variables)`` array; integer-valued columns (e.g. word
        counts) get unit-width histogram bins.
    config:
        Recursion hyper-parameters; defaults to :class:`LearnSPNConfig`.
    seed / rng:
        Reproducibility controls; *rng* wins when both are given.

    Returns
    -------
    A validated :class:`~repro.spn.graph.SPN` over the full scope
    ``0..n_variables-1``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
        raise SPNStructureError("learn_spn needs a non-empty 2-D (rows, vars) array")
    if config is None:
        config = LearnSPNConfig()
    if rng is None:
        rng = np.random.default_rng(seed)
    root = _learn(
        data,
        list(range(data.shape[1])),
        config,
        rng,
        depth=0,
        try_split=True,
    )
    return SPN(root, name=name)
