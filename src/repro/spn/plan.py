"""Compiled inference plans: flatten an SPN into layered CSR buffers.

The per-node graph walk in :mod:`repro.spn.inference` evaluates one
tiny numpy op per node — ~600 Python iterations and dict lookups per
batch on NIPS80.  The paper's whole premise is that SPN inference is a
*fixed dataflow* that can be compiled once and then streamed at memory
bandwidth; this module is the software form of that move (the same one
HBM spMV accelerators make): a one-time pass flattens the DAG into

* **leaf blocks** — grouped per leaf family.  Every histogram leaf
  joins its variable's *group* (the paper's Mixed-SPN case): the sorted
  union of the group's breaks cuts the real line into cells, and one
  table holds each leaf's log-density per cell (support clipping and
  probability floor folded in) plus an all-zero column for marginalised
  or missing entries.  The leaf stage is then one cell code per
  variable followed by one gather per group — the software image of the
  FPGA reading a feature once and looking it up in all its leaves' BRAM
  tables side by side.  Gaussian and categorical leaves fuse into
  closed-form / LUT blocks; any other family falls back to a per-leaf
  block.
* **topologically layered CSR buffers** — per layer, per node kind,
  ``(indptr, child_rows, log_weights)`` triples that the evaluators
  (:mod:`repro.spn.plan_eval`, :mod:`repro.compiler.cgen`) schedule
  for themselves.

The value matrix is laid out ``(n_nodes, batch)`` with leaves first
and each layer's nodes on contiguous rows, so every kernel writes a
contiguous slab; a layer's children are gathered from wherever they
sit (leaves are grouped by variable, so they rarely form one run).

Plans are cached per-SPN in a :class:`weakref.WeakKeyDictionary` keyed
by the graph object, with a content *fingerprint* (structure + all
parameters) checked on every lookup so a mutated network never reuses
a stale plan.  :func:`get_plan` is the only entry point the evaluator
needs.
"""

from __future__ import annotations

import hashlib
import struct
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import SPNStructureError
from repro.spn.graph import SPN
from repro.spn.nodes import (
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    LeafNode,
    Node,
    ProductNode,
    SumNode,
)

__all__ = [
    "HistogramGroup",
    "HistogramLeafBlock",
    "GaussianLeafBlock",
    "CategoricalLeafBlock",
    "GenericLeafBlock",
    "CsrLayer",
    "LogBounds",
    "InferencePlan",
    "PLAN_FORMAT_VERSION",
    "compile_plan",
    "plan_fingerprint",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
]

#: Version of the compiled-plan layout/semantics.  Folded into
#: :func:`plan_fingerprint`, so any derived cache — the in-process plan
#: cache and every on-disk artifact keyed by the fingerprint (e.g. the
#: native-kernel build cache) — is invalidated when the plan format
#: changes, instead of silently serving a stale layout.  Bump on any
#: change to row assignment, leaf-block encoding or layer structure.
#: v2: every histogram leaf in its variable's group, no composite codes.
PLAN_FORMAT_VERSION = 2

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Widest span a group's unit-bin leaves may fill with every integer;
#: beyond it the group keeps only its leaves' own breaks, so a single
#: outlier leaf cannot blow the table up.
MAX_COMPOSITE_DOMAIN = 4096


def _unit_breaks(breaks: np.ndarray) -> bool:
    """True when *breaks* are consecutive integers."""
    return bool(
        np.all(np.diff(breaks) == 1.0) and np.all(breaks == np.rint(breaks))
    )


@dataclass(frozen=True)
class HistogramGroup:
    """All histogram leaves of one variable, on the union of their breaks.

    Cell *c* of an input ``x`` is ``searchsorted(breaks, x, side="right")``:
    cell 0 is ``[-inf, breaks[0])``, cell *c* starts at ``breaks[c - 1]``.
    Every leaf's breaks are in the union, so each leaf is constant over
    a cell, and ``table[j, c]`` is leaf *j*'s log-density there.  The
    last column is all zero (log 1): the cell a marginalised variable or
    a missing entry selects.  NaN sorts last, onto the last real cell,
    which like cell 0 holds every leaf's ``log(floor)``.
    """

    #: Data column (variable index) all the group's leaves read.
    variable: int
    #: First value-matrix row of the group (one row per leaf).
    row_start: int
    #: Sorted union of the leaves' breaks (finite).
    breaks: np.ndarray
    #: ``(n_leaves, len(breaks) + 2)`` float64 log-densities per cell.
    table: np.ndarray

    def __len__(self) -> int:
        """Number of leaves in the group."""
        return len(self.table)

    @property
    def unit_bins(self) -> bool:
        """True when the breaks are consecutive integers: the cell is
        then ``clamp(floor(x), breaks[0] - 1, breaks[-1]) - breaks[0] + 1``
        (NaN clamped to the top), no search needed."""
        return _unit_breaks(self.breaks)


@dataclass(frozen=True)
class HistogramLeafBlock:
    """Every histogram leaf, in per-variable :class:`HistogramGroup` s.

    The block starts at row 0; groups follow the variable order and
    own contiguous rows, so the block's rows run group by group.
    """

    #: The groups, in row order (variables sorted).
    groups: Tuple[HistogramGroup, ...]

    def __len__(self) -> int:
        """Number of leaves in the block."""
        return sum(len(group) for group in self.groups)


@dataclass(frozen=True)
class GaussianLeafBlock:
    """Gaussian leaves, fused into one closed-form vector expression."""

    #: First value-matrix row of the block (rows are contiguous).
    row_start: int
    #: Data column (variable index) read by each leaf.
    variables: np.ndarray
    #: Mean per leaf.
    means: np.ndarray
    #: Standard deviation per leaf.
    stdevs: np.ndarray
    #: Precomputed ``-log(stdev) - 0.5*log(2*pi)`` per leaf.
    log_norm: np.ndarray

    def __len__(self) -> int:
        """Number of leaves in the block."""
        return len(self.variables)


@dataclass(frozen=True)
class CategoricalLeafBlock:
    """Categorical leaves, fused into one flat-table gather."""

    #: First value-matrix row of the block (rows are contiguous).
    row_start: int
    #: Data column (variable index) read by each leaf.
    variables: np.ndarray
    #: Category count per leaf.
    n_categories: np.ndarray
    #: Offset of each leaf's categories inside :attr:`table`.
    table_offsets: np.ndarray
    #: Concatenated per-category log-probabilities (floor applied).
    table: np.ndarray
    #: ``log(floor)`` fallback per leaf for out-of-range values.
    log_floor: np.ndarray

    def __len__(self) -> int:
        """Number of leaves in the block."""
        return len(self.variables)


@dataclass(frozen=True)
class GenericLeafBlock:
    """Fallback for leaf families without a fused kernel.

    Evaluated one leaf at a time through ``leaf.log_density`` — the
    same cost as the legacy walk, but only for the (typically few)
    leaves that do not fit a vectorised family.
    """

    #: First value-matrix row of the block (rows are contiguous).
    row_start: int
    #: Data column (variable index) read by each leaf.
    variables: np.ndarray
    #: The leaf node objects themselves, in block order.
    leaves: Tuple[LeafNode, ...]

    def __len__(self) -> int:
        """Number of leaves in the block."""
        return len(self.variables)


@dataclass(frozen=True)
class CsrLayer:
    """One topological layer of same-kind interior nodes in CSR form.

    Nodes in a layer depend only on strictly lower layers, so the whole
    layer evaluates at once: a sum of child log-values for products, a
    stable log-sum-exp of weighted child log-values for sums, each
    node's children combined in child order (the CSR order).
    """

    #: ``"product"`` or ``"sum"``.
    kind: str
    #: First value-matrix row this layer writes (rows are contiguous).
    row_start: int
    #: Number of nodes in the layer.
    n_nodes: int
    #: CSR row pointer, length ``n_nodes + 1``.
    indptr: np.ndarray
    #: Concatenated child value-matrix rows (CSR column indices).
    child_rows: np.ndarray
    #: Concatenated log mixture weights (sum layers only, else None).
    log_weights: Optional[np.ndarray] = None

    def __len__(self) -> int:
        """Number of nodes in the layer."""
        return self.n_nodes


class LogBounds(NamedTuple):
    """Static per-row range of a plan's log-values, for any input.

    Every *finite* log-value row *i* can take lies in ``[lo[i], hi[i]]``;
    ``-inf`` (an exact zero in the linear domain) is possible only
    where ``can_zero[i]``.  Every leaf can be log 1 (its marginalised /
    missing entry), so ``lo <= 0 <= hi`` on every row.
    """

    lo: np.ndarray
    hi: np.ndarray
    can_zero: np.ndarray


@dataclass(frozen=True)
class InferencePlan:
    """A compiled, immutable evaluation schedule for one SPN.

    The value matrix the evaluator fills is ``(n_nodes, batch)`` with
    row *i* holding the log-values of the node at plan position *i*
    (:attr:`node_ids` maps rows back to node ids for the
    ``node_log_values`` dict contract).  Leaves occupy rows
    ``[0, n_leaves)``; each interior layer gets a contiguous row run
    above its children.
    """

    #: Name of the source SPN (reports/debugging).
    name: str
    #: Total node count == value-matrix height.
    n_nodes: int
    #: Minimum data width (``max(scope) + 1``) the evaluator requires.
    n_data_columns: int
    #: Node id at each value-matrix row.
    node_ids: np.ndarray
    #: Value-matrix row of the root node.
    root_row: int
    #: The network scope, for marginal-query validation.
    scope: frozenset
    #: Number of leaves (rows ``[0, n_leaves)`` of the value matrix).
    n_leaves: int
    #: Variable index of every leaf, aligned with its row.
    leaf_variables: np.ndarray
    #: Every histogram leaf, grouped per variable (None when absent).
    histogram_block: Optional[HistogramLeafBlock]
    #: Fused Gaussian leaves (None when absent).
    gaussian_block: Optional[GaussianLeafBlock]
    #: Fused categorical leaves (None when absent).
    categorical_block: Optional[CategoricalLeafBlock]
    #: Per-leaf fallback block (None when absent).
    generic_block: Optional[GenericLeafBlock]
    #: Interior CSR layers in evaluation order.
    layers: Tuple[CsrLayer, ...] = field(default=())

    @property
    def n_layers(self) -> int:
        """Number of interior CSR layers."""
        return len(self.layers)

    @cached_property
    def log_bounds(self) -> LogBounds:
        """The static :class:`LogBounds` of every row (derived, cached).

        Leaves: a histogram leaf ranges over its table row (the zero
        column included), a categorical leaf over its table, floor and
        log 1; a Gaussian leaf is unbounded below and may be ``-inf``,
        a generic leaf is unbounded.  A product adds its children's
        bounds.  A sum's ``hi`` is its best weighted ``hi`` plus
        ``log n``; its ``lo`` is the best weighted ``lo`` over the
        children that are never zero, or the worst over all of them
        when every child can be zero.  Zero-weight children are exact
        zeros and drop out.
        """
        lo, hi = np.zeros(self.n_nodes), np.zeros(self.n_nodes)
        zero = np.zeros(self.n_nodes, dtype=bool)
        for group in self.histogram_block.groups if self.histogram_block else ():
            rows = slice(group.row_start, group.row_start + len(group))
            lo[rows], hi[rows], zero[rows] = _finite_range(group.table)
        if self.gaussian_block is not None:
            block = self.gaussian_block
            rows = slice(block.row_start, block.row_start + len(block))
            lo[rows], hi[rows] = -np.inf, np.maximum(block.log_norm, 0.0)
            zero[rows] = True
        if self.categorical_block is not None:
            block = self.categorical_block
            for i, offset in enumerate(block.table_offsets):
                values = np.concatenate((
                    block.table[offset: offset + int(block.n_categories[i])],
                    [block.log_floor[i], 0.0],
                ))
                row = block.row_start + i
                lo[row], hi[row], zero[row] = _finite_range(values)
        if self.generic_block is not None:
            block = self.generic_block
            rows = slice(block.row_start, block.row_start + len(block))
            lo[rows], hi[rows], zero[rows] = -np.inf, np.inf, True
        for layer in self.layers:
            rows = slice(layer.row_start, layer.row_start + layer.n_nodes)
            starts, children = layer.indptr[:-1], layer.child_rows
            if layer.kind == "product":
                lo[rows] = np.add.reduceat(lo[children], starts)
                hi[rows] = np.add.reduceat(hi[children], starts)
                zero[rows] = np.logical_or.reduceat(zero[children], starts)
                continue
            weights = layer.log_weights
            live = weights > -np.inf
            sure = live & ~zero[children]
            with np.errstate(invalid="ignore"):  # -inf weight + inf hi
                low, high = weights + lo[children], weights + hi[children]
            best = np.maximum.reduceat(np.where(sure, low, -np.inf), starts)
            worst = np.minimum.reduceat(np.where(live, low, np.inf), starts)
            any_sure = np.logical_or.reduceat(sure, starts)
            n_live = np.add.reduceat(live.astype(np.int64), starts)
            lo[rows] = np.where(any_sure, best, worst)
            hi[rows] = np.maximum.reduceat(
                np.where(live, high, -np.inf), starts
            ) + np.log(np.maximum(n_live, 1))
            zero[rows] = ~any_sure
        return LogBounds(lo, hi, zero)


def _int_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _f64_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _finite_range(values: np.ndarray):
    """``(min, max)`` of the finite entries along the last axis, and
    whether any entry is ``-inf``."""
    finite = np.isfinite(values)
    return (
        np.where(finite, values, np.inf).min(axis=-1),
        np.where(finite, values, -np.inf).max(axis=-1),
        np.isneginf(values).any(axis=-1),
    )


def _histogram_group(
    row_start: int, leaves: List[HistogramLeaf]
) -> HistogramGroup:
    """The group of one variable's *leaves*; unit-bin leaves fill their
    whole span."""
    breaks = [leaf.breaks for leaf in leaves]
    unit = [b for b in breaks if _unit_breaks(b)]
    if unit:
        lo, hi = min(b[0] for b in unit), max(b[-1] for b in unit)
        if hi - lo <= MAX_COMPOSITE_DOMAIN:
            breaks.append(np.arange(lo, hi + 1.0))
    # Not np.unique: it imports numpy.ma (~1 MiB) into every process.
    union = np.array(sorted(set(np.concatenate(breaks).tolist())))
    starts = np.concatenate(([-np.inf], union))  # first point of each cell
    table = np.zeros((len(leaves), len(union) + 2))
    for j, leaf in enumerate(leaves):
        table[j, :-1] = leaf.log_density(starts)
    return HistogramGroup(leaves[0].variable, row_start, union, table)


def compile_plan(spn: SPN) -> InferencePlan:
    """Flatten *spn* into an :class:`InferencePlan` (one-time pass).

    Leaves are grouped by family into fused blocks; interior nodes are
    assigned topological levels (``level = 1 + max(child levels)``) and
    emitted as per-level, per-kind CSR layers whose nodes are mutually
    independent by construction.
    """
    order = spn.nodes
    n_data_columns = (max(spn.scope) + 1) if spn.scope else 0

    level: Dict[int, int] = {}
    for node in order:
        if node.children:
            level[node.id] = 1 + max(level[c.id] for c in node.children)
        else:
            level[node.id] = 0

    hist: Dict[int, List[HistogramLeaf]] = {}
    gauss: List[GaussianLeaf] = []
    cat: List[CategoricalLeaf] = []
    generic: List[LeafNode] = []
    interior: Dict[Tuple[int, str], List[Node]] = {}
    for node in order:
        if isinstance(node, HistogramLeaf):
            hist.setdefault(node.variable, []).append(node)
        elif isinstance(node, GaussianLeaf):
            gauss.append(node)
        elif isinstance(node, CategoricalLeaf):
            cat.append(node)
        elif isinstance(node, LeafNode):
            generic.append(node)
        elif isinstance(node, (ProductNode, SumNode)):
            key = (level[node.id], node.kind)
            interior.setdefault(key, []).append(node)
        else:  # pragma: no cover - graph validation rules this out
            raise SPNStructureError(f"unknown node type {type(node).__name__}")

    # Row assignment: histogram groups (variables sorted), then the
    # other leaf families, each in DFS order (which keeps a tree
    # product's children adjacent), then the interior layers bottom-up.
    groups = [hist[var] for var in sorted(hist)]
    row: Dict[int, int] = {}
    ordered_leaves: List[LeafNode] = []
    next_row = 0
    for family in (*groups, gauss, cat, generic):
        for leaf in family:
            row[leaf.id] = next_row
            ordered_leaves.append(leaf)
            next_row += 1

    histogram_block = None
    if hist:
        histogram_block = HistogramLeafBlock(
            groups=tuple(
                _histogram_group(row[leaves[0].id], leaves)
                for leaves in groups
            ),
        )

    gaussian_block = None
    if gauss:
        stdevs = _f64_array([n.stdev for n in gauss])
        gaussian_block = GaussianLeafBlock(
            row_start=row[gauss[0].id],
            variables=_int_array([n.variable for n in gauss]),
            means=_f64_array([n.mean for n in gauss]),
            stdevs=stdevs,
            log_norm=-np.log(stdevs) - 0.5 * _LOG_2PI,
        )

    categorical_block = None
    if cat:
        tables = [np.log(np.maximum(n.probabilities, n.floor)) for n in cat]
        sizes = _int_array([len(t) for t in tables])
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        categorical_block = CategoricalLeafBlock(
            row_start=row[cat[0].id],
            variables=_int_array([n.variable for n in cat]),
            n_categories=_f64_array([n.n_categories for n in cat]),
            table_offsets=offsets,
            table=np.concatenate(tables),
            log_floor=np.log(_f64_array([n.floor for n in cat])),
        )

    generic_block = None
    if generic:
        generic_block = GenericLeafBlock(
            row_start=row[generic[0].id],
            variables=_int_array([n.variable for n in generic]),
            leaves=tuple(generic),
        )

    layers: List[CsrLayer] = []
    interior_nodes: List[Node] = []
    for lvl, kind in sorted(interior):
        nodes = interior[(lvl, kind)]
        start = next_row
        for node in nodes:
            row[node.id] = next_row
            next_row += 1
        counts = _int_array([len(n.children) for n in nodes])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        child_rows = _int_array([row[c.id] for n in nodes for c in n.children])
        log_weights = None
        if kind == "sum":
            log_weights = np.concatenate([n.log_weights for n in nodes])
        layers.append(
            CsrLayer(
                kind=kind,
                row_start=start,
                n_nodes=len(nodes),
                indptr=indptr,
                child_rows=child_rows,
                log_weights=log_weights,
            )
        )
        interior_nodes.extend(nodes)

    all_nodes = ordered_leaves + interior_nodes
    return InferencePlan(
        name=spn.name,
        n_nodes=len(order),
        n_data_columns=n_data_columns,
        node_ids=_int_array([n.id for n in all_nodes]),
        root_row=row[spn.root.id],
        scope=frozenset(spn.scope),
        n_leaves=len(ordered_leaves),
        leaf_variables=_int_array([n.variable for n in ordered_leaves]),
        histogram_block=histogram_block,
        gaussian_block=gaussian_block,
        categorical_block=categorical_block,
        generic_block=generic_block,
        layers=tuple(layers),
    )


def _hash_value(h, value) -> None:
    """Feed one node attribute into the fingerprint hash."""
    if isinstance(value, np.ndarray):
        h.update(b"a")
        h.update(value.tobytes())
    elif isinstance(value, float):
        h.update(struct.pack("<d", value))
    elif isinstance(value, int):
        h.update(struct.pack("<q", value))
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        h.update(repr(value).encode())


def plan_fingerprint(spn: SPN) -> str:
    """Content hash of *spn*: structure, identities, and all parameters.

    Two calls agree iff no node attribute (weights, tables, children)
    changed in between; the plan cache uses this to detect in-place
    mutation and recompile instead of serving a stale plan.  The hash
    also covers :data:`PLAN_FORMAT_VERSION`, so fingerprints from an
    older plan-format revision never match the current one.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", PLAN_FORMAT_VERSION))
    for node in spn.nodes:
        h.update(type(node).__name__.encode())
        h.update(struct.pack("<q", node.id))
        for child in node.children:
            h.update(struct.pack("<q", child.id))
        for attr in sorted(vars(node)):
            if attr in ("children", "id"):
                continue
            h.update(attr.encode())
            _hash_value(h, vars(node)[attr])
    return h.hexdigest()


#: Per-SPN plan cache; entries die with their SPN (weak keys).
_PLAN_CACHE: "weakref.WeakKeyDictionary[SPN, Tuple[str, InferencePlan]]" = (
    weakref.WeakKeyDictionary()
)
_CACHE_STATS = {"hits": 0, "misses": 0}


def get_plan(spn: SPN) -> InferencePlan:
    """The cached plan for *spn*, recompiling if absent or stale.

    The fingerprint comparison makes mutation-safety unconditional: an
    SPN whose weights or tables were edited in place gets a fresh plan
    on the next call, never the stale one.
    """
    fingerprint = plan_fingerprint(spn)
    entry = _PLAN_CACHE.get(spn)
    if entry is not None and entry[0] == fingerprint:
        _CACHE_STATS["hits"] += 1
        return entry[1]
    _CACHE_STATS["misses"] += 1
    plan = compile_plan(spn)
    _PLAN_CACHE[spn] = (fingerprint, plan)
    return plan


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss counters."""
    _PLAN_CACHE.clear()
    _CACHE_STATS["hits"] = 0
    _CACHE_STATS["misses"] = 0


def plan_cache_info() -> Dict[str, int]:
    """Cache observability: current size plus hit/miss counters."""
    return {
        "size": len(_PLAN_CACHE),
        "hits": _CACHE_STATS["hits"],
        "misses": _CACHE_STATS["misses"],
    }
