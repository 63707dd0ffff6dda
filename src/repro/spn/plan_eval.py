"""Tensorized plan evaluation: fused kernels over compiled plans.

Executes an :class:`~repro.spn.plan.InferencePlan` on a whole batch
with a handful of fused numpy kernels instead of one Python iteration
per node.  The value matrix is ``(n_nodes, batch)`` — nodes on rows —
so every stage reads and writes contiguous slabs.  Each plan is first
*lowered* once per storage dtype (:func:`_lower`), the way
:mod:`repro.compiler.cgen` lowers it for C:

* every histogram leaf, unit-bin or irregular, joins the *group* of its
  variable: one ``(k_v, W_v + 1)`` table with a row per leaf, a column
  per row code and an all-zero column (log 1) that a marginalised
  variable or a missing entry selects.  The leaf stage is one integer
  code per (variable, sample) — the ``floor``/``fmin``/``fmax`` clamp,
  or ``searchsorted`` over the union of the variable's breaks when it
  has an irregular-bin leaf — then one ``take`` per group into the
  group's rows: the FPGA's read-a-feature-once, look-it-up-in-every-
  histogram-BRAM datapath;
* Gaussian / categorical blocks are closed forms / LUT gathers over all
  their leaves; only other leaf families call ``leaf.log_density``;
* leaf rows are renumbered group by group and the layers' child rows
  remapped in child order, so product layers (``np.add.reduceat``) and
  sum layers (a segment-wise *stable* log-sum-exp) add the same values
  in the same order; tables and weights are cast to the dtype once.

The batch is processed in cache-sized column chunks
(:func:`plan_log_likelihood`): on memory-bandwidth-bound hosts the
chunked evaluation keeps every temporary L2/L3-resident, which is
worth more than any single fused kernel.

The ``dtype=`` parameter selects the value-matrix storage precision.
``float64`` (the default) is bit-for-bit the historical behaviour.
``float32`` halves the memory traffic of the chunked path — leaf
tables, leaf kernels and product segment-sums run in single precision
while the log-sum-exp still *accumulates* in float64
(``add.reduceat(..., dtype=float64)``), so the root log-likelihood
stays within ~1e-4 absolute of the double-precision result on the
NIPS-scale networks.  Float32 input batches are consumed without an
upcast copy.

Marginal queries and per-sample missing features (the semantics of
:func:`repro.spn.inference.marginal_log_likelihood` and
:func:`repro.spn.inference.log_likelihood_with_missing`) select a
group's zero column, and zero (log 1) the rows of other leaf blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SPNStructureError
from repro.spn.nodes import HistogramLeaf
from repro.spn.plan import (
    CategoricalLeafBlock,
    CsrLayer,
    GaussianLeafBlock,
    GenericLeafBlock,
    InferencePlan,
)

__all__ = [
    "evaluate_plan",
    "plan_log_likelihood",
    "plan_node_log_values",
    "plan_leaf_log_values",
    "DEFAULT_CHUNK_BYTES",
]

#: Target footprint of the per-chunk value matrix; chunks are sized so
#: the working set stays cache-resident on bandwidth-bound hosts.
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024


def _check_dtype(dtype) -> np.dtype:
    """Validate the value-matrix storage precision (float32/float64)."""
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise SPNStructureError(
            f"dtype must be float32 or float64, got {dtype}"
        )
    return dtype


def _as_batch(
    data: np.ndarray, n_columns: int, dtype: np.dtype = np.float64
) -> np.ndarray:
    """Coerce *data* to a validated ``(batch, >= n_columns)`` float matrix."""
    data = np.asarray(data, dtype=dtype)
    if data.ndim == 1:
        data = data[np.newaxis, :]
    if data.ndim != 2:
        raise SPNStructureError(f"data must be 2-D (batch, vars), got ndim={data.ndim}")
    if data.shape[1] < n_columns:
        raise SPNStructureError(
            f"data has {data.shape[1]} columns but the SPN scope needs {n_columns}"
        )
    return data


def _check_marginalized(
    plan: InferencePlan, marginalized: Optional[Sequence[int]]
) -> Optional[np.ndarray]:
    """Validate a marginal-query subset against the plan's scope."""
    if marginalized is None:
        return None
    marg = frozenset(marginalized)
    unknown = marg - plan.scope
    if unknown:
        raise SPNStructureError(
            f"marginalized variables {sorted(unknown)} not in scope"
        )
    return np.fromiter(marg, dtype=np.int64, count=len(marg))


@dataclass(frozen=True)
class _Lowering:
    """A plan lowered for one storage dtype (see :func:`_lower`)."""

    rows: np.ndarray  # lowered value-matrix row of each plan row
    code_lo: np.ndarray  # per data column: floor/clamp bounds of the code
    code_hi: np.ndarray
    zero: np.ndarray  # per data column: its group's all-zero column
    searched: Tuple[Tuple[int, np.ndarray], ...]  # (variable, union breaks)
    groups: Tuple[Tuple[int, int, np.ndarray], ...]  # (variable, row, table)
    blocks: tuple  # the other leaf blocks, renumbered and cast
    layers: Tuple[CsrLayer, ...]  # child rows remapped, weights cast


def _lower(plan: InferencePlan, dtype: np.dtype) -> _Lowering:
    """Lower *plan* into per-variable histogram groups (module docstring).

    A unit-bin-only variable's table is its composite slab, transposed.
    A variable with an irregular-bin leaf is coded by ``searchsorted``
    over the union of its leaves' breaks (unit-bin breaks included);
    table column *c* holds each leaf's value at the first point of cell
    *c* — constant over the cell, as every leaf's breaks are in the
    union, and NaN lands in the last cell, on the floor, as it does in
    ``log_density``.
    """
    hist, generic = plan.histogram_block, plan.generic_block
    # variable -> [(plan row, composite-table column or irregular leaf)]
    members: Dict[int, List[Tuple[int, object]]] = {}
    for i, var in enumerate(hist.variables if hist is not None else ()):
        members.setdefault(int(var), []).append((hist.row_start + i, int(hist.columns[i])))
    foreign = []
    for i, leaf in enumerate(generic.leaves if generic is not None else ()):
        if isinstance(leaf, HistogramLeaf):
            members.setdefault(leaf.variable, []).append((generic.row_start + i, leaf))
        else:
            foreign.append(generic.row_start + i)
    n_cols = plan.n_data_columns
    code_lo, code_hi = (hist.code_lo, hist.code_hi) if hist is not None else (np.zeros(n_cols),) * 2
    zero = np.zeros(n_cols, dtype=np.intp)
    order, searched, groups = [], [], []
    for var in sorted(members):
        lo, hi = code_lo[var], code_hi[var]
        irregular = [m for _, m in members[var] if isinstance(m, HistogramLeaf)]
        breaks = np.unique(np.concatenate(
            [np.arange(lo + 1.0, hi + 1.0), *(leaf.breaks for leaf in irregular)]))
        points = np.concatenate(([-np.inf], breaks))
        if hist is not None and hist.code_scale[var]:
            k, base = int(hist.code_scale[var]), int(hist.code_base[var])
            slab = hist.table[base: base + int(hi - lo + 1) * k].reshape(-1, k).T
            slab = slab[:, (np.clip(np.floor(points), lo, hi) - lo).astype(np.intp)]
        table = np.zeros((len(members[var]), len(points) + 1), dtype=dtype)
        for j, (_, m) in enumerate(members[var]):
            table[j, :-1] = m.log_density(points) if isinstance(m, HistogramLeaf) else slab[m]
        if irregular:
            searched.append((var, breaks))
        groups.append((var, len(order), table))
        zero[var] = len(points)
        order += [row for row, _ in members[var]]
    blocks = []
    for block in (plan.gaussian_block, plan.categorical_block):
        if block is not None:
            params = {name: getattr(block, name).astype(dtype) for name in (
                ("means", "stdevs", "log_norm") if isinstance(block, GaussianLeafBlock)
                else ("table", "log_floor"))}
            blocks.append(replace(block, row_start=len(order), **params))
            order += range(block.row_start, block.row_start + len(block))
    if foreign:
        blocks.append(GenericLeafBlock(
            row_start=len(order), variables=plan.leaf_variables[foreign],
            leaves=tuple(generic.leaves[r - generic.row_start] for r in foreign)))
        order += foreign
    rows = np.arange(plan.n_nodes)
    rows[order] = np.arange(len(order))
    layers = []
    for layer in plan.layers:
        child_rows = rows[layer.child_rows]
        first = child_rows[0]
        layers.append(replace(
            layer, child_rows=child_rows,
            contiguous=bool(np.array_equal(child_rows, np.arange(first, first + len(child_rows)))),
            log_weights=None if layer.log_weights is None else layer.log_weights.astype(dtype)))
    return _Lowering(rows, code_lo, code_hi, zero, tuple(searched), tuple(groups),
                     tuple(blocks), tuple(layers))


def _lowering(plan: InferencePlan, dtype: np.dtype) -> _Lowering:
    """:func:`_lower` of *plan* for *dtype*, kept on the plan (the way
    ``functools.cached_property`` keeps a value), so it lives and dies
    with the plan."""
    lowered = vars(plan).setdefault("_lowered", {})
    if dtype not in lowered:
        lowered[dtype] = _lower(plan, dtype)
    return lowered[dtype]


def _apply_leaf_masks(
    log_values: np.ndarray,
    data_t: np.ndarray,
    variables: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """Zero (log 1) marginalised rows and missing entries in place."""
    if marginalized is not None and len(marginalized):
        log_values[np.isin(variables, marginalized)] = 0.0
    if missing_value is not None:
        log_values[data_t[variables] == missing_value] = 0.0


def _eval_gaussian_block(
    block: GaussianLeafBlock,
    data_t: np.ndarray,
    out: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """Fused Gaussian log-density over all leaves of the block at once."""
    z = (data_t[block.variables] - block.means[:, np.newaxis]) / block.stdevs[:, np.newaxis]
    log_values = -0.5 * z * z + block.log_norm[:, np.newaxis]
    _apply_leaf_masks(log_values, data_t, block.variables, marginalized, missing_value)
    out[block.row_start: block.row_start + len(block)] = log_values


def _eval_categorical_block(
    block: CategoricalLeafBlock,
    data_t: np.ndarray,
    out: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """Fused categorical lookup with the integer-valued input check."""
    values = data_t[block.variables]
    category = np.rint(values)
    inside = (
        (category >= 0.0)
        & (category < block.n_categories[:, np.newaxis])
        & np.isclose(values, category)
    )
    index = np.where(inside, category, 0.0).astype(np.int64)
    index += block.table_offsets[:, np.newaxis]
    log_values = np.where(inside, block.table[index], block.log_floor[:, np.newaxis])
    _apply_leaf_masks(log_values, data_t, block.variables, marginalized, missing_value)
    out[block.row_start: block.row_start + len(block)] = log_values


def _eval_generic_block(
    block: GenericLeafBlock,
    data_t: np.ndarray,
    out: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """Per-leaf path for non-histogram families without a fused kernel."""
    log_values = np.empty((len(block), data_t.shape[1]))
    for i, leaf in enumerate(block.leaves):
        log_values[i] = leaf.log_density(data_t[leaf.variable])
    _apply_leaf_masks(log_values, data_t, block.variables, marginalized, missing_value)
    out[block.row_start: block.row_start + len(block)] = log_values


_LEAF_KERNELS = {
    GaussianLeafBlock: _eval_gaussian_block,
    CategoricalLeafBlock: _eval_categorical_block,
    GenericLeafBlock: _eval_generic_block,
}


def _eval_leaves(
    lowered: _Lowering,
    data_t: np.ndarray,
    out: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """The leaf stage: one row code per (variable, sample), one take per
    histogram group, then the other leaf blocks.

    ``fmin``/``fmax`` (not ``clip``) implement the domain clamp so NaN
    inputs land on the top cell instead of poisoning the index cast.
    """
    codes = np.floor(data_t)
    np.fmin(codes, lowered.code_hi[:, np.newaxis], out=codes)
    np.fmax(codes, lowered.code_lo[:, np.newaxis], out=codes)
    index = np.empty(codes.shape, dtype=np.intp)
    np.subtract(codes, lowered.code_lo[:, np.newaxis], out=index, casting="unsafe")
    for var, breaks in lowered.searched:
        index[var] = np.searchsorted(breaks, data_t[var], side="right")
    if marginalized is not None and len(marginalized):
        index[marginalized] = lowered.zero[marginalized, np.newaxis]
    if missing_value is not None:
        np.copyto(index, lowered.zero[:, np.newaxis], where=data_t == missing_value)
    for var, row, table in lowered.groups:
        # mode="clip" skips the bounds check (codes are in range by
        # construction) and selects numpy's fast gather path; the
        # method skips np.take's dispatch wrapper (~1 us a call).
        table.take(index[var], axis=1, out=out[row: row + len(table)], mode="clip")
    for block in lowered.blocks:
        _LEAF_KERNELS[type(block)](block, data_t, out, marginalized, missing_value)


def _layer_children(layer: CsrLayer, values: np.ndarray) -> np.ndarray:
    """Child log-values of a layer: a slice when contiguous, else a gather."""
    if layer.contiguous:
        first = int(layer.child_rows[0])
        return values[first: first + len(layer.child_rows)]
    return values[layer.child_rows]


def _eval_product_layer(layer: CsrLayer, values: np.ndarray) -> None:
    """Segment sum of child log-values (one reduceat call)."""
    gathered = _layer_children(layer, values)
    np.add.reduceat(
        gathered,
        layer.indptr[:-1],
        axis=0,
        out=values[layer.row_start: layer.row_start + layer.n_nodes],
    )


def _eval_sum_layer(layer: CsrLayer, values: np.ndarray) -> None:
    """Segment-wise stable log-sum-exp of weighted child log-values.

    A segment whose children are all ``-inf`` yields ``-inf`` (the
    peak is substituted with 0 before the shift so no NaN appears).

    The shift and ``exp`` run in the storage dtype, the segment sum
    always *accumulates* in float64 (``add.reduceat(..., dtype=
    float64)``): on a float32 value matrix the storage halves the memory
    traffic while the accumulation keeps the mixture sum from losing
    small-weight children.
    """
    starts = layer.indptr[:-1]
    shifted = _layer_children(layer, values) + layer.log_weights[:, np.newaxis]
    peak = np.maximum.reduceat(shifted, starts, axis=0)
    safe_peak = np.where(np.isneginf(peak), 0.0, peak)
    scaled = np.exp(shifted - np.repeat(safe_peak, layer.counts, axis=0))
    with np.errstate(divide="ignore"):
        total = np.add.reduceat(scaled, starts, axis=0, dtype=np.float64)
        values[layer.row_start: layer.row_start + layer.n_nodes] = peak + np.log(
            total
        )


def _evaluate_into(
    lowered: _Lowering,
    data_t: np.ndarray,
    values: np.ndarray,
    marginalized: Optional[np.ndarray],
    missing_value: Optional[float],
) -> None:
    """Fill a preallocated ``(n_nodes, m)`` buffer for one data chunk."""
    _eval_leaves(lowered, data_t, values, marginalized, missing_value)
    for layer in lowered.layers:
        if layer.kind == "product":
            _eval_product_layer(layer, values)
        else:
            _eval_sum_layer(layer, values)


def _chunk_size(plan: InferencePlan, batch: int, itemsize: int = 8) -> int:
    """Batch chunk keeping the value matrix near DEFAULT_CHUNK_BYTES.

    Float32 storage (``itemsize=4``) doubles the rows per chunk for
    the same cache footprint — half the chunks, half the traffic.
    """
    rows = max(plan.n_nodes, 1)
    chunk = DEFAULT_CHUNK_BYTES // (itemsize * rows)
    return int(max(256, min(batch, chunk)))


def evaluate_plan(
    plan: InferencePlan,
    data: np.ndarray,
    *,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Run the full layered evaluation of *plan* on a batch.

    Parameters
    ----------
    plan:
        A compiled plan from :func:`repro.spn.plan.get_plan`.
    data:
        ``(batch, n_variables)`` array; ``data[:, v]`` is variable *v*.
    marginalized:
        Variable indices to integrate out for the whole batch (their
        leaves contribute log 1).
    missing_value:
        When given, entries equal to it are marginalised *per sample*
        (elementwise mask, different rows may miss different features).
    dtype:
        Value-matrix storage precision, ``float64`` (default,
        bit-identical to the historical behaviour) or ``float32``
        (half the memory traffic, ~1e-4 absolute log-likelihood
        error; see the module docstring).

    Returns
    -------
    ``(n_nodes, batch)`` matrix of log-values; row *i* belongs to the
    node at plan position *i* (``plan.node_ids[i]``).
    """
    dtype = _check_dtype(dtype)
    data = _as_batch(data, plan.n_data_columns, dtype)
    marg = _check_marginalized(plan, marginalized)
    lowered = _lowering(plan, dtype)
    batch = data.shape[0]
    values = np.empty((plan.n_nodes, batch), dtype=dtype)
    chunk = _chunk_size(plan, batch, dtype.itemsize)
    for start in range(0, batch, chunk):
        stop = min(start + chunk, batch)
        data_t = np.ascontiguousarray(data[start:stop, : plan.n_data_columns].T)
        _evaluate_into(lowered, data_t, values[:, start:stop], marg, missing_value)
    values[: plan.n_leaves] = values[lowered.rows[: plan.n_leaves]]
    return values


def plan_log_likelihood(
    plan: InferencePlan,
    data: np.ndarray,
    *,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
    dtype=np.float64,
) -> np.ndarray:
    """Root-only evaluation with a reused cache-sized chunk buffer.

    This is the hot path behind :func:`repro.spn.inference.log_likelihood`:
    the ``(n_nodes, chunk)`` work buffer is recycled across chunks so
    the whole evaluation runs cache-resident, and only the root row is
    written out per chunk.  The returned log-likelihood vector is
    always float64; *dtype* selects the internal storage precision
    (see :func:`evaluate_plan`).
    """
    dtype = _check_dtype(dtype)
    data = _as_batch(data, plan.n_data_columns, dtype)
    marg = _check_marginalized(plan, marginalized)
    lowered = _lowering(plan, dtype)
    root = lowered.rows[plan.root_row]
    batch = data.shape[0]
    out = np.empty(batch)
    chunk = _chunk_size(plan, batch, dtype.itemsize)
    values = np.empty(
        (plan.n_nodes, min(chunk, batch) if batch else chunk), dtype=dtype
    )
    for start in range(0, batch, chunk):
        stop = min(start + chunk, batch)
        data_t = np.ascontiguousarray(data[start:stop, : plan.n_data_columns].T)
        buffer = values[:, : stop - start]
        _evaluate_into(lowered, data_t, buffer, marg, missing_value)
        out[start:stop] = buffer[root]
    return out


def plan_leaf_log_values(
    plan: InferencePlan,
    data: np.ndarray,
    *,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
) -> dict:
    """Leaf-stage-only evaluation: ``{leaf node_id: (batch,) array}``.

    Runs just the fused leaf kernels — no interior layers — so callers
    that fold the arithmetic tree themselves (the emulated-format
    datapath in :mod:`repro.arith.spn_eval`) can still vectorise the
    leaf-probability stage.  Histogram, categorical and generic leaves
    produce bitwise-identical values to ``leaf.log_density``.
    """
    data = _as_batch(data, plan.n_data_columns)
    marg = _check_marginalized(plan, marginalized)
    lowered = _lowering(plan, np.dtype(np.float64))
    data_t = np.ascontiguousarray(data[:, : plan.n_data_columns].T)
    values = np.empty((plan.n_leaves, data.shape[0]))
    _eval_leaves(lowered, data_t, values, marg, missing_value)
    return {
        int(plan.node_ids[i]): values[lowered.rows[i]] for i in range(plan.n_leaves)
    }


def plan_node_log_values(
    plan: InferencePlan,
    data: np.ndarray,
    *,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
) -> dict:
    """Per-node log-values as ``{node_id: (batch,) array}``.

    Scatters the plan's value matrix back into the dict-of-arrays
    contract of :func:`repro.spn.inference.node_log_values`.
    """
    matrix = evaluate_plan(
        plan, data, marginalized=marginalized, missing_value=missing_value
    )
    return {
        int(node_id): matrix[i].copy() for i, node_id in enumerate(plan.node_ids)
    }
