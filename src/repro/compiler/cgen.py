"""Per-plan C code generation for the native inference backend.

The numpy plan evaluator (:mod:`repro.spn.plan_eval`) still pays one
Python-dispatched numpy kernel per layer per chunk.  This module walks
an :class:`~repro.spn.plan.InferencePlan` the same way the netlist
interpreter does and emits one *specialized C translation unit* for
it: the whole bottom-up pass becomes a single C function over a
cache-resident row block, with every structural constant (child rows,
mixture weights, leaf tables) baked in as a compile-time constant so
the C compiler can unroll and vectorize.

The datapath follows the paper's accelerator core, where histogram
leaves are BRAM lookup tables feeding the adder tree with no memory in
between: a histogram leaf is *never materialised*.  Per row block the
kernel fills one ``int32`` cell-code tile per histogram group
(:class:`~repro.spn.plan.HistogramGroup`, one per variable), and every
product or sum node reads a histogram child as ``T_HIST[c_v[r] + j]``
inline, in the plan's child order — the same adds in the same order as
the numpy kernels.  The value slab holds only Gaussian and categorical
leaves and interior nodes.

Kernel semantics mirror :func:`repro.spn.plan_eval.plan_log_likelihood`
(the same values, up to rounding):

* a group whose breaks are consecutive integers codes its cells with
  ``floor`` and the clamps ``(x < hi) ? x : hi`` / ``(x > lo) ? x : lo``
  — ``fmin``/``fmax`` for every input including NaN (which lands on the
  top cell), but plain selects the compiler vectorizes instead of
  scalar libm calls.  Any other group resolves ``searchsorted(side=
  "right")`` over its breaks through a uniform grid, a start-index
  table and *K* compares (*K* <= 2 on every NIPS network).  A
  marginalised variable, a missing entry and a pad row all select the
  group's all-zero cell, so node loops carry no ``marg`` /
  ``has_missing`` branch;
* a generic leaf block evaluates through arbitrary Python callables
  and cannot be compiled; generation then raises
  :class:`~repro.errors.NativeBackendError` and the caller falls back
  to the numpy plan backend;
* Gaussian leaves use the closed form, categorical leaves the LUT
  gather with numpy's ``isclose`` integrality test;
* like the paper's datapath, which has no ``exp`` or ``log``, a node
  whose static bound fits the storage dtype runs in the linear domain
  (:func:`linear_rows`): it gathers ``T_LIN = exp(T_HIST)``, a product
  multiplies, a sum adds ``w_j * x_j``, in child order.  Above the cut
  a product adds and a sum is a stable max-shift log-sum-exp; a cut
  edge (log-domain node reading a linear one) or a linear root takes
  one ``log``.  Sums accumulate in ``double`` — on float32 storage the
  paper-motivated "float64 accumulation over float32 storage" split.

Every node loop runs over the block's rows rounded up to whole 16-row
tiles (pad rows read log 1), so a row goes through the same vector
``exp``/``log`` routine wherever it sits in a batch: results are
position-invariant as well as thread-count-invariant.

Numeric literals are emitted as C99 hex floats, so every constant
round-trips bit-exactly from the plan's float64 (or float32-cast)
parameters into the compiled kernel.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.errors import NativeBackendError
from repro.spn.plan import CsrLayer, InferencePlan

__all__ = [
    "CODEGEN_VERSION",
    "KERNEL_SYMBOL",
    "MAX_KERNEL_THREADS",
    "BLOCK_ROWS",
    "generate_kernel_source",
    "linear_range",
    "linear_rows",
]

#: Version of the generated-kernel ABI/semantics.  Bump on ANY change
#: to the emitted code or the call signature: the version is part of
#: the on-disk artifact key, so old cached kernels are invalidated
#: instead of silently reused.
#: v2: thread-parallel block driver (n_threads/thread_stamps params).
#: v3: histogram leaves gathered inline from per-variable code tiles,
#: grid lookup for irregular bins, padded row loops.
#: v4: one pthread driver, no build-time choice of thread runtime.
#: v5: every histogram leaf gathered inline from its variable's group;
#: irregular bins coded by a grid over the group's breaks.
#: v6: nodes below the static underflow cut run in the linear domain.
CODEGEN_VERSION = 6

#: Exported entry-point symbol of every generated kernel.
KERNEL_SYMBOL = "repro_plan_eval"

#: Hard cap on kernel threads, baked into the generated driver (the
#: per-chunk descriptor array is a stack allocation of this size).
MAX_KERNEL_THREADS = 256

#: Rows per block: the unit of the thread partition and the width of
#: the value slab and code tiles, sized so both stay L1/L2-resident
#: (NIPS80: 47 slab rows + 80 tiles = 174 KiB).  128-1024 measure the
#: same; it is a constant, not an option.
BLOCK_ROWS = 256

#: Node loops walk whole tiles of this many rows (16 x int32/float32
#: fill 512 bits): a constant trip count, so the compiler emits no
#: vector remainder.  Divides :data:`BLOCK_ROWS`.
_ROW_PAD = 16

#: Nats kept between a linear row's bound and the storage dtype's normal
#: range (-708.4 / +709.8 in float64, -87.3 / +88.7 in float32): room for
#: the bound's and float32 tables' few-ULP rounding.
_LINEAR_MARGIN = 8.0

#: Terms per emitted add statement; wider product nodes continue with
#: ``acc = acc + ...`` statements, which keeps the add order.
_TERMS_PER_STATEMENT = 24


def _c_double(value: float) -> str:
    """A C99 ``double`` literal reproducing *value* bit-exactly."""
    value = float(value)
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INFINITY" if value > 0 else "(-INFINITY)"
    return float.hex(value)


def _c_real(value: float, dtype: np.dtype) -> str:
    """A ``real_t`` literal: float32 storage casts then suffixes ``f``."""
    if dtype == np.dtype(np.float32):
        value = float(np.float32(value))
        return _c_double(value) + ("f" if math.isfinite(value) else "")
    return _c_double(value)


def _const_array(ctype: str, name: str, items: List[str]) -> str:
    return (
        f"static const {ctype} {name}[{len(items)}] = "
        "{ " + ", ".join(items) + " };"
    )


def _const_real(name: str, values, dtype: np.dtype) -> str:
    return _const_array("real_t", name, [_c_real(v, dtype) for v in values])


def linear_range(dtype) -> Tuple[float, float]:
    """The log-values *dtype* holds in the linear domain: its normal
    range less :data:`_LINEAR_MARGIN` at both ends."""
    info = np.finfo(dtype)
    return math.log(info.tiny) + _LINEAR_MARGIN, math.log(info.max) - _LINEAR_MARGIN


def linear_rows(plan: InferencePlan, dtype=np.float64) -> np.ndarray:
    """Which rows the *dtype* kernel evaluates in the linear domain.

    A histogram leaf or interior row qualifies when its static bound
    (:attr:`~repro.spn.plan.InferencePlan.log_bounds`) lies inside
    *dtype*'s normal range less :data:`_LINEAR_MARGIN`, an interior row
    only if all its children qualify (Gaussian and categorical leaves
    never do).  Then, root first, a product no linear node reads (the
    output reads the root in the log domain) drops back to the log
    domain: linear, it would cost a ``log`` per reader, saving no ``exp``.
    """
    (floor, top), (lo, hi, _) = linear_range(dtype), plan.log_bounds
    linear = (lo >= floor) & (hi <= top)
    n_inline = len(plan.histogram_block) if plan.histogram_block else 0
    linear[n_inline: plan.n_leaves] = False
    for layer in plan.layers:
        for j, children in enumerate(_node_children(layer)):
            linear[layer.row_start + j] &= linear[children].all()
    read = np.zeros(plan.n_nodes, dtype=bool)  # by a linear node
    for layer in reversed(plan.layers):
        for j, children in enumerate(_node_children(layer)):
            row = layer.row_start + j
            linear[row] &= layer.kind == "sum" or read[row]
            read[children] |= linear[row]
    return linear


def _node_children(layer: CsrLayer) -> List[np.ndarray]:
    """Each node's child rows, in node order."""
    return np.split(layer.child_rows, layer.indptr[1:-1])


def _row_refs(plan: InferencePlan, n_inline: int,
              linear: np.ndarray) -> List[Tuple[str, str]]:
    """The ``(log-domain, linear)`` C expressions reading each plan row
    at block row ``r``.

    Rows ``[0, n_inline)`` are the histogram groups (they always start
    at row 0): gathered inline from ``T_HIST`` / ``T_LIN``, never
    stored.  Every other row lives in the value slab at ``row -
    n_inline`` in its own domain (a cut edge reads the ``log``).
    """
    groups = plan.histogram_block.groups if n_inline else ()
    refs = [
        (f"T_HIST[c{group.variable}[r] + {j}]",
         f"T_LIN[c{group.variable}[r] + {j}]")
        for group in groups
        for j in range(len(group))
    ]
    for row in range(n_inline, plan.n_nodes):
        slab = f"v[{row - n_inline}L * BLOCK + r]"
        refs.append((f"(real_t) log({slab})", slab) if linear[row]
                    else (slab, ""))
    return refs


def _emit_histogram(block, tables: List[str], lines: List[str]) -> np.ndarray:
    """Cell-code tiles for the histogram groups; returns ``T_HIST``.

    One ``int32`` tile per group, shared by all its leaves: the cell,
    times the group's leaf count, plus the group's offset into
    ``T_HIST`` (and ``T_LIN``), where the group's table is stored
    cell-major (its last row all zero, log 1 — the row a marginalised
    variable, a missing entry and a pad row select, so no reader of
    the tile needs a mask).
    """
    parts: List[np.ndarray] = []
    offset = 0
    for slot, group in enumerate(block.groups):
        var, breaks, k = group.variable, group.breaks, len(group)
        parts.append(group.table.T.ravel())
        zero = offset + (len(breaks) + 1) * k
        masked = f"(skip | (has_missing & (xr == miss))) ? {zero}"
        lines += [
            f"    int32_t* restrict c{var} = code + {slot}L * BLOCK;",
            f"    {{ /* row codes, variable {var} */",
            f"        const int skip = marg != 0 && marg[{var}];",
        ]
        if group.unit_bins:
            lo, hi = _c_double(breaks[0] - 1.0), _c_double(breaks[-1])
            lines += [
                "        for (long r = 0; r < rows; ++r) {",
                f"            const double xr = (double) d[r * n_cols + {var}];",
                "            double x = floor(xr);",
                f"            x = (x < {hi}) ? x : {hi};",
                f"            x = (x > {lo}) ? x : {lo};",
                f"            c{var}[r] = {masked}",
                f"                : (int32_t)((x - {lo}) * {_c_double(k)} + "
                f"{_c_double(offset)});",
                "        }",
            ]
        else:
            lines += _grid_codes(var, breaks, masked, k, offset, tables)
        lines += [
            f"        for (long r = rows; r < n16; ++r) c{var}[r] = {zero};",
            "    }",
        ]
        offset = zero + k
    return np.concatenate(parts)


def _emit_slab_leaf(label: str, slab: int, var: int, value: List[str],
                    lines: List[str]) -> None:
    """A stored leaf: *value* computes ``val`` from ``x`` (``xr`` in the
    storage type) per row, unless the variable is marginalised."""
    lines += [
        f"    {{ /* {label} leaf, slab row {slab}, variable {var} */",
        f"        real_t* restrict dst = v + {slab}L * BLOCK;",
        f"        if (marg != 0 && marg[{var}]) {{",
        "            for (long r = 0; r < rows; ++r) dst[r] = (real_t) 0;",
        "        } else {",
        "            for (long r = 0; r < rows; ++r) {",
        f"                const real_t xr = d[r * n_cols + {var}];",
        "                const double x = (double) xr;",
        *value,
        "                if (has_missing && x == miss) val = (real_t) 0;",
        "                dst[r] = val;",
        "            }",
        "        }",
        "        for (long r = rows; r < n16; ++r) dst[r] = (real_t) 0;",
        "    }",
    ]


def _emit_gaussian(block, slab: int, dtype: np.dtype,
                   lines: List[str]) -> None:
    """Leaf stage for the fused Gaussian block (closed form per leaf)."""
    for i in range(len(block)):
        mu = _c_real(block.means[i], dtype)
        sigma = _c_real(block.stdevs[i], dtype)
        log_norm = _c_real(block.log_norm[i], dtype)
        value = [
            f"                const real_t z = (xr - {mu}) / {sigma};",
            "                real_t val = (real_t) -0.5 * z * z + "
            f"{log_norm};",
        ]
        _emit_slab_leaf(
            "gaussian", slab + i, int(block.variables[i]), value, lines
        )


def _emit_categorical(block, slab: int, dtype: np.dtype,
                      lines: List[str]) -> None:
    """Leaf stage for the categorical LUT block.

    Mirrors the numpy kernel's integrality test: a value counts as a
    category iff ``|x - rint(x)| <= 1e-8 + 1e-5 * |rint(x)|`` (numpy's
    ``isclose`` defaults) and the category is in range.
    """
    for i in range(len(block)):
        n_cat = _c_double(block.n_categories[i])
        offset = int(block.table_offsets[i])
        log_floor = _c_real(block.log_floor[i], dtype)
        value = [
            "                const double cat = rint(x);",
            "                const int inside = (cat >= 0.0) & "
            f"(cat < {n_cat}) & "
            "(fabs(x - cat) <= 0x1.5798ee2308c3ap-27 + "
            "0x1.4f8b588e368f1p-17 * fabs(cat));",
            "                real_t val = inside ? "
            f"T_CAT[(int64_t) cat + {offset}L] : {log_floor};",
        ]
        _emit_slab_leaf(
            "categorical", slab + i, int(block.variables[i]), value, lines
        )


def _bin_grid(breaks: np.ndarray) -> Tuple[float, int, np.ndarray, int]:
    """A uniform grid over *breaks*: ``(inv_width, top, start, k)``.

    ``cell(x) = (int)(clamp((x - breaks[0]) * inv_width, 0, top))`` is
    monotone in ``x`` under IEEE rounding, so running the same float64
    expression over the breaks themselves tells exactly which breaks
    share a cell with ``x``: those below the cell are all ``<= x``
    (``start[cell]`` of them), those above all ``> x``, and at most
    *k* sit inside it and must be compared.  The grid is refined until
    *k* = 1 (evenly spaced breaks) or 64 cells per bin.  ``start`` is
    clamped to ``len(breaks) - k`` so the *k* compares never leave the
    array; the breaks pulled in that way lie below the cell, so they
    compare ``<= x`` and the count is unchanged.
    """
    n = len(breaks)
    best = None
    for shift in range(7):
        top = (n - 1) << shift
        inv_width = top / float(breaks[-1] - breaks[0])
        cells = (breaks - breaks[0]) * inv_width
        cells = np.clip(cells, 0.0, top).astype(int)
        k = int(np.bincount(cells).max())
        if best is None or k < best[3]:
            best = (inv_width, top, cells, k)
        if k == 1:
            break
    inv_width, top, cells, k = best
    start = np.searchsorted(cells, np.arange(top + 1), side="left")
    return inv_width, top, np.minimum(start, n - k), k


def _grid_codes(var: int, breaks: np.ndarray, masked: str, k: int,
                offset: int, tables: List[str]) -> List[str]:
    """Cell codes of a group whose breaks are not consecutive integers.

    Exactly ``searchsorted(breaks, x, side='right')``: :func:`_bin_grid`'s
    start index plus *K* compares.  NaN clamps to cell 0 and compares
    false everywhere, landing on cell 0 — like the last cell numpy's
    NaN-sorts-last reaches, it holds every leaf's floor.  Two loops
    (grid cell into the tile, then compares and code over it): fused,
    GCC threads the clamps into unpredictable branches.
    """
    inv_width, top, start, n_compares = _bin_grid(breaks)
    tables += [
        _const_array("double", f"brk_{var}", [_c_double(b) for b in breaks]),
        _const_array("int32_t", f"st_{var}", [str(int(s)) for s in start]),
    ]
    compares = "".join(
        f" + (xr >= brk_{var}[s + {j}])" for j in range(n_compares)
    )
    return [
        "        for (long r = 0; r < rows; ++r) {",
        f"            double t = ((double) d[r * n_cols + {var}] - "
        f"{_c_double(breaks[0])}) * {_c_double(inv_width)};",
        "            t = (t > 0.0) ? t : 0.0;",
        f"            t = (t < {top}.0) ? t : {top}.0;",
        f"            c{var}[r] = (int32_t) t;",
        "        }",
        "        for (long r = 0; r < rows; ++r) {",
        f"            const double xr = (double) d[r * n_cols + {var}];",
        f"            const int32_t s = st_{var}[c{var}[r]];",
        f"            c{var}[r] = {masked}",
        f"                : (s{compares}) * {k} + {offset};",
        "        }",
    ]


def _emit_product_node(row: int, dst: str, terms: List[str], op: str,
                       lines: List[str]) -> None:
    """One product node: *op* (``+`` on log-values, ``*`` on linear
    ones) over its children, in child order."""
    step, op = _TERMS_PER_STATEMENT, f" {op} "
    lines += [
        f"    {{ /* product row {row} */",
        f"        real_t* restrict dst = {dst};",
        "        FOR_PADDED_ROWS(r, n16) {",
        f"            real_t acc = {op.join(terms[:step])};",
    ]
    for i in range(step, len(terms), step):
        lines.append(
            f"            acc = acc{op}{op.join(terms[i: i + step])};"
        )
    lines += ["            dst[r] = acc;", "        }", "    }"]


def _emit_sum_node(row: int, dst: str, terms: List[str],
                   weights: List[float], dtype: np.dtype,
                   lines: List[str]) -> None:
    """One sum node: stable max-shift log-sum-exp over its children.

    The shift and peak run in the storage type (matching the numpy
    kernels); the exponential accumulation always runs in ``double``,
    which is what keeps float32 storage within ~1e-4 of the
    double-precision root.
    """
    shift_t = "float" if dtype == np.dtype(np.float32) else "double"
    lines += [
        f"    {{ /* sum row {row} */",
        f"        real_t* restrict dst = {dst};",
        "        FOR_PADDED_ROWS(r, n16) {",
    ]
    for j, (term, weight) in enumerate(zip(terms, weights)):
        lines.append(
            f"            const {shift_t} s{j} = {term} + "
            f"{_c_real(weight, dtype)};"
        )
        lines.append(
            f"            {shift_t} peak = s0;" if j == 0
            else f"            if (s{j} > peak) peak = s{j};"
        )
    lines.append(
        f"            const {shift_t} safe = "
        f"(peak == -INFINITY) ? ({shift_t}) 0 : peak;"
    )
    for j in range(len(terms)):
        lines.append(
            f"            {'double acc =' if j == 0 else 'acc +='} "
            f"exp((double)(s{j} - safe));"
        )
    lines += [
        "            dst[r] = (real_t)((double) peak + log(acc));",
        "        }",
        "    }",
    ]


def _emit_linear_sum(row: int, dst: str, terms: List[str],
                     weights: List[float], lines: List[str]) -> None:
    """One linear sum node: ``w_j * x_j`` added in ``double``, in order."""
    lines += [
        f"    {{ /* sum row {row}, linear */",
        f"        real_t* restrict dst = {dst};",
        "        FOR_PADDED_ROWS(r, n16) {",
    ]
    for j, (term, weight) in enumerate(zip(terms, weights)):
        lines.append(
            f"            {'double acc =' if j == 0 else 'acc +='} "
            f"{_c_double(math.exp(weight))} * (double) {term};"
        )
    lines += ["            dst[r] = (real_t) acc;", "        }", "    }"]


def _emit_layer(layer: CsrLayer, refs: List[Tuple[str, str]],
                linear: np.ndarray, n_inline: int, dtype: np.dtype,
                lines: List[str]) -> None:
    """Emit every node of one CSR layer with its constants inlined, each
    in its domain."""
    lines.append(
        f"    /* layer: {layer.kind}, {layer.n_nodes} node(s), "
        f"rows [{layer.row_start}, {layer.row_start + layer.n_nodes}) */"
    )
    for j, children in enumerate(_node_children(layer)):
        row = layer.row_start + j
        lin = bool(linear[row])
        terms = [refs[int(c)][lin] for c in children]
        dst = f"v + {row - n_inline}L * BLOCK"
        if layer.kind == "product":
            _emit_product_node(row, dst, terms, "*" if lin else "+", lines)
            continue
        start, stop = int(layer.indptr[j]), int(layer.indptr[j + 1])
        weights = [float(w) for w in layer.log_weights[start:stop]]
        if lin:
            _emit_linear_sum(row, dst, terms, weights, lines)
        else:
            _emit_sum_node(row, dst, terms, weights, dtype, lines)


def generate_kernel_source(plan: InferencePlan, dtype=np.float64) -> str:
    """Emit the complete C translation unit for *plan* at *dtype*.

    The returned source defines one exported function::

        int repro_plan_eval(const void* data, long n_rows, long n_cols,
                            const unsigned char* marg, double missing_value,
                            int has_missing, double* out, long n_threads,
                            double* thread_stamps);

    ``data`` is the row-major ``(n_rows, n_cols)`` batch in the storage
    dtype, ``marg`` an optional per-variable byte mask (NULL when no
    variables are marginalised), and ``out`` the float64 root
    log-likelihood vector.  ``n_threads`` asks for that many pthreads
    (clamped to [1, min(n_blocks, MAX_THREADS)]; the calling thread
    runs the first chunk, so one thread creates none) over a
    *thread-count-independent* static partition of the fixed BLOCK
    grid, so results are bit-identical for any ``n_threads``.
    ``thread_stamps`` (optional, ``2 * n_threads`` doubles) receives
    per-chunk CLOCK_MONOTONIC begin/end stamps — comparable with
    ``time.perf_counter()`` on Linux — with ``end == 0.0`` marking a
    chunk that never ran.  Returns 0 on success, 1 on allocation
    failure.

    Raises :class:`~repro.errors.NativeBackendError` when the plan has a
    generic leaf block — those leaves evaluate through arbitrary Python
    callables and cannot be compiled.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise NativeBackendError(
            f"native kernels support float32/float64 storage, got {dtype}"
        )
    if plan.generic_block is not None:
        foreign = sorted({
            type(leaf).__name__ for leaf in plan.generic_block.leaves
        })
        raise NativeBackendError(
            f"plan {plan.name!r} has generic leaves of type "
            f"{', '.join(foreign)} that evaluate through Python "
            "callables; the native backend cannot compile them - use "
            "the numpy plan backend"
        )

    real = "float" if dtype == np.dtype(np.float32) else "double"
    hist = plan.histogram_block
    n_inline = len(hist) if hist is not None else 0
    n_slab = plan.n_nodes - n_inline
    linear = linear_rows(plan, dtype)
    refs = _row_refs(plan, n_inline, linear)
    tables: List[str] = []  # file-scope constants
    body: List[str] = []  # eval_block statements
    n_tiles = len(hist.groups) if n_inline else 0
    t_hist = _emit_histogram(hist, tables, body) if n_inline else np.zeros(0)
    if plan.categorical_block is not None:
        tables.append(
            _const_real("T_CAT", plan.categorical_block.table, dtype)
        )
    for block, emit in (
        (plan.gaussian_block, _emit_gaussian),
        (plan.categorical_block, _emit_categorical),
    ):
        if block is not None:
            emit(block, block.row_start - n_inline, dtype, body)
    for layer in plan.layers:
        _emit_layer(layer, refs, linear, n_inline, dtype, body)
    if linear[plan.root_row]:  # one log per row, over padded tiles
        body += [
            "    double root[BLOCK];",
            f"    FOR_PADDED_ROWS(r, n16) root[r] = log((double) "
            f"{refs[plan.root_row][1]});",
            "    for (long r = 0; r < rows; ++r) out[r] = root[r];",
        ]
    else:
        body += [
            "    for (long r = 0; r < rows; ++r)",
            f"        out[r] = (double) {refs[plan.root_row][0]};",
        ]
    with np.errstate(over="ignore"):  # T_LIN entries no linear node reads
        for name, table in (("T_HIST", t_hist), ("T_LIN", np.exp(t_hist))):
            if any(f"{name}[" in line for line in body):
                tables.append(_const_real(name, table, dtype))

    lines: List[str] = [
        "/* Generated by repro.compiler.cgen - do not edit.",
        f" * codegen version: {CODEGEN_VERSION}",
        f" * plan: {plan.name}  nodes={plan.n_nodes}  "
        f"leaves={plan.n_leaves}  layers={plan.n_layers}",
        f" * storage dtype: {dtype.name}  block: {BLOCK_ROWS} rows  "
        f"slab rows: {n_slab}  code tiles: {n_tiles}  "
        f"linear rows: {int(linear[n_inline:].sum())}",
        " */",
        "#define _POSIX_C_SOURCE 200809L",
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <stdlib.h>",
        "#include <time.h>",
        "#include <pthread.h>",
        "",
        f"typedef {real} real_t;",
        f"#define BLOCK {BLOCK_ROWS}L",
        f"#define MAX_THREADS {MAX_KERNEL_THREADS}L",
        "/* Node loops walk whole PAD-row tiles: every tile runs the same",
        " * constant-trip inner loop, so no row ever takes a vector",
        " * remainder.  (Unrolled, GCC vectorizes the outer loop instead.) */",
        f"#define PAD {_ROW_PAD}L",
        "#define FOR_PADDED_ROWS(r, n) \\",
        "    for (long r##_0 = 0; r##_0 < (n); r##_0 += PAD) \\",
        "        _Pragma(\"GCC unroll 1\") \\",
        "        for (long r = r##_0; r < r##_0 + PAD; ++r)",
        "",
        *tables,
        "",
        "/* One block: rows <= BLOCK live rows, node loops over n16 (rows",
        " * rounded up to whole tiles; pad rows evaluate log 1 and are never",
        " * written out).  v is the value slab, code the int32 tiles. */",
        "static void eval_block(const real_t* restrict d, const long n_cols,",
        "                       const long rows,",
        "                       const unsigned char* restrict marg,",
        "                       const double miss, const int has_missing,",
        "                       real_t* restrict v, int32_t* restrict code,",
        "                       double* restrict out)",
        "{",
        "    const long n16 = (rows + PAD - 1) & ~(PAD - 1);",
        *body,
        "}",
        "",
        "/* Evaluate blocks [b_begin, b_end) into out.  Each caller owns",
        " * a private value slab, so ranges evaluate concurrently with no",
        " * shared mutable state; the block partition is fixed by the",
        " * compile-time BLOCK constant, never by the thread count, which",
        " * is what makes results bit-identical for any n_threads. */",
        "static int eval_range(const real_t* restrict d, const long n_rows,",
        "                      const long n_cols,",
        "                      const unsigned char* restrict marg,",
        "                      const double miss, const int has_missing,",
        "                      double* restrict out,",
        "                      const long b_begin, const long b_end)",
        "{",
        f"    real_t* v = (real_t*) malloc((size_t) BLOCK * ({n_slab}L * "
        f"sizeof(real_t) + {n_tiles}L * sizeof(int32_t)));",
        "    if (v == 0) return 1;",
        f"    int32_t* code = (int32_t*) (v + {n_slab}L * BLOCK);",
        "    for (long b = b_begin; b < b_end; ++b) {",
        "        const long r0 = b * BLOCK;",
        "        const long rows = "
        "(n_rows - r0 < BLOCK) ? (n_rows - r0) : BLOCK;",
        "        eval_block(d + r0 * n_cols, n_cols, rows, marg,",
        "                   miss, has_missing, v, code, out + r0);",
        "    }",
        "    free(v);",
        "    return 0;",
        "}",
        "",
        "static double repro_mono_seconds(void)",
        "{",
        "    struct timespec ts;",
        "    if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0.0;",
        "    return (double) ts.tv_sec + 1e-9 * (double) ts.tv_nsec;",
        "}",
        "",
        "typedef struct {",
        "    const real_t* d;",
        "    long n_rows;",
        "    long n_cols;",
        "    const unsigned char* marg;",
        "    double miss;",
        "    int has_missing;",
        "    double* out;",
        "    long b_begin;",
        "    long b_end;",
        "    int rc;",
        "    double t0;",
        "    double t1;",
        "} repro_chunk_t;",
        "",
        "static void repro_run_chunk(repro_chunk_t* c)",
        "{",
        "    c->t0 = repro_mono_seconds();",
        "    c->rc = eval_range(c->d, c->n_rows, c->n_cols, c->marg,",
        "                       c->miss, c->has_missing, c->out,",
        "                       c->b_begin, c->b_end);",
        "    c->t1 = repro_mono_seconds();",
        "}",
        "",
        "static void* repro_chunk_main(void* arg)",
        "{",
        "    repro_run_chunk((repro_chunk_t*) arg);",
        "    return 0;",
        "}",
        "",
        f"int {KERNEL_SYMBOL}(const void* data, long n_rows, long n_cols,",
        "                    const unsigned char* marg, double missing_value,",
        "                    int has_missing, double* out, long n_threads,",
        "                    double* thread_stamps)",
        "{",
        "    const real_t* d = (const real_t*) data;",
        "    const long n_blocks = (n_rows + BLOCK - 1) / BLOCK;",
        "    long nt = n_threads;",
        "    if (nt < 1) nt = 1;",
        "    if (nt > MAX_THREADS) nt = MAX_THREADS;",
        "    if (n_blocks > 0 && nt > n_blocks) nt = n_blocks;",
        "    repro_chunk_t chunks[MAX_THREADS];",
        "    for (long t = 0; t < nt; ++t) {",
        "        chunks[t].d = d;",
        "        chunks[t].n_rows = n_rows;",
        "        chunks[t].n_cols = n_cols;",
        "        chunks[t].marg = marg;",
        "        chunks[t].miss = missing_value;",
        "        chunks[t].has_missing = has_missing;",
        "        chunks[t].out = out;",
        "        chunks[t].b_begin = (n_blocks * t) / nt;",
        "        chunks[t].b_end = (n_blocks * (t + 1)) / nt;",
        "        chunks[t].rc = 0;",
        "        chunks[t].t0 = 0.0;",
        "        chunks[t].t1 = 0.0;",
        "    }",
        "    pthread_t tids[MAX_THREADS];",
        "    int started[MAX_THREADS];",
        "    for (long t = 1; t < nt; ++t)",
        "        started[t] = (pthread_create(&tids[t], 0,",
        "                      repro_chunk_main, &chunks[t]) == 0);",
        "    repro_run_chunk(&chunks[0]);",
        "    for (long t = 1; t < nt; ++t) {",
        "        if (started[t]) pthread_join(tids[t], 0);",
        "        else repro_run_chunk(&chunks[t]);",
        "    }",
        "    int rc = 0;",
        "    for (long t = 0; t < nt; ++t) {",
        "        rc |= chunks[t].rc;",
        "        if (thread_stamps != 0) {",
        "            thread_stamps[2 * t] = chunks[t].t0;",
        "            thread_stamps[2 * t + 1] = chunks[t].t1;",
        "        }",
        "    }",
        "    return rc;",
        "}",
        "",
    ]
    return "\n".join(lines)
