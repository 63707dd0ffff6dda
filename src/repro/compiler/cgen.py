"""Per-plan C code generation for the native inference backend.

The numpy plan evaluator (:mod:`repro.spn.plan_eval`) still pays one
Python-dispatched numpy kernel per layer per chunk.  This module walks
an :class:`~repro.spn.plan.InferencePlan` the same way the interpreter
and the Verilog emitter do and emits one *specialized C translation
unit* for it: the whole bottom-up pass becomes a single C function
over a cache-resident row block, with every structural constant (child
rows, mixture weights, leaf tables) baked in as a compile-time
constant so the C compiler can unroll and vectorize.

The datapath follows the paper's accelerator core, where histogram
leaves are BRAM lookup tables feeding the adder tree with no memory in
between: a unit-bin histogram leaf is *never materialised*.  Per row
block the kernel fills one ``int32`` row-code tile per histogram
variable, and every product or sum node reads a histogram child as
``T_HIST[code_v[r] + column]`` inline, in the plan's child order — the
same adds in the same order as the numpy kernels.  The value slab
holds only Gaussian, categorical and irregular-bin leaves and interior
nodes.

Kernel semantics mirror :func:`repro.spn.plan_eval.plan_log_likelihood`
exactly:

* histogram row codes clamp with ``(x < hi) ? x : hi`` /
  ``(x > lo) ? x : lo`` — ``fmin``/``fmax`` for every input including
  NaN (which lands on a sentinel row), but plain selects the compiler
  vectorizes instead of scalar libm calls.  A marginalised variable, a
  missing entry and a pad row all select one all-zero row appended to
  the variable's table slab, so node loops carry no ``marg`` /
  ``has_missing`` branch;
* irregular-bin :class:`~repro.spn.nodes.HistogramLeaf` instances (the
  plan's generic block; the NIPS networks contain a few) resolve
  ``searchsorted(side="right")`` through a uniform grid, a start-index
  table and *K* compares (*K* = 1 on every NIPS leaf).  A generic block
  containing any *other* leaf family evaluates through arbitrary Python
  callables and cannot be compiled; generation then raises
  :class:`~repro.errors.NativeBackendError` and the caller falls back
  to the numpy plan backend;
* Gaussian leaves use the closed form, categorical leaves the LUT
  gather with numpy's ``isclose`` integrality test;
* product nodes are adds in child order, sum nodes a stable max-shift
  log-sum-exp whose accumulation always runs in ``double`` — on
  float32 storage this is the paper-motivated "float64 accumulation
  over float32 storage" split.

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
from repro.spn.nodes import HistogramLeaf
from repro.spn.plan import CsrLayer, InferencePlan

__all__ = [
    "CODEGEN_VERSION",
    "KERNEL_SYMBOL",
    "MAX_KERNEL_THREADS",
    "BLOCK_ROWS",
    "generate_kernel_source",
]

#: Version of the generated-kernel ABI/semantics.  Bump on ANY change
#: to the emitted code or the call signature: the version is part of
#: the on-disk artifact key, so old cached kernels are invalidated
#: instead of silently reused.
#: v2: thread-parallel block driver (n_threads/thread_stamps params).
#: v3: histogram leaves gathered inline from per-variable code tiles,
#: grid lookup for irregular bins, padded row loops.
CODEGEN_VERSION = 3

#: Exported entry-point symbol of every generated kernel.
KERNEL_SYMBOL = "repro_plan_eval"

#: Hard cap on kernel threads, baked into the generated driver (the
#: per-chunk descriptor array is a stack allocation of this size).
MAX_KERNEL_THREADS = 256

#: Rows per block: the unit of the thread partition and the width of
#: the value slab and code tiles, sized so both stay L1/L2-resident
#: (NIPS80: 56 slab rows + 80 tiles = 192 KiB).  128-1024 measure the
#: same; it is a constant, not an option.
BLOCK_ROWS = 256

#: Node loops walk whole tiles of this many rows (16 x int32/float32
#: fill 512 bits): a constant trip count, so the compiler emits no
#: vector remainder.  Divides :data:`BLOCK_ROWS`.
_ROW_PAD = 16

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


def _row_refs(plan: InferencePlan, n_inline: int) -> List[str]:
    """The C expression that reads each plan row at block row ``r``.

    Rows ``[0, n_inline)`` are the histogram block (it always starts at
    row 0): gathered inline, never stored.  Every other row lives in
    the value slab at ``row - n_inline``.
    """
    block = plan.histogram_block
    return [
        f"T_HIST[c{int(block.variables[i])}[r] + {int(block.columns[i])}]"
        for i in range(n_inline)
    ] + [
        f"v[{row - n_inline}L * BLOCK + r]"
        for row in range(n_inline, plan.n_nodes)
    ]


def _emit_histogram(
    block, dtype: np.dtype, tables: List[str], lines: List[str]
) -> int:
    """Row-code tiles for the unit-bin histogram block; returns how many.

    One ``int32`` tile per variable, shared by all its leaves: clamp,
    scale, offset into ``T_HIST``.  Each variable's composite slab gets
    one all-zero row appended (log 1 for every leaf of the variable) —
    the row a marginalised variable, a missing entry and a pad row
    select, so no reader of the tile needs a mask.
    """
    parts: List[np.ndarray] = []
    offset = 0
    variables = sorted({int(v) for v in block.variables})
    for slot, var in enumerate(variables):
        k = int(block.code_scale[var])
        first = int(block.code_base[var])
        size = int(block.code_hi[var] - block.code_lo[var] + 1) * k
        parts += [block.table[first: first + size], np.zeros(k)]
        zero = offset + size
        lo = _c_double(block.code_lo[var])
        hi = _c_double(block.code_hi[var])
        lines += [
            f"    int32_t* restrict c{var} = code + {slot}L * BLOCK;",
            f"    {{ /* row codes, variable {var} */",
            f"        const int skip = marg != 0 && marg[{var}];",
            "        for (long r = 0; r < rows; ++r) {",
            f"            const double xr = (double) d[r * n_cols + {var}];",
            "            double x = floor(xr);",
            f"            x = (x < {hi}) ? x : {hi};",
            f"            x = (x > {lo}) ? x : {lo};",
            f"            c{var}[r] = (skip | (has_missing & (xr == miss))) ? "
            f"{zero}",
            f"                : (int32_t)((x - {lo}) * {_c_double(k)} + "
            f"{_c_double(offset)});",
            "        }",
            f"        for (long r = rows; r < n16; ++r) c{var}[r] = {zero};",
            "    }",
        ]
        offset = zero + k
    tables.append(_const_real("T_HIST", np.concatenate(parts), dtype))
    return len(variables)


def _emit_slab_leaf(label: str, slab: int, var: int, value: List[str],
                    lines: List[str], setup: Tuple[str, ...] = ()) -> None:
    """A stored leaf: *value* computes ``val`` from ``x`` (``xr`` in the
    storage type) per row, unless the variable is marginalised."""
    lines += [
        f"    {{ /* {label} leaf, slab row {slab}, variable {var} */",
        f"        real_t* restrict dst = v + {slab}L * BLOCK;",
        f"        if (marg != 0 && marg[{var}]) {{",
        "            for (long r = 0; r < rows; ++r) dst[r] = (real_t) 0;",
        "        } else {",
        *setup,
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
    *k* = 1 (any evenly spaced leaf) or 64 cells per bin.  ``start`` is
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


def _emit_irregular(block, slab: int, dtype: np.dtype,
                    lines: List[str]) -> None:
    """Leaf stage for irregular histogram leaves in the generic block.

    Replicates ``HistogramLeaf.log_density`` exactly: ``searchsorted
    (side='right')`` is the count of breaks ``<= x``, found as
    :func:`_bin_grid`'s start index plus *k* compares, then one lookup
    in ``[floor, bins..., floor]``.  NaN clamps to cell 0 and compares
    false everywhere, landing on the floor — the result numpy reaches
    through its NaN-sorts-last convention.  Two loops (cell tile, then
    gather): fused, GCC threads the clamps into unpredictable branches.
    """
    for i, leaf in enumerate(block.leaves):
        row = slab + i  # slab row: also names the leaf's tables
        var = int(block.variables[i])
        inv_width, top, start, k = _bin_grid(leaf.breaks)
        log_floor = math.log(leaf.floor)
        log_probs = np.log(np.maximum(leaf.densities, leaf.floor))
        setup = (
            "            " + _const_array(
                "double", f"brk_{row}", [_c_double(b) for b in leaf.breaks]
            ),
            "            " + _const_array(
                "int32_t", f"st_{row}", [str(int(s)) for s in start]
            ),
            "            " + _const_real(
                f"lp_{row}", [log_floor, *log_probs, log_floor], dtype
            ),
            "            for (long r = 0; r < rows; ++r) {",
            f"                double t = ((double) d[r * n_cols + {var}] - "
            f"{_c_double(leaf.breaks[0])}) * {_c_double(inv_width)};",
            "                t = (t > 0.0) ? t : 0.0;",
            f"                t = (t < {top}.0) ? t : {top}.0;",
            "                cell[r] = (int32_t) t;",
            "            }",
        )
        compares = "".join(f" + (x >= brk_{row}[s + {j}])" for j in range(k))
        value = [
            f"                const int32_t s = st_{row}[cell[r]];",
            f"                real_t val = lp_{row}[s{compares}];",
        ]
        _emit_slab_leaf("irregular histogram", row, var, value, lines, setup)


def _emit_product_node(row: int, dst: str, terms: List[str],
                       lines: List[str]) -> None:
    """One product node: adds over its children, in child order."""
    step = _TERMS_PER_STATEMENT
    lines += [
        f"    {{ /* product row {row} */",
        f"        real_t* restrict dst = {dst};",
        "        FOR_PADDED_ROWS(r, n16) {",
        f"            real_t acc = {' + '.join(terms[:step])};",
    ]
    for i in range(step, len(terms), step):
        lines.append(
            f"            acc = acc + {' + '.join(terms[i: i + step])};"
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


def _emit_layer(layer: CsrLayer, refs: List[str], n_inline: int,
                dtype: np.dtype, lines: List[str]) -> None:
    """Emit every node of one CSR layer with its constants inlined."""
    lines.append(
        f"    /* layer: {layer.kind}, {layer.n_nodes} node(s), "
        f"rows [{layer.row_start}, {layer.row_start + layer.n_nodes}) */"
    )
    for j in range(layer.n_nodes):
        start, stop = int(layer.indptr[j]), int(layer.indptr[j + 1])
        terms = [refs[int(c)] for c in layer.child_rows[start:stop]]
        row = layer.row_start + j
        dst = f"v + {row - n_inline}L * BLOCK"
        if layer.kind == "product":
            _emit_product_node(row, dst, terms, lines)
        else:
            weights = [float(w) for w in layer.log_weights[start:stop]]
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
    log-likelihood vector.  ``n_threads`` asks for that many worker
    threads (clamped to [1, min(n_blocks, MAX_THREADS)]; forced to 1
    when the artifact was built without a thread runtime) over a
    *thread-count-independent* static partition of the fixed BLOCK
    grid, so results are bit-identical for any ``n_threads``.
    ``thread_stamps`` (optional, ``2 * n_threads`` doubles) receives
    per-chunk CLOCK_MONOTONIC begin/end stamps — comparable with
    ``time.perf_counter()`` on Linux — with ``end == 0.0`` marking a
    chunk that never ran.  Returns 0 on success, 1 on allocation
    failure.

    Raises :class:`~repro.errors.NativeBackendError` when the plan
    contains leaves without a fused kernel (generic leaf block) — those
    evaluate through arbitrary Python callables and cannot be compiled.
    """
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise NativeBackendError(
            f"native kernels support float32/float64 storage, got {dtype}"
        )
    if plan.generic_block is not None:
        foreign = sorted({
            type(leaf).__name__ for leaf in plan.generic_block.leaves
            if not isinstance(leaf, HistogramLeaf)
        })
        if foreign:
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
    refs = _row_refs(plan, n_inline)
    tables: List[str] = []  # file-scope constants
    body: List[str] = []  # eval_block statements
    n_tiles = _emit_histogram(hist, dtype, tables, body) if n_inline else 0
    if plan.categorical_block is not None:
        tables.append(
            _const_real("T_CAT", plan.categorical_block.table, dtype)
        )
    if plan.generic_block is not None:  # one more tile: irregular-bin cells
        body.append(f"    int32_t* restrict cell = code + {n_tiles}L * BLOCK;")
        n_tiles += 1
    for block, emit in (
        (plan.gaussian_block, _emit_gaussian),
        (plan.categorical_block, _emit_categorical),
        (plan.generic_block, _emit_irregular),
    ):
        if block is not None:
            emit(block, block.row_start - n_inline, dtype, body)
    for layer in plan.layers:
        _emit_layer(layer, refs, n_inline, dtype, body)

    lines: List[str] = [
        "/* Generated by repro.compiler.cgen - do not edit.",
        f" * codegen version: {CODEGEN_VERSION}",
        f" * plan: {plan.name}  nodes={plan.n_nodes}  "
        f"leaves={plan.n_leaves}  layers={plan.n_layers}",
        f" * storage dtype: {dtype.name}  block: {BLOCK_ROWS} rows  "
        f"slab rows: {n_slab}  code tiles: {n_tiles}",
        " */",
        "#define _POSIX_C_SOURCE 200809L",
        "#include <math.h>",
        "#include <stdint.h>",
        "#include <stdlib.h>",
        "#include <time.h>",
        "#ifdef REPRO_THREADS_PTHREADS",
        "#include <pthread.h>",
        "#endif",
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
        "    for (long r = 0; r < rows; ++r)",
        f"        out[r] = (double) {refs[plan.root_row]};",
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
        "#ifdef REPRO_THREADS_PTHREADS",
        "static void* repro_chunk_main(void* arg)",
        "{",
        "    repro_run_chunk((repro_chunk_t*) arg);",
        "    return 0;",
        "}",
        "#endif",
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
        "#if !defined(REPRO_THREADS_OPENMP) && "
        "!defined(REPRO_THREADS_PTHREADS)",
        "    nt = 1; /* serial build: no thread runtime compiled in */",
        "#endif",
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
        "#if defined(REPRO_THREADS_OPENMP)",
        "    #pragma omp parallel for schedule(static) "
        "num_threads((int) nt)",
        "    for (long t = 0; t < nt; ++t) repro_run_chunk(&chunks[t]);",
        "#elif defined(REPRO_THREADS_PTHREADS)",
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
        "#else",
        "    for (long t = 0; t < nt; ++t) repro_run_chunk(&chunks[t]);",
        "#endif",
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
