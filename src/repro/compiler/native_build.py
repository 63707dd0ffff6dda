"""Runtime build cache and zero-copy loader for native plan kernels.

:mod:`repro.compiler.cgen` turns an
:class:`~repro.spn.plan.InferencePlan` into C source; this module turns
that source into a callable.  The pipeline is

1. **generate** the translation unit (pure function of plan + dtype),
2. **compile** it once into the shared on-disk cache
   (``$REPRO_CACHE_DIR``, default ``.repro_cache/`` — the same cache
   the NIPS structure learner uses), keyed by a hash of the *generated
   source* plus the compiler identity, with the storage dtype and
   :data:`~repro.compiler.cgen.CODEGEN_VERSION` spelled out in the
   artifact name so stale-revision artifacts are invalidated rather
   than silently reused,
3. **load** the artifact through :mod:`ctypes` and wrap it in a
   :class:`NativeKernel` that calls the C entry point *zero-copy*: the
   numpy batch's own buffer is handed to C, and only the float64
   result vector is allocated.

The GIL is released for the duration of the C call, so concurrent
executor lanes overlap on the native backend just like they do on the
numpy kernels.

Failure policy (the "loud-but-graceful" contract):

* the *explicit* API — :func:`get_native_kernel` with
  ``require=True`` — raises
  :class:`~repro.errors.NativeBackendError` when no C compiler exists,
  the plan is uncompilable (generic leaves), or the build fails;
* the *implicit* path — :func:`native_or_plan_log_likelihood`, used by
  the process-wide ``backend="native"`` switch — warns once per
  process (:class:`RuntimeWarning`) and falls back to the numpy plan
  backend, keeping every environment without a toolchain green.

Set ``REPRO_NATIVE_CC`` to pick a specific compiler binary; pointing it
at a nonexistent path masks the toolchain entirely (used by the no-cc
CI leg and the fallback tests).

**Threading.**  Generated kernels carry their own pthread block
driver.  The per-call thread count resolves through
:func:`resolve_native_threads`: an explicit ``threads=`` argument wins,
then ``REPRO_NATIVE_THREADS``, then 1 — invalid values raise
:class:`~repro.errors.RuntimeConfigError` naming the source.  Results
are bit-identical for every thread count (the row partition is fixed
by the compile-time block size, never by ``threads``).

**Host-ISA keying.**  Builds probe ``-march=native`` and, where it
works, compile with it and fold the *ISA identity* — a hash of the
compiler's ``-march=native`` predefined-macro dump — into the cache
key, so an artifact tuned for one host is never dlopen-ed on a sibling
with different vector extensions; the sibling transparently builds its
own.  ``REPRO_NATIVE_PORTABLE=1`` opts back into the portable flag set
(artifacts tagged ``-portable-``).

**Cache bounding.**  The cache grows per (plan, dtype, codegen
revision, ISA); :func:`prune_native_cache` (CLI:
``repro cache --prune``) evicts least-recently-used artifact groups —
cache hits refresh mtime — down to a byte budget.

Observability: when a registry/tracer pair is attached via
:func:`set_native_observability`, builds bump ``native.build_seconds``
and ``native.cache_misses``, loads of cached artifacts bump
``native.cache_hits``, and every kernel invocation records a
``native`` host span plus, on multi-threaded calls, per-chunk
``native thread<t>`` spans and ``native.thread<t>.busy_seconds``
counters (visible in the Perfetto export).
"""

from __future__ import annotations

import hashlib
import operator
import os
import subprocess
import time
import warnings
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NativeBackendError, RuntimeConfigError
from repro.spn.plan import InferencePlan
from repro.spn.plan_eval import (
    _as_batch,
    _check_dtype,
    _check_marginalized,
    plan_log_likelihood,
)
from repro.compiler.cgen import (
    CODEGEN_VERSION,
    KERNEL_SYMBOL,
    MAX_KERNEL_THREADS,
    generate_kernel_source,
)

__all__ = [
    "compiler_command",
    "native_cache_dir",
    "resolve_native_threads",
    "NativeKernel",
    "build_kernel",
    "load_kernel",
    "get_native_kernel",
    "native_or_plan_log_likelihood",
    "set_native_observability",
    "clear_native_kernels",
    "native_cache_stats",
    "prune_native_cache",
    "DEFAULT_CACHE_MAX_BYTES",
]

#: Compilation flags.  No ``-ffast-math`` (it breaks the inf/NaN
#: semantics the kernels rely on) and no ``-march=native`` (artifacts
#: in the shared cache must survive being read on a sibling host).
_CFLAGS: Tuple[str, ...] = (
    "-O3",
    "-std=c11",
    "-fPIC",
    "-shared",
    "-fno-math-errno",
    "-pthread",
)

#: Extra flags that unlock glibc's vectorized math library (libmvec).
#: ``-D__FAST_MATH__`` only flips on the SIMD ``exp``/``log``
#: declarations guarded in ``<bits/math-vector.h>`` — none of the
#: value-changing ``-ffast-math`` codegen relaxations are enabled.
#: ``-fno-trapping-math``/``-fno-signaling-nans`` let the vectorizer
#: if-convert the IEEE selects inside the sum-node loops (without them
#: GCC reports "control flow in loop" and stays scalar).  The libmvec
#: variants were verified to match scalar libm bit-for-bit on the
#: kernel's special values (``exp(-inf)``, NaN propagation).
_VEC_CFLAGS: Tuple[str, ...] = (
    "-fno-trapping-math",
    "-fno-signaling-nans",
    "-D__FAST_MATH__",
)

#: Probe source for :func:`_vector_math_supported`: links against
#: libmvec and calls ``exp`` from a countable loop.
_VEC_PROBE_SRC = (
    "#include <math.h>\n"
    "double f(const double* restrict a, double* restrict o, long n) {\n"
    "    double s = 0.0;\n"
    "    for (long i = 0; i < n; ++i) { o[i] = exp(a[i]); s += o[i]; }\n"
    "    return s;\n"
    "}\n"
    "int main(void) { double a[4] = {0}, o[4]; return (int) f(a, o, 4); }\n"
)

#: Memoized probe results keyed by resolved compiler path.
_VEC_PROBED: Dict[str, bool] = {}

#: Candidate compiler binaries, probed in order.
_CC_CANDIDATES: Tuple[str, ...] = ("cc", "gcc", "clang")

#: Memoized ``-march=native`` ISA identities keyed by compiler path:
#: an 8-hex digest of the march-predefined-macro dump (None when the
#: flag is unsupported).
_ISA_PROBED: Dict[str, Optional[str]] = {}

#: Default byte budget for :func:`prune_native_cache`.
DEFAULT_CACHE_MAX_BYTES = 256 * 1024 * 1024


def _probe_compile(cc0: str, source: str, flags: Sequence[str],
                   libs: Sequence[str] = ()) -> bool:
    """Whether *cc0* compiles and links *source* with *flags*.

    *libs* go after the source file: link order matters to ``ld``.
    """
    import tempfile

    try:
        with tempfile.TemporaryDirectory(prefix="repro-ccprobe-") as tmp:
            src = Path(tmp) / "probe.c"
            out = Path(tmp) / "probe"
            src.write_text(source)
            result = subprocess.run(
                [cc0, "-O2", "-std=c11", *flags, "-o", str(out), str(src),
                 *libs],
                capture_output=True,
                text=True,
            )
            return result.returncode == 0
    except OSError:
        return False


def _portable_requested() -> bool:
    """Whether ``REPRO_NATIVE_PORTABLE`` disables host-ISA tuning."""
    return os.environ.get("REPRO_NATIVE_PORTABLE", "") not in ("", "0")


def _march_isa(cc0: str) -> Optional[str]:
    """The host-ISA identity under ``-march=native``, or None.

    When *cc0* accepts ``-march=native``, the identity is a hash of
    the flag's predefined-macro dump (every ``__AVX2__``-style feature
    macro the flag turns on) plus the machine architecture — two hosts
    share an artifact iff the compiler would target the same ISA on
    both.  Returns None when the flag is unsupported (non-x86 gcc
    without a native mapping, exotic compilers); builds then keep the
    portable flag set.
    """
    import platform

    if cc0 in _ISA_PROBED:
        return _ISA_PROBED[cc0]
    isa: Optional[str] = None
    try:
        result = subprocess.run(
            [cc0, "-march=native", "-dM", "-E", "-x", "c", os.devnull],
            capture_output=True,
            text=True,
        )
        if result.returncode == 0 and result.stdout:
            macros = "\n".join(sorted(result.stdout.splitlines()))
            isa = hashlib.blake2b(
                (platform.machine() + "\0" + macros).encode(),
                digest_size=4,
            ).hexdigest()
    except OSError:
        isa = None
    _ISA_PROBED[cc0] = isa
    return isa


def _thread_count(value, convert, source: str) -> int:
    """*value* as a kernel-thread count, clamped to the driver's cap;
    *source* names where it came from in the error."""
    try:
        count = convert(value)
    except (TypeError, ValueError):
        count = 0
    if count < 1:
        raise RuntimeConfigError(
            f"{source} must be a positive integer thread count, "
            f"got {value!r}"
        )
    return min(count, MAX_KERNEL_THREADS)


def resolve_native_threads(threads: Optional[int] = None) -> int:
    """Resolve a kernel-thread count: argument > env var > 1.

    An explicit ``threads=`` argument wins; otherwise
    ``REPRO_NATIVE_THREADS`` is consulted; otherwise the call runs
    single-threaded.  Non-integer or non-positive values raise
    :class:`~repro.errors.RuntimeConfigError` naming the offending
    source (mirroring ``REPRO_SWEEP_WORKERS``).  The result is clamped
    to the generated driver's hard cap
    (:data:`repro.compiler.cgen.MAX_KERNEL_THREADS`).
    """
    if threads is not None:
        return _thread_count(threads, operator.index, "threads=")
    env = os.environ.get("REPRO_NATIVE_THREADS", "")
    if not env:
        return 1
    return _thread_count(env, int, "REPRO_NATIVE_THREADS")


#: In-process kernel memo: ``(plan id, dtype str) -> NativeKernel``.
#: Entries are evicted by a ``weakref.finalize`` on the plan so a dead
#: plan's id being recycled can never resurrect a stale kernel.
_KERNELS: Dict[Tuple[int, str], "NativeKernel"] = {}

#: Reasons already warned about on the implicit-fallback path (warn
#: once per process per reason, not once per call).
_WARNED: set = set()

#: Attached observability sinks (metrics registry, host-span recorder).
_OBS: List[Optional[object]] = [None, None]


def set_native_observability(metrics=None, host_tracer=None):
    """Attach obs sinks for native builds/calls; returns the previous pair.

    *metrics* is a :class:`repro.obs.metrics.MetricsRegistry` (receives
    ``native.build_seconds``, ``native.cache_hits``,
    ``native.cache_misses`` and ``native.calls`` counters);
    *host_tracer* a :class:`repro.obs.trace_export.HostSpanRecorder`
    (receives one ``native`` span per kernel invocation).  Pass the
    returned pair back in to restore the prior sinks.
    """
    previous = (_OBS[0], _OBS[1])
    _OBS[0] = metrics
    _OBS[1] = host_tracer
    return previous


def _count(name: str, amount: float = 1.0) -> None:
    if _OBS[0] is not None:
        _OBS[0].counter(name).add(amount)


def compiler_command() -> Optional[List[str]]:
    """The C compiler invocation prefix, or None when unavailable.

    ``REPRO_NATIVE_CC`` overrides discovery: its value is used verbatim
    when it resolves to an executable, and masks the toolchain entirely
    (returns None) when it does not — which is how the no-compiler CI
    leg and the fallback tests simulate a bare environment.
    """
    import shutil

    override = os.environ.get("REPRO_NATIVE_CC")
    if override is not None:
        resolved = shutil.which(override)
        return [resolved] if resolved else None
    for candidate in _CC_CANDIDATES:
        resolved = shutil.which(candidate)
        if resolved:
            return [resolved]
    return None


def _vector_math_supported(cc0: str) -> bool:
    """Whether *cc0* can build against libmvec with the vec flags.

    Compiles and links :data:`_VEC_PROBE_SRC` with
    :data:`_VEC_CFLAGS` + ``-lmvec``; any failure (flag unknown to the
    compiler, libmvec absent on a non-glibc host) disables vectorized
    math for the process and the kernels fall back to scalar libm.
    Memoized per compiler path.
    """
    cached = _VEC_PROBED.get(cc0)
    if cached is None:
        cached = _VEC_PROBED[cc0] = _probe_compile(
            cc0,
            _VEC_PROBE_SRC,
            ["-O3", "-fno-math-errno", *_VEC_CFLAGS],
            libs=["-lmvec", "-lm"],
        )
    return cached


def native_cache_dir() -> Path:
    """The on-disk kernel cache: ``$REPRO_CACHE_DIR/native`` (created)."""
    base = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(base) / "native"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)[:48]


def _artifact_stem(plan: InferencePlan, dtype: np.dtype, source: str,
                   compiler_id: str, isa: Optional[str]) -> str:
    """Cache key: plan + dtype + codegen rev + ISA + hash.

    The dtype tag, ``cg<version>`` and the host-ISA identity (8 hex
    chars, or ``portable``) are spelled out (not only folded into the
    hash) so a directory listing shows exactly which revision,
    precision and ISA produced each artifact.
    """
    digest = hashlib.blake2b(
        (source + "\0" + compiler_id).encode(), digest_size=8
    ).hexdigest()
    return (
        f"{_sanitize(plan.name)}-{dtype.name}-cg{CODEGEN_VERSION}"
        f"-{isa if isa else 'portable'}-{digest}"
    )


def build_kernel(plan: InferencePlan, dtype=np.float64) -> Path:
    """Compile (or reuse) the kernel artifact for *plan*; returns its path.

    Unless ``REPRO_NATIVE_PORTABLE`` is set, builds tune with
    ``-march=native`` keyed by the host-ISA identity.  Cache hits
    refresh the artifact mtime so :func:`prune_native_cache` evicts in
    true LRU order.

    Raises :class:`~repro.errors.NativeBackendError` when no compiler
    is available, the plan is uncompilable, or compilation fails.  The
    source and the artifact are both written under per-process temp
    names and ``os.replace``-d into place after a successful compile,
    so concurrent processes racing on the same plan never read each
    other's half-written files and converge on one valid artifact.
    """
    dtype = np.dtype(dtype)
    cc = compiler_command()
    if cc is None:
        raise NativeBackendError(
            "no C compiler found (tried $REPRO_NATIVE_CC, cc, gcc, clang); "
            "the native backend needs one - use the numpy plan backend"
        )
    source = generate_kernel_source(plan, dtype)
    flags = list(_CFLAGS)
    libs = ["-lm"]
    if _vector_math_supported(cc[0]):
        flags += list(_VEC_CFLAGS)
        libs = ["-lmvec", "-lm"]
    isa = None if _portable_requested() else _march_isa(cc[0])
    if isa is not None:
        flags.append("-march=native")
    cache = native_cache_dir()
    stem = _artifact_stem(
        plan, dtype, source,
        cc[0] + ":" + ",".join(flags) + ":" + (isa or "portable"),
        isa,
    )
    artifact = cache / f"{stem}.so"
    if artifact.exists():
        _count("native.cache_hits")
        try:
            os.utime(artifact)
        except OSError:
            pass
        return artifact
    _count("native.cache_misses")
    # Both temps share the ``<stem>.so.tmp.`` prefix, so a crashed
    # build's leftovers prune with their artifact group.
    tmp = cache / f"{stem}.so.tmp.{os.getpid()}"
    c_tmp = Path(f"{tmp}.c")
    began = time.perf_counter()
    try:
        c_tmp.write_text(source)
        result = subprocess.run(
            cc + flags + ["-o", str(tmp), str(c_tmp)] + libs,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            raise NativeBackendError(
                f"native kernel build failed for plan {plan.name!r} "
                f"(compiler {cc[0]}):\n{result.stderr[:2000]}"
            )
        os.replace(c_tmp, cache / f"{stem}.c")
        os.replace(tmp, artifact)
    finally:
        c_tmp.unlink(missing_ok=True)
        tmp.unlink(missing_ok=True)
    _count("native.build_seconds", time.perf_counter() - began)
    return artifact


def _load_ctypes(path: Path):
    """Load the artifact through ctypes; returns the bound function."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    fn = getattr(lib, KERNEL_SYMBOL)
    fn.restype = ctypes.c_int
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_long,
        ctypes.c_void_p,
        ctypes.c_double,
        ctypes.c_int,
        ctypes.c_void_p,
        ctypes.c_long,
        ctypes.c_void_p,
    ]

    def call(data_ptr, n_rows, n_cols, marg_ptr, missing, has_missing,
             out_ptr, n_threads, stamps_ptr):
        """Invoke the kernel with raw buffer addresses (GIL released)."""
        return fn(data_ptr, n_rows, n_cols, marg_ptr or None, missing,
                  has_missing, out_ptr, n_threads, stamps_ptr or None)

    call.keepalive = (lib,)
    return call


class NativeKernel:
    """A loaded per-plan C kernel with the plan-evaluator call contract.

    Wraps the compiled entry point with the exact validation and
    semantics of :func:`repro.spn.plan_eval.plan_log_likelihood`:
    same dtype/shape checks, same marginal-subset validation, same
    float64 result vector.  The input batch is passed zero-copy (its
    own buffer pointer goes to C) whenever it is already contiguous in
    the kernel's storage dtype.
    """

    def __init__(self, fn, path: Path, plan: InferencePlan, dtype: np.dtype):
        self._fn = fn
        #: Path of the loaded shared object (workers reuse it verbatim).
        self.path = Path(path)
        #: Storage dtype the kernel was generated for.
        self.dtype = np.dtype(dtype)
        self._n_data_columns = plan.n_data_columns
        self._scope = plan.scope
        self._plan = plan

    def log_likelihood(
        self,
        data: np.ndarray,
        *,
        marginalized: Optional[Sequence[int]] = None,
        missing_value: Optional[float] = None,
        threads: Optional[int] = None,
    ) -> np.ndarray:
        """Root log-likelihood per row, straight from the C kernel.

        Mirrors :func:`repro.spn.plan_eval.plan_log_likelihood` for the
        kernel's storage dtype: float64 results; *marginalized* zeroes
        whole variables, *missing_value* masks per-sample entries.

        *threads* resolves through :func:`resolve_native_threads`
        (argument > ``REPRO_NATIVE_THREADS`` > 1) and is guaranteed not
        to change results: the generated driver partitions the fixed
        block grid, so every thread count produces bit-identical
        output.
        """
        nt = resolve_native_threads(threads)
        data = _as_batch(data, self._n_data_columns, self.dtype)
        marg = _check_marginalized(self._plan, marginalized)
        data = np.ascontiguousarray(data)
        n_rows, n_cols = data.shape
        out = np.empty(n_rows)
        marg_ptr = 0
        marg_mask = None
        if marg is not None and len(marg):
            marg_mask = np.zeros(max(n_cols, 1), dtype=np.uint8)
            marg_mask[marg] = 1
            marg_ptr = marg_mask.ctypes.data
        stamps = np.zeros(2 * nt)
        began = time.perf_counter()
        rc = self._fn(
            data.ctypes.data,
            n_rows,
            n_cols,
            marg_ptr,
            float(missing_value) if missing_value is not None else 0.0,
            1 if missing_value is not None else 0,
            out.ctypes.data,
            nt,
            stamps.ctypes.data,
        )
        ended = time.perf_counter()
        _count("native.calls")
        if _OBS[0] is not None or _OBS[1] is not None:
            self._record_thread_obs(nt, stamps)
        if _OBS[1] is not None:
            _OBS[1].record(
                "native", f"kernel:{_sanitize(self._plan.name)}", began, ended
            )
        if rc != 0:
            raise NativeBackendError(
                f"native kernel for plan {self._plan.name!r} failed "
                f"(return code {rc}: allocation failure)"
            )
        return out

    def _record_thread_obs(self, nt: int, stamps: np.ndarray) -> None:
        """Per-chunk busy counters and spans from the kernel's stamps.

        The driver writes CLOCK_MONOTONIC begin/end pairs per chunk —
        the same clock ``time.perf_counter`` reads on Linux, so the
        spans land on the host wall-clock track next to the executor's
        shard spans.  A pair with ``end == 0.0`` never ran (thread
        count clamped below the request) and is skipped.
        """
        label = f"kernel:{_sanitize(self._plan.name)}"
        for t in range(nt):
            t0, t1 = float(stamps[2 * t]), float(stamps[2 * t + 1])
            if t1 <= 0.0:
                continue
            _count(f"native.thread{t}.busy_seconds", t1 - t0)
            if _OBS[1] is not None and nt > 1:
                _OBS[1].record(f"native thread{t}", label, t0, t1)


def load_kernel(path, plan: InferencePlan, dtype=np.float64) -> NativeKernel:
    """Bind an already-built artifact without touching the compiler.

    This is the executor-worker entry point: the parent builds once,
    workers inherit the artifact *path* and only ``dlopen`` it — no
    per-fork rebuild, no compiler requirement in the workers.
    """
    dtype = _check_dtype(dtype)
    path = Path(path)
    if not path.exists():
        raise NativeBackendError(f"native kernel artifact missing: {path}")
    return NativeKernel(_load_ctypes(path), path, plan, dtype)


def get_native_kernel(
    plan: InferencePlan, dtype=np.float64, *, require: bool = False
) -> Optional[NativeKernel]:
    """The (memoized) native kernel for *plan*, or None when unavailable.

    With ``require=True`` unavailability raises
    :class:`~repro.errors.NativeBackendError`; otherwise the first
    failure per reason emits one :class:`RuntimeWarning` and the
    function returns None so callers can fall back to the numpy plan
    backend.  Kernels are memoized per (plan identity, dtype); a
    cache-resident artifact is only ``dlopen``-ed, never rebuilt.
    """
    dtype = _check_dtype(dtype)
    key = (id(plan), dtype.str)
    kernel = _KERNELS.get(key)
    if kernel is not None:
        return kernel
    try:
        kernel = load_kernel(build_kernel(plan, dtype), plan, dtype)
    except NativeBackendError as exc:
        if require:
            raise
        reason = str(exc)
        if reason not in _WARNED:
            _WARNED.add(reason)
            warnings.warn(
                "native inference backend unavailable, falling back to the "
                f"numpy plan backend: {reason}",
                RuntimeWarning,
                stacklevel=2,
            )
        return None
    _KERNELS[key] = kernel
    weakref.finalize(plan, _KERNELS.pop, key, None)
    return kernel


def clear_native_kernels() -> None:
    """Drop the in-process kernel memo and re-arm the one-time warnings.

    On-disk artifacts are untouched (they are content-addressed); this
    only forgets the loaded handles, so tests can exercise cold-load
    and fallback paths repeatedly.
    """
    _KERNELS.clear()
    _WARNED.clear()


def native_or_plan_log_likelihood(
    plan: InferencePlan,
    data: np.ndarray,
    *,
    marginalized: Optional[Sequence[int]] = None,
    missing_value: Optional[float] = None,
    dtype=np.float64,
    threads: Optional[int] = None,
) -> np.ndarray:
    """Native kernel when possible, numpy plan backend otherwise.

    The implicit path behind the process-wide ``backend="native"``
    switch: unavailability warns once per process (RuntimeWarning) and
    degrades to :func:`~repro.spn.plan_eval.plan_log_likelihood`, so
    compiler-less environments stay functional — a requested thread
    count (argument or ``REPRO_NATIVE_THREADS``) is still *validated*
    on the fallback path, then ignored by the numpy kernels.
    """
    nt = resolve_native_threads(threads)
    kernel = get_native_kernel(plan, dtype, require=False)
    if kernel is not None:
        return kernel.log_likelihood(
            data, marginalized=marginalized, missing_value=missing_value,
            threads=nt,
        )
    return plan_log_likelihood(
        plan,
        data,
        marginalized=marginalized,
        missing_value=missing_value,
        dtype=dtype,
    )


def _artifact_groups(cache: Path) -> Dict[str, List[Path]]:
    """Cache files grouped by artifact stem (.so + .c + stale tmps)."""
    groups: Dict[str, List[Path]] = {}
    for path in cache.iterdir():
        if not path.is_file():
            continue
        name = path.name
        if ".so.tmp." in name:
            stem = name.split(".so.tmp.", 1)[0]
        elif name.endswith(".so"):
            stem = name[:-3]
        elif name.endswith(".c"):
            stem = name[:-2]
        else:
            stem = name
        groups.setdefault(stem, []).append(path)
    return groups


def native_cache_stats() -> Dict[str, object]:
    """Size of the on-disk kernel cache: path, artifact count, bytes."""
    cache = native_cache_dir()
    groups = _artifact_groups(cache)
    total = sum(
        p.stat().st_size for files in groups.values() for p in files
    )
    return {
        "path": str(cache),
        "artifacts": len(groups),
        "bytes": int(total),
    }


def prune_native_cache(
    max_bytes: Optional[int] = None,
) -> Dict[str, int]:
    """Evict least-recently-used kernel artifacts down to *max_bytes*.

    The cache grows one artifact group (``.so`` + ``.c`` + any stale
    build temps) per (plan, dtype, codegen revision, ISA) key; this
    walks groups oldest-first by mtime — cache hits refresh
    mtime, so recency means *use*, not build time — and deletes whole
    groups until the directory fits the budget
    (default :data:`DEFAULT_CACHE_MAX_BYTES`).  Artifacts already
    dlopen-ed by a live process stay mapped and usable; the next cold
    process simply rebuilds.  Returns a report of removed/kept group
    and byte counts.
    """
    if max_bytes is None:
        max_bytes = DEFAULT_CACHE_MAX_BYTES
    max_bytes = max(0, int(max_bytes))
    cache = native_cache_dir()
    entries = []
    total = 0
    for stem, files in _artifact_groups(cache).items():
        stats = [p.stat() for p in files]
        size = sum(s.st_size for s in stats)
        mtime = max(s.st_mtime for s in stats)
        entries.append((mtime, stem, files, size))
        total += size
    entries.sort(key=lambda e: e[0])
    report = {
        "removed": 0,
        "removed_bytes": 0,
        "kept": len(entries),
        "kept_bytes": int(total),
    }
    for _mtime, _stem, files, size in entries:
        if report["kept_bytes"] <= max_bytes:
            break
        for path in files:
            path.unlink(missing_ok=True)
        report["removed"] += 1
        report["removed_bytes"] += int(size)
        report["kept"] -= 1
        report["kept_bytes"] -= int(size)
    return report
