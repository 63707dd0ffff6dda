"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated Python
errors.  Sub-hierarchies mirror the package layout: SPN structure errors,
arithmetic-format configuration errors, compiler/fitting errors, memory
model errors and host-runtime errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SPNStructureError(ReproError):
    """An SPN graph violates a structural requirement.

    Raised when a graph is not a DAG, references unknown children, or
    violates completeness/decomposability/smoothness where those are
    required (e.g. before hardware generation).
    """


class SPNFormatError(ReproError):
    """The SPFlow-compatible textual SPN description cannot be parsed."""


class ArithmeticConfigError(ReproError):
    """An arithmetic number-format configuration is invalid.

    Examples: zero mantissa bits, unknown rounding mode, posit *es*
    larger than the word allows.
    """


class CompilerError(ReproError):
    """The hardware compiler cannot translate or schedule an SPN."""


class NativeBackendError(CompilerError):
    """The native (compiled-C) inference backend is unavailable or failed.

    Raised on explicit ``backend="native"`` requests when no C compiler
    is present, when a plan contains leaves the code generator cannot
    compile (generic leaf blocks), or when a kernel build fails.
    Implicit use through the process-wide backend switch degrades to the
    numpy plan backend with a warning instead of raising.
    """


class ResourceFitError(CompilerError):
    """A composed design does not fit the target device's resources."""


class MemoryModelError(ReproError):
    """A memory-substrate model was used inconsistently.

    Examples: an access outside a channel's backing store, a
    non-positive HBM transfer size, freeing an unallocated device buffer.
    """


class AllocationError(MemoryModelError):
    """The device memory manager cannot satisfy an allocation request."""


class SimulationError(ReproError):
    """The discrete-event engine detected an inconsistency.

    Examples: scheduling an event in the past, a process yielding an
    unknown command, deadlock detection on bounded channels.
    """


class ServingError(ReproError):
    """The online serving layer was used or configured inconsistently.

    Examples: submitting to a closed broker, a request row of the
    wrong width, a non-positive latency budget.
    """


class ServingOverloadError(ServingError):
    """A request was shed by the broker's admission control.

    Raised when accepting the request would push the number of queued
    rows past ``max_queue_rows``.  Shedding at the door bounds the
    latency of every *admitted* request; callers are expected to treat
    this as back-pressure (retry later, or report the rejection), and
    the broker counts every occurrence in ``serving.rejected``.
    """


class RuntimeConfigError(ReproError):
    """The host runtime was configured inconsistently.

    Examples: more accelerators requested than PEs present, a block size
    that does not hold a single sample, zero control threads.
    """
