"""Vectorised log-domain batch inference.

Inference on a valid SPN is one bottom-up pass: leaves evaluate their
log-density on their variable's column, product nodes add child
log-values, and sum nodes compute a log-sum-exp of weighted children.

Three backends implement the pass:

* **plan** (default) — a compiled, cached tensorized plan
  (:mod:`repro.spn.plan` / :mod:`repro.spn.plan_eval`): the SPN is
  flattened once into layered CSR buffers and fused leaf-table blocks,
  then a batch evaluates with a handful of layer-wide kernels
  instead of one numpy op per node.  Plans are cached per SPN and
  invalidated by content fingerprint on mutation.
* **native** — the plan additionally code-generated into one
  specialized C kernel and executed zero-copy
  (:mod:`repro.compiler.cgen` / :mod:`repro.compiler.native_build`).
  The kernel carries its own pthread block driver: set
  ``REPRO_NATIVE_THREADS`` (or pass ``threads=`` to
  ``NativeKernel.log_likelihood``) to run one call across that many
  cores in-process —
  results are bit-identical for every thread count, and invalid
  values raise :class:`~repro.errors.RuntimeConfigError` naming the
  source.  Selecting the backend process-wide is *graceful*:
  environments without a C compiler (or plans with generic leaves)
  warn once and evaluate through the plan backend — the requested
  thread count is still validated, then ignored — so the switch never
  breaks a host; explicit per-call APIs in
  :mod:`repro.compiler.native_build` raise instead.
  ``node_log_values`` always uses the plan path (the native kernel
  computes the root only).
* **reference** — the direct per-node graph walk
  (:func:`reference_node_log_values`), kept as the slow-path oracle
  the tests compare the plan against.

The backend is selected globally with :func:`set_inference_backend`,
or temporarily with the :func:`inference_backend` context manager.

Marginal queries (integrating out a subset of variables) follow the
standard SPN rule: a marginalised leaf evaluates to probability 1
(log 0.0), which a bottom-up pass then propagates.  Per-sample missing
features use the same rule elementwise.

All public functions accept data as a ``(batch, n_variables)`` float
array whose column *i* holds variable *i*.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ReproError, SPNStructureError
from repro.spn.graph import SPN
from repro.spn.nodes import LeafNode, ProductNode, SumNode
from repro.spn.plan import get_plan
from repro.spn.plan_eval import plan_log_likelihood, plan_node_log_values

__all__ = [
    "log_likelihood",
    "likelihood",
    "marginal_log_likelihood",
    "log_likelihood_with_missing",
    "MISSING_VALUE",
    "node_log_values",
    "reference_node_log_values",
    "set_inference_backend",
    "get_inference_backend",
    "inference_backend",
]

#: Sentinel feature value meaning "this feature is missing" in
#: :func:`log_likelihood_with_missing`.  The hardware flow reserves
#: the all-ones byte for it (255 is outside every benchmark's count
#: range), so missing-feature queries ship over the same wire format.
MISSING_VALUE = 255.0

_BACKENDS = ("plan", "native", "reference")
_backend = "plan"


def set_inference_backend(backend: str) -> None:
    """Select the process-wide inference backend.

    ``"plan"`` (default) routes every public query through the compiled
    tensorized plans; ``"native"`` additionally compiles each plan to
    a specialized C kernel (falling back to the plan backend, with one
    RuntimeWarning, where no C compiler exists); ``"reference"``
    restores the per-node graph walk (the validation oracle).  Mainly
    useful for tests and A/B timing; prefer the
    :func:`inference_backend` context manager in code that must restore
    the previous backend.
    """
    global _backend
    if backend not in _BACKENDS:
        raise ReproError(f"unknown inference backend {backend!r}; pick from {_BACKENDS}")
    _backend = backend


def get_inference_backend() -> str:
    """The currently selected inference backend name."""
    return _backend


@contextmanager
def inference_backend(backend: str):
    """Context manager scoping the process-wide backend selection.

    Selects *backend* on entry and restores the previously selected
    backend on exit — **including when the body raises**, and even when
    the body itself switched backends again — so tests and experiments
    cannot leak a backend switch into unrelated code::

        with inference_backend("native"):
            ll = log_likelihood(spn, batch)

    An invalid *backend* name raises before anything is switched, so
    the process-wide selection is untouched in that case too.
    """
    if backend not in _BACKENDS:
        raise ReproError(
            f"unknown inference backend {backend!r}; pick from {_BACKENDS}"
        )
    previous = get_inference_backend()
    set_inference_backend(backend)
    try:
        yield
    finally:
        set_inference_backend(previous)


def _root_log_likelihood(plan, data, **query):
    """Route a root-only query through the selected optimised backend.

    Under ``"native"`` this is the loud-but-graceful path: kernel when
    buildable, numpy plan backend (after a one-time warning) otherwise.
    """
    if _backend == "native":
        from repro.compiler.native_build import native_or_plan_log_likelihood

        return native_or_plan_log_likelihood(plan, data, **query)
    return plan_log_likelihood(plan, data, **query)


def _as_batch(data: np.ndarray, n_variables: int) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[np.newaxis, :]
    if data.ndim != 2:
        raise SPNStructureError(f"data must be 2-D (batch, vars), got ndim={data.ndim}")
    if data.shape[1] < n_variables:
        raise SPNStructureError(
            f"data has {data.shape[1]} columns but the SPN scope needs {n_variables}"
        )
    return data


def _logsumexp_weighted(child_lls: np.ndarray, log_weights: np.ndarray) -> np.ndarray:
    """Stable log(sum_i w_i * exp(ll_i)) along axis 1, the terms added
    in child order."""
    shifted = child_lls + log_weights[np.newaxis, :]
    peak = np.max(shifted, axis=1, keepdims=True)
    # A batch row where every child is -inf stays -inf (peak -inf).
    with np.errstate(invalid="ignore"):
        terms = np.exp(shifted - peak)
        out = peak[:, 0] + np.log(_add_in_order(terms.T))
    out = np.where(np.isneginf(peak[:, 0]), -np.inf, out)
    return out


def _add_in_order(rows) -> np.ndarray:
    """``rows[0] + rows[1] + ...``, one add at a time: numpy's
    reductions add in pairwise blocks, whose order depends on the
    shape."""
    total = np.array(rows[0], dtype=np.float64)
    for row in rows[1:]:
        total += row
    return total


def reference_node_log_values(
    spn: SPN,
    data: np.ndarray,
    marginalized: Optional[Sequence[int]] = None,
    missing_mask: Optional[np.ndarray] = None,
) -> Dict[int, np.ndarray]:
    """The single reference bottom-up traversal (slow-path oracle).

    This is the direct per-node graph walk every optimised backend is
    validated against.  It handles both query flavours in one pass:
    *marginalized* integrates out a variable subset for the whole
    batch, while *missing_mask* (a ``(batch, n_variables)`` boolean
    array) marginalises entries elementwise — per sample, per feature.
    Products and sums add their terms one at a time in child order, so
    answers do not depend on the batch width and the float64 plan
    evaluator (:mod:`repro.spn.plan_eval`) matches them bit for bit.

    Parameters
    ----------
    spn:
        The network to evaluate.
    data:
        ``(batch, n_variables)`` array; ``data[:, v]`` is variable *v*.
    marginalized:
        Variable indices to integrate out; their leaves contribute
        log 1 = 0.
    missing_mask:
        Boolean mask aligned with *data*; True entries are treated as
        missing (their leaf contributes log 1 for that sample only).

    Returns
    -------
    Mapping from node id to a ``(batch,)`` array of log-values.
    """
    # Leaves index columns by their variable id, so the data must span
    # the maximum variable index, not just len(scope).
    data = _as_batch(data, max(spn.scope) + 1 if spn.scope else 0)
    marg = frozenset(marginalized or ())
    unknown = marg - set(spn.scope)
    if unknown:
        raise SPNStructureError(f"marginalized variables {sorted(unknown)} not in scope")
    batch = data.shape[0]
    values: Dict[int, np.ndarray] = {}
    for node in spn:
        if isinstance(node, LeafNode):
            if node.variable in marg:
                values[node.id] = np.zeros(batch, dtype=np.float64)
                continue
            dens = node.log_density(data[:, node.variable])
            if missing_mask is not None:
                dens = np.where(missing_mask[:, node.variable], 0.0, dens)
            values[node.id] = dens
        elif isinstance(node, ProductNode):
            values[node.id] = _add_in_order([values[c.id] for c in node.children])
        elif isinstance(node, SumNode):
            child_lls = np.stack([values[c.id] for c in node.children], axis=1)
            values[node.id] = _logsumexp_weighted(child_lls, node.log_weights)
        else:  # pragma: no cover - graph validation rules this out
            raise SPNStructureError(f"unknown node type {type(node).__name__}")
    return values


def node_log_values(
    spn: SPN,
    data: np.ndarray,
    marginalized: Optional[Sequence[int]] = None,
) -> Dict[int, np.ndarray]:
    """Bottom-up pass returning the log-value of *every* node.

    Used by inference, by the hardware functional model (which compares
    per-node values between float64 and the emulated FPGA arithmetic),
    and by tests.  Evaluates through the compiled-plan backend by
    default (scattering the plan's value matrix back into the dict
    contract); :func:`set_inference_backend` selects the reference
    graph walk instead.  The ``"native"`` backend also takes the plan
    path here — its C kernels compute the root only.

    Parameters
    ----------
    spn:
        The network to evaluate.
    data:
        ``(batch, n_variables)`` array; ``data[:, v]`` is variable *v*.
    marginalized:
        Variable indices to integrate out; their leaves contribute
        log 1 = 0.

    Returns
    -------
    Mapping from node id to a ``(batch,)`` array of log-values.
    """
    if _backend == "reference":
        return reference_node_log_values(spn, data, marginalized)
    return plan_node_log_values(get_plan(spn), data, marginalized=marginalized)


def log_likelihood(spn: SPN, data: np.ndarray) -> np.ndarray:
    """Joint log-likelihood of each batch row under the SPN."""
    if _backend == "reference":
        return reference_node_log_values(spn, data)[spn.root.id]
    return _root_log_likelihood(get_plan(spn), data)


def likelihood(spn: SPN, data: np.ndarray) -> np.ndarray:
    """Joint likelihood (linear domain) of each batch row."""
    return np.exp(log_likelihood(spn, data))


def marginal_log_likelihood(
    spn: SPN, data: np.ndarray, marginalized: Sequence[int]
) -> np.ndarray:
    """Log-likelihood with *marginalized* variables integrated out.

    This is the tractable-marginal property that motivates SPNs: the
    query costs exactly one bottom-up pass regardless of which subset is
    marginalised.
    """
    if _backend == "reference":
        return reference_node_log_values(spn, data, marginalized)[spn.root.id]
    return _root_log_likelihood(get_plan(spn), data, marginalized=marginalized)


def log_likelihood_with_missing(
    spn: SPN, data: np.ndarray, *, missing_value: float = MISSING_VALUE
) -> np.ndarray:
    """Log-likelihood with **per-sample** missing features.

    Entries equal to *missing_value* are marginalised individually —
    different rows may miss different features, which is the
    "uncertainties like missing features" capability the paper's
    background attributes to SPNs (§II-A).  Unlike
    :func:`marginal_log_likelihood` (one variable subset for the whole
    batch), the mask here is elementwise; the cost is still a single
    vectorised bottom-up pass.
    """
    if _backend == "reference":
        data = _as_batch(np.asarray(data, dtype=np.float64), max(spn.scope) + 1)
        missing = data == missing_value
        return reference_node_log_values(spn, data, missing_mask=missing)[spn.root.id]
    return _root_log_likelihood(
        get_plan(spn), data, missing_value=float(missing_value)
    )
