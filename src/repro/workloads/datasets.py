"""Dataset utilities and accelerator sample encodings.

The accelerator consumes samples as packed single-byte feature vectors
and produces one IEEE-754 double (the log-likelihood) per sample — the
paper's NIPS10 example: "the input consists of 10 single-byte values.
The result is a single double-precision value", i.e. 144 bits in
flight per sample.  :func:`encode_samples`/:func:`decode_results`
implement exactly that wire format so the simulated device moves real
bytes, and byte counts in the performance models are grounded in the
same code the functional path uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ReproError

__all__ = [
    "Dataset",
    "encode_samples",
    "decode_results",
    "RESULT_BYTES",
]

#: Bytes per inference result (one IEEE-754 double log-likelihood).
RESULT_BYTES = 8


@dataclass(frozen=True)
class Dataset:
    """A named (rows, variables) data matrix with provenance metadata."""

    name: str
    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ReproError(f"dataset {self.name!r} must be 2-D, got {self.data.ndim}-D")

    @property
    def n_rows(self) -> int:
        """Number of samples."""
        return self.data.shape[0]

    @property
    def n_variables(self) -> int:
        """Number of feature columns."""
        return self.data.shape[1]

    @property
    def sample_bytes(self) -> int:
        """Input bytes per sample on the accelerator wire (1 B/feature)."""
        return self.n_variables

    @property
    def transfer_bits_per_sample(self) -> int:
        """Total bits moved per sample: input bytes plus the f64 result."""
        return 8 * (self.sample_bytes + RESULT_BYTES)


def encode_samples(data: np.ndarray) -> bytes:
    """Pack a ``(batch, n)`` count matrix into the device byte stream.

    Values must fit a single unsigned byte; rows are laid out
    back-to-back with no padding, matching the Load Unit's expectation
    of a dense linear read.
    """
    data = np.asarray(data)
    if data.ndim != 2:
        raise ReproError(f"encode_samples needs a 2-D array, got {data.ndim}-D")
    if np.any(data < 0) or np.any(data > 255):
        raise ReproError("sample features must fit a single byte (0..255)")
    if not np.allclose(data, np.rint(np.asarray(data, dtype=np.float64))):
        raise ReproError("sample features must be integral for byte encoding")
    return np.ascontiguousarray(data, dtype=np.uint8).tobytes()


def decode_results(payload: bytes, n_samples: Optional[int] = None) -> np.ndarray:
    """Unpack the device's result stream of float64 log-likelihoods."""
    if len(payload) % RESULT_BYTES:
        raise ReproError(
            f"result payload of {len(payload)} bytes is not a multiple of {RESULT_BYTES}"
        )
    out = np.frombuffer(payload, dtype=np.float64)
    if n_samples is not None and len(out) != n_samples:
        raise ReproError(f"expected {n_samples} results, got {len(out)}")
    return out
