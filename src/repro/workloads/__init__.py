"""Workload generation: datasets and inference batches.

The paper evaluates on SPNs learned from the UCI "Bag of Words" NIPS
corpus, restricted to the 10..80 most frequent words (NIPS10..NIPS80).
The corpus itself is not redistributable/downloadable here, so
:mod:`repro.workloads.nips_corpus` synthesises a statistically similar
stand-in: per-document word counts with Zipfian marginals and
topic-induced correlations (see DESIGN.md §2 for the substitution
argument).  :mod:`repro.workloads.datasets` provides generic dataset
utilities and the byte-exact sample encodings the accelerator consumes.
"""

from repro.workloads.nips_corpus import NipsCorpusConfig, synthesize_nips_corpus
from repro.workloads.datasets import (
    Dataset,
    encode_samples,
    decode_results,
)

__all__ = [
    "NipsCorpusConfig",
    "synthesize_nips_corpus",
    "Dataset",
    "encode_samples",
    "decode_results",
]
