"""Sum-Product Network core library.

Implements the model class the paper accelerates: *Mixed* Sum-Product
Networks (Molina et al., AAAI 2018) whose leaves are univariate
histograms, plus Gaussian and categorical leaves for generality.

The package provides:

* node types and a validated graph container (:mod:`repro.spn.nodes`,
  :mod:`repro.spn.graph`),
* vectorised log-domain batch inference and marginal queries
  (:mod:`repro.spn.inference`), compiled by default into cached
  tensorized plans (:mod:`repro.spn.plan`, :mod:`repro.spn.plan_eval`),
* an SPFlow-compatible textual serialisation (:mod:`repro.spn.text_format`),
* LearnSPN-style structure learning over histogram leaves
  (:mod:`repro.spn.learning`),
* random structure generation (:mod:`repro.spn.random_gen`),
* the deterministic NIPS10..NIPS80 benchmark networks used throughout
  the paper's evaluation (:mod:`repro.spn.nips`), and
* structural statistics consumed by the hardware compiler
  (:mod:`repro.spn.stats`).
"""

from repro.spn.nodes import (
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    Node,
    ProductNode,
    SumNode,
)
from repro.spn.graph import SPN
from repro.spn.inference import (
    MISSING_VALUE,
    get_inference_backend,
    inference_backend,
    likelihood,
    log_likelihood,
    log_likelihood_with_missing,
    marginal_log_likelihood,
    node_log_values,
    reference_node_log_values,
    set_inference_backend,
)
from repro.spn.plan import (
    InferencePlan,
    clear_plan_cache,
    compile_plan,
    get_plan,
    plan_cache_info,
)
from repro.spn.plan_eval import evaluate_plan, plan_log_likelihood
from repro.spn.text_format import dumps, loads, dump, load
from repro.spn.learning import LearnSPNConfig, learn_spn
from repro.spn.random_gen import random_spn
from repro.spn.nips import NIPS_BENCHMARKS, nips_spn, nips_benchmark
from repro.spn.stats import SPNStats, compute_stats
from repro.spn.sampling import sample
from repro.spn.queries import RangeBox, expectation, probability_of_box
from repro.spn.transform import contract, prune

__all__ = [
    "Node",
    "SumNode",
    "ProductNode",
    "HistogramLeaf",
    "GaussianLeaf",
    "CategoricalLeaf",
    "SPN",
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
    "InferencePlan",
    "compile_plan",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_info",
    "evaluate_plan",
    "plan_log_likelihood",
    "dumps",
    "loads",
    "dump",
    "load",
    "LearnSPNConfig",
    "learn_spn",
    "random_spn",
    "NIPS_BENCHMARKS",
    "nips_spn",
    "nips_benchmark",
    "SPNStats",
    "compute_stats",
    "sample",
    "RangeBox",
    "probability_of_box",
    "expectation",
    "prune",
    "contract",
]
