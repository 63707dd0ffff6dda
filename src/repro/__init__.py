"""repro — HBM-accelerated Sum-Product Network inference, reproduced.

A full-system Python reproduction of *"Exploiting High-Bandwidth
Memory for FPGA-Acceleration of Inference on Sum-Product Networks"*
(Weber, Wirth, Sommer, Koch — IPDPS-W 2022): the SPN model class and
toolflow, the hardware datapath compiler with per-format operator
models, burst-granular HBM/DDR/PCIe simulation substrates, the
multi-core accelerator and its multi-threaded host runtime, the
baseline platform models, and an experiment harness regenerating every
table and figure of the paper's evaluation.

Quick start::

    import numpy as np
    from repro import (
        nips_benchmark, compile_core, compose_design,
        XUPVVH_HBM_PLATFORM, SimulatedDevice, InferenceRuntime,
    )

    bench = nips_benchmark("NIPS10")
    core = compile_core(bench.spn, "cfp")
    design = compose_design(core, 4, XUPVVH_HBM_PLATFORM)
    device = SimulatedDevice(design)
    runtime = InferenceRuntime(device)
    data = np.random.default_rng(0).integers(0, 30, (10_000, 10))
    log_likelihoods, stats = runtime.run(data.astype(np.uint8))

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
paper-vs-measured results.
"""

__version__ = "1.0.0"

# -- SPN core ---------------------------------------------------------------
from repro.spn import (
    SPN,
    CategoricalLeaf,
    GaussianLeaf,
    HistogramLeaf,
    LearnSPNConfig,
    NIPS_BENCHMARKS,
    ProductNode,
    SumNode,
    compute_stats,
    dumps,
    learn_spn,
    likelihood,
    loads,
    compile_plan,
    get_plan,
    log_likelihood,
    marginal_log_likelihood,
    nips_benchmark,
    nips_spn,
    random_spn,
    set_inference_backend,
)

# -- arithmetic formats -------------------------------------------------------
from repro.arith import (
    FLOAT32,
    FLOAT64,
    PAPER_CFP,
    PAPER_LNS,
    CustomFloat,
    LogNumberSystem,
    Posit,
    Rounding,
    compare_formats_on_spn,
    evaluate_spn_in_format,
)

# -- hardware compiler ----------------------------------------------------------
from repro.compiler import (
    AcceleratorDesign,
    CoreSpec,
    ResourceVector,
    build_datapath,
    compile_core,
    compose_design,
    schedule_datapath,
)

# -- platforms & memory -----------------------------------------------------------
from repro.platforms import (
    AWS_F1_PLATFORM,
    AWS_F1_SYSTEM,
    HBM_XUPVVH,
    PCIE_GEN3_X16,
    STREAMING_100G,
    TESLA_V100,
    XEON_E5_2680_V3,
    XUPVVH_HBM_PLATFORM,
)
from repro.mem import channel_throughput, run_channel_benchmark

# -- system simulation ---------------------------------------------------------------
from repro.host import (
    InferenceJobConfig,
    InferenceRuntime,
    RunStatistics,
    SimulatedDevice,
)

# -- baselines & workloads ---------------------------------------------------------
from repro.baselines import (
    ParallelPlanExecutor,
    run_cpu_baseline,
    run_sharded_cpu_baseline,
)
from repro.workloads import NipsCorpusConfig, synthesize_nips_corpus

__all__ = [
    "__version__",
    "SPN",
    "SumNode",
    "ProductNode",
    "HistogramLeaf",
    "GaussianLeaf",
    "CategoricalLeaf",
    "log_likelihood",
    "compile_plan",
    "get_plan",
    "set_inference_backend",
    "likelihood",
    "marginal_log_likelihood",
    "learn_spn",
    "LearnSPNConfig",
    "random_spn",
    "dumps",
    "loads",
    "compute_stats",
    "NIPS_BENCHMARKS",
    "nips_spn",
    "nips_benchmark",
    "CustomFloat",
    "Rounding",
    "LogNumberSystem",
    "Posit",
    "FLOAT32",
    "FLOAT64",
    "PAPER_CFP",
    "PAPER_LNS",
    "evaluate_spn_in_format",
    "compare_formats_on_spn",
    "build_datapath",
    "schedule_datapath",
    "compile_core",
    "compose_design",
    "CoreSpec",
    "AcceleratorDesign",
    "ResourceVector",
    "XUPVVH_HBM_PLATFORM",
    "AWS_F1_PLATFORM",
    "HBM_XUPVVH",
    "PCIE_GEN3_X16",
    "XEON_E5_2680_V3",
    "TESLA_V100",
    "AWS_F1_SYSTEM",
    "STREAMING_100G",
    "channel_throughput",
    "run_channel_benchmark",
    "SimulatedDevice",
    "InferenceRuntime",
    "InferenceJobConfig",
    "RunStatistics",
    "run_cpu_baseline",
    "run_sharded_cpu_baseline",
    "ParallelPlanExecutor",
    "NipsCorpusConfig",
    "synthesize_nips_corpus",
]
