"""Experiment harness: one module per paper table/figure.

Each module exposes a ``run_*`` function returning a structured result
object plus a ``format_*`` helper that renders the same rows/series
the paper reports.  The benchmark suite (``benchmarks/``) regenerates
every artifact through these entry points, and ``EXPERIMENTS.md``
records paper-vs-measured for each.

| Paper artifact | Module |
|----------------|--------|
| Fig. 2 (HBM channel throughput)        | :mod:`repro.experiments.fig2_hbm_channel` |
| Table I (resource utilisation)         | :mod:`repro.experiments.table1_resources` |
| Fig. 4 (PE scaling w/ and w/o PCIe)    | :mod:`repro.experiments.fig4_scaling` |
| Fig. 5 (HBM scaling potential)         | :mod:`repro.experiments.fig5_potential` |
| Fig. 6 (end-to-end platform compare)   | :mod:`repro.experiments.fig6_end_to_end` |
| §V-C PCIe outlook                      | :mod:`repro.experiments.pcie_outlook` |
| §V-D speedups + streaming perspective  | :mod:`repro.experiments.speedups` |

Beyond the paper's artifacts, :mod:`repro.experiments.plan_speedup`
measures the software-side compiled-plan vs graph-walk speedup on the
local machine, and :mod:`repro.experiments.utilization` runs one
instrumented simulation and reports per-channel/per-PE utilization
(``repro report``, see ``docs/observability.md``).
"""

from repro.experiments.reference import PAPER
from repro.experiments.reporting import format_table, format_series
from repro.experiments.fig2_hbm_channel import run_fig2, format_fig2
from repro.experiments.table1_resources import run_table1, format_table1
from repro.experiments.fig4_scaling import run_fig4, format_fig4
from repro.experiments.fig5_potential import run_fig5, format_fig5
from repro.experiments.fig6_end_to_end import run_fig6, format_fig6
from repro.experiments.pcie_outlook import run_outlook, format_outlook
from repro.experiments.speedups import geometric_mean, run_speedups, format_speedups
from repro.experiments.format_comparison import run_format_comparison, format_format_comparison
from repro.experiments.sensitivity import run_sensitivity, format_sensitivity
from repro.experiments.roofline import run_roofline, format_roofline
from repro.experiments.plan_speedup import run_plan_speedup, format_plan_speedup
from repro.experiments.sweep import parallel_map, shutdown_sweep_pool, sweep_worker_count
from repro.experiments.utilization import (
    TraceCapture,
    format_utilization,
    host_cpu_batch,
    run_host_utilization,
    run_utilization,
)
from repro.experiments.ablations import (
    run_block_size_ablation,
    run_thread_ablation,
    run_crossbar_ablation,
    format_ablation,
)

__all__ = [
    "PAPER",
    "format_table",
    "format_series",
    "run_fig2",
    "format_fig2",
    "run_table1",
    "format_table1",
    "run_fig4",
    "format_fig4",
    "run_fig5",
    "format_fig5",
    "run_fig6",
    "format_fig6",
    "run_outlook",
    "format_outlook",
    "geometric_mean",
    "run_speedups",
    "format_speedups",
    "run_format_comparison",
    "format_format_comparison",
    "run_block_size_ablation",
    "run_thread_ablation",
    "run_crossbar_ablation",
    "format_ablation",
    "run_sensitivity",
    "format_sensitivity",
    "run_roofline",
    "format_roofline",
    "run_plan_speedup",
    "format_plan_speedup",
    "TraceCapture",
    "run_utilization",
    "run_host_utilization",
    "host_cpu_batch",
    "format_utilization",
    "parallel_map",
    "sweep_worker_count",
    "shutdown_sweep_pool",
]
