"""Experiment harness: regenerates every table and figure of the paper.

One ``run_*`` function per experiment (``repro experiment --help`` lists
them by table/figure id); each returns a :class:`ExperimentResult`
holding structured rows plus a rendered ASCII table.  The benchmark suite
under ``benchmarks/`` is a thin wrapper that calls these and records
timings; the functions are equally usable from a REPL.
"""

from repro.harness.workloads import (
    WORKLOADS,
    Workload,
    prepared_case,
    standard_config,
)
from repro.harness.results import ExperimentResult, results_dir, save_result
from repro.harness.ablations import (
    run_ablation_contributions,
    run_ablation_partition_method,
    run_ablation_solver,
    run_footnote1_sizes,
)
from repro.harness.experiments import (
    run_fig02_pair_imbalance,
    run_fig03_central_compute_share,
    run_fig09_convergence,
    run_fig10_time_breakdown,
    run_fig11_sensitivity,
    run_main_results,
    run_table1_comm_overhead,
    run_table2_overlap_headroom,
    run_table3_datasets,
    run_table4_main,
    run_table5_wallclock,
    run_table6_uniform_vs_adaptive,
    run_table7_scalability,
    run_table8_configs,
)

__all__ = [
    "Workload",
    "WORKLOADS",
    "standard_config",
    "prepared_case",
    "ExperimentResult",
    "results_dir",
    "save_result",
    "run_table1_comm_overhead",
    "run_fig02_pair_imbalance",
    "run_table2_overlap_headroom",
    "run_fig03_central_compute_share",
    "run_table3_datasets",
    "run_main_results",
    "run_table4_main",
    "run_table5_wallclock",
    "run_table6_uniform_vs_adaptive",
    "run_table7_scalability",
    "run_table8_configs",
    "run_fig09_convergence",
    "run_fig10_time_breakdown",
    "run_fig11_sensitivity",
    "run_ablation_contributions",
    "run_ablation_partition_method",
    "run_ablation_solver",
    "run_footnote1_sizes",
]
