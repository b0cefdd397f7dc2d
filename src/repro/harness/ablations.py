"""Ablation experiments for the repository's own design choices.

These go beyond the paper's own tables: they isolate AdaQP's two
contributions (quantization vs parallelization), quantify how partition
quality (paper Sec. 4.1, factor (i)) drives communication, compare the
exact sweep against the MILP oracle and the greedy assignment solver, and
reproduce the paper's footnote-1 size argument for compressing messages
rather than gradients.
"""

from __future__ import annotations

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import ExactHaloExchange, FusedQuantizedHaloExchange
from repro.cluster.memory import estimate_memory
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.core.bilp import SOLVERS
from repro.core.trainer import train
from repro.graph.datasets import load_dataset
from repro.graph.partition.api import partition_graph
from repro.graph.partition.quality import balance, edge_cut, remote_neighbor_ratio
from repro.harness.experiments import _cached_run
from repro.harness.results import ExperimentResult
from repro.harness.workloads import prepared_case, standard_config
from repro.quant.stochastic import KeyedRounding

__all__ = [
    "run_ablation_contributions",
    "run_ablation_partition_method",
    "run_ablation_solver",
    "run_footnote1_sizes",
]


def run_ablation_contributions(*, seed: int = 0, epochs: int | None = None) -> ExperimentResult:
    """Quantization-only and overlap-only systems vs Vanilla and full AdaQP.

    The paper presents the two techniques jointly; this ablation shows how
    much each contributes on its own.  Expected shape: overlap alone is
    bounded by the central-compute share (small), quantization alone
    captures most of the win, and the combination is fastest.
    """
    rows = []
    speedups = {}
    dataset, setting, model = "ogbn-products", "2M-4D", "gcn"
    base = _cached_run("vanilla", dataset, setting, model, seed=seed, epochs=epochs)
    for system, label in [
        ("vanilla", "Vanilla (neither)"),
        ("vanilla-overlap", "+ overlap only"),
        ("adaqp-no-overlap", "+ quantization only"),
        ("adaqp", "AdaQP (both)"),
    ]:
        res = _cached_run(system, dataset, setting, model, seed=seed, epochs=epochs)
        speedups[system] = res.throughput / base.throughput
        rows.append(
            [
                label,
                f"{res.throughput:.2f}",
                f"{speedups[system]:.2f}x",
                f"{100 * res.final_val:.2f}",
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_contributions",
        title="Ablation: AdaQP's two techniques in isolation (ogbn-products, 2M-4D, GCN)",
        headers=["System", "Throughput (ep/s)", "Speedup", "Accuracy (%)"],
        rows=rows,
        notes={k: round(v, 3) for k, v in speedups.items()},
    )


def run_ablation_partition_method(*, seed: int = 0, epochs: int = 12) -> ExperimentResult:
    """Partition quality drives communication (paper Sec. 4.1 factor (i)).

    Trains Vanilla and AdaQP on METIS-like / spectral / BFS / random
    partitions of the same graph and reports cut, remote-neighbor ratio,
    Vanilla comm share and AdaQP speedup.
    """
    dataset_name, setting, model = "ogbn-products", "2M-2D", "gcn"
    ds = load_dataset(dataset_name, scale="tiny", seed=seed)
    topology = parse_topology(setting)
    rows = []
    cut_by_method = {}
    for method in ("metis", "spectral", "bfs", "random"):
        book = partition_graph(ds.graph, topology.num_devices, method=method, seed=seed)
        cfg = standard_config(dataset_name, model, epochs=epochs, seed=seed)
        vanilla = train("vanilla", ds, book, topology, cfg)
        adaqp = train("adaqp", ds, book, topology, cfg)
        cut = edge_cut(ds.graph, book)
        cut_by_method[method] = cut
        bd = vanilla.breakdown()
        comm_share = bd["comm"] / (bd["comm"] + bd["comp"])
        rows.append(
            [
                method,
                f"{100 * cut / ds.graph.num_edges:.1f}%",
                f"{balance(book):.3f}",
                f"{100 * remote_neighbor_ratio(ds.graph, book):.1f}%",
                f"{100 * comm_share:.1f}%",
                f"{adaqp.throughput / vanilla.throughput:.2f}x",
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_partition",
        title="Ablation: partition method vs communication (ogbn-products, 2M-2D, GCN)",
        headers=["Method", "Edge cut", "Balance", "Remote-neighbor ratio",
                 "Vanilla comm share", "AdaQP speedup"],
        rows=rows,
        notes={"cut_by_method": {k: int(v) for k, v in cut_by_method.items()}},
    )


def _objective_gaps(dataset: str, setting: str, model: str, seed: int) -> dict[str, float]:
    """Each solver's worst Eqn. 12 objective minus the exact sweep's, over
    the problems one traced epoch of the standard configuration poses."""
    ds, book, topology = prepared_case(dataset, setting, seed)
    cfg = standard_config(dataset, model, seed=seed)
    cluster = Cluster(ds, book, model_kind=model, hidden_dim=cfg.hidden_dim,
                      num_layers=cfg.num_layers, dropout=cfg.dropout, seed=seed)
    assigner = AdaptiveBitWidthAssigner(
        cluster, LinkCostModel.for_topology(topology), lam=cfg.lam,
        group_size=cfg.group_size, bit_choices=cfg.bit_choices,
        period=1,  # every epoch is the last of its period, so epoch 0 is traced
    )
    try:
        cluster.train_epoch(
            FusedQuantizedHaloExchange(assigner, KeyedRounding(seed), tracer=assigner), 0
        )
    finally:
        cluster.close()
    gaps = dict.fromkeys(SOLVERS, 0.0)
    for _, _, problem, _ in assigner.problems():
        values = {name: problem.scalarized(solve(problem)) for name, solve in SOLVERS.items()}
        for name, value in values.items():
            gaps[name] = max(gaps[name], value - values["exact"])
    return gaps


def run_ablation_solver(*, seed: int = 0, epochs: int | None = None) -> ExperimentResult:
    """The exact sweep (default) vs the MILP oracle (HiGHS, the GUROBI
    stand-in) vs the greedy solver: end-to-end runs, plus every solver's
    objective gap to the sweep on one epoch's identical problems."""
    dataset, setting, model = "ogbn-products", "2M-2D", "gcn"
    gaps = _objective_gaps(dataset, setting, model, seed)
    rows = []
    finals = {}
    for solver in SOLVERS:
        res = _cached_run(
            "adaqp", dataset, setting, model, seed=seed, epochs=epochs, solver=solver
        )
        finals[solver] = res.final_val
        rows.append(
            [
                solver,
                f"{100 * res.final_val:.2f}",
                f"{res.throughput:.2f}",
                f"{res.assign_seconds:.3f}",
                f"{gaps[solver]:.2e}",
            ]
        )
    return ExperimentResult(
        experiment_id="ablation_solver",
        title="Ablation: bit-width assignment solver (ogbn-products, 2M-2D, GCN)",
        headers=["Solver", "Accuracy (%)", "Throughput (ep/s)", "Assign overhead (s)",
                 "Objective gap"],
        rows=rows,
        notes={
            "accuracy_gap": max(finals.values()) - min(finals.values()),
            "objective_gap": gaps,
        },
    )


def run_footnote1_sizes(*, seed: int = 0) -> ExperimentResult:
    """Paper footnote 1: model gradients are tiny next to messages.

    This is the argument for compressing messages rather than gradients —
    the opposite of the distributed-DNN literature's focus.
    """
    ds, book, topology = prepared_case("ogbn-products", "2M-2D", seed)
    cluster = Cluster(ds, book, model_kind="gcn", hidden_dim=32, num_layers=3,
                      dropout=0.0, seed=seed)
    record = cluster.train_epoch(ExactHaloExchange(), 0)
    footprints = estimate_memory(cluster)
    wire_per_epoch = record.total_wire_bytes()
    grad_bytes = record.grad_allreduce_bytes
    rows = []
    for fp in footprints:
        rows.append(
            [
                f"device{fp.device}",
                f"{fp.feature_bytes / 1e6:.2f}",
                f"{fp.activation_bytes / 1e6:.2f}",
                f"{fp.halo_buffer_bytes / 1e6:.2f}",
                f"{fp.model_grad_bytes / 1e6:.3f}",
            ]
        )
    ratio = wire_per_epoch / max(grad_bytes, 1)
    rows.append(
        ["epoch totals", "-", "-", f"{wire_per_epoch / 1e6:.2f} (wire)",
         f"{grad_bytes / 1e6:.3f} (allreduce)"]
    )
    return ExperimentResult(
        experiment_id="footnote1_sizes",
        title="Footnote 1: message vs model-gradient volumes (MB; ogbn-products, 2M-2D, GCN)",
        headers=["Device", "Features", "Activations", "Halo/messages", "Model grads"],
        rows=rows,
        notes={"wire_to_gradient_ratio": round(float(ratio), 1)},
    )
