"""Regeneration of every table and figure in the paper's evaluation.

Each ``run_*`` function is self-contained and returns an
:class:`~repro.harness.results.ExperimentResult`.  Training runs are
memoized per process (`_cached_run`), so Table 4, Table 5, Fig. 9 and
Fig. 10 — which all view the same underlying runs — cost one training run
each, exactly as in the paper's evaluation.

Conventions shared with the paper:

* "accuracy" means micro-F1 on the multi-label datasets;
* PipeGCN results exist only for GraphSAGE and SANCUS only for GCN (the
  original systems implement only those models); missing combinations are
  rendered as ``†`` like the paper's Table 4;
* throughput is epochs/second, with the speedup over Vanilla in
  parentheses.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
)
from repro.cluster.perfmodel import PerfModel
from repro.comm.costmodel import LinkCostModel
from repro.core.scheduler import device_comm_times, device_compute_times
from repro.core.trainer import TrainResult, train
from repro.graph.datasets import DATASET_CATALOG, load_dataset
from repro.graph.partition.quality import remote_neighbor_ratio
from repro.harness.results import ExperimentResult
from repro.harness.workloads import WORKLOADS, prepared_case, standard_config
from repro.quant.stochastic import KeyedRounding

__all__ = [
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
]

# The paper's system/model support matrix (Table 4's daggers).
_MODEL_SUPPORT = {
    "vanilla": ("gcn", "sage"),
    "adaqp": ("gcn", "sage"),
    "adaqp-uniform": ("gcn", "sage"),
    "adaqp-fixed": ("gcn", "sage"),
    "pipegcn": ("sage",),
    "sancus": ("gcn",),
}

_RUN_CACHE: dict[tuple, TrainResult] = {}


def _cached_run(
    system: str,
    dataset: str,
    setting: str,
    model_kind: str,
    *,
    seed: int = 0,
    epochs: int | None = None,
    **overrides,
) -> TrainResult:
    key = (system, dataset, setting, model_kind, seed, epochs, tuple(sorted(overrides.items())))
    if key not in _RUN_CACHE:
        ds, book, topology = prepared_case(dataset, setting, seed)
        cfg = standard_config(dataset, model_kind, epochs=epochs, seed=seed, **overrides)
        _RUN_CACHE[key] = train(system, ds, book, topology, cfg)
    return _RUN_CACHE[key]


# ---------------------------------------------------------------------------
# Table 1 — communication overhead of Vanilla
# ---------------------------------------------------------------------------
def run_table1_comm_overhead(*, seed: int = 0, epochs: int = 3) -> ExperimentResult:
    """Communication cost %% of epoch time and remote-neighbor ratio."""
    rows = []
    for name, wl in WORKLOADS.items():
        for setting in wl.settings:
            ds, book, topology = prepared_case(name, setting, seed)
            result = _cached_run("vanilla", name, setting, "gcn", seed=seed, epochs=epochs)
            comm = result.comm_time_total
            total = comm + result.comp_time_total
            rnr = remote_neighbor_ratio(ds.graph, book)
            rows.append(
                [
                    ds.spec.paper_name,
                    setting,
                    f"{100.0 * comm / total:.2f}%",
                    f"{100.0 * rnr:.2f}%",
                ]
            )
    return ExperimentResult(
        experiment_id="table1",
        title="Table 1: communication overhead in Vanilla",
        headers=["Dataset", "Partition Setting", "Communication Cost", "Remote Neighbor Ratio"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Fig. 2 — per-device-pair data-size imbalance
# ---------------------------------------------------------------------------
def run_fig02_pair_imbalance(*, seed: int = 0) -> ExperimentResult:
    """Bytes each device pair moves in GCN layer 1's forward pass."""
    ds, book, topology = prepared_case("amazonproducts", "2M-2D", seed)
    cluster = Cluster(ds, book, model_kind="gcn", hidden_dim=32, num_layers=3, dropout=0.0, seed=seed)
    record = cluster.train_epoch(ExactHaloExchange(), epoch=0)
    layer1_fwd = record.phases[0].bytes_matrix
    rows = []
    sizes = []
    n = book.num_parts
    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            mb = layer1_fwd[s, d] / 1e6
            sizes.append(mb)
            rows.append([f"{s}_{d}", f"{mb:.3f}"])
    imbalance = max(sizes) / max(min(sizes), 1e-12)
    return ExperimentResult(
        experiment_id="fig02",
        title="Fig. 2: data size per device pair (GCN layer 1 fwd, AmazonProducts, 4 partitions)",
        headers=["Device Pair", "Data size (MB)"],
        rows=rows,
        notes={"max_over_min": round(imbalance, 2)},
    )


# ---------------------------------------------------------------------------
# Table 2 — 2-bit marginal comm time vs central comp time per device
# ---------------------------------------------------------------------------
def _measured_overlap_notes(record) -> dict | None:
    """Cross-check payload from the executor's measured timeline summary.

    ``None`` when the epoch ran without the pipelined executor (the
    analytic per-device accounting is then the only source).
    """
    summary = record.timeline_summary
    if not summary.steps:
        return None
    return {
        "hidden_byte_fraction": summary.hidden_byte_fraction,
        "central_share": summary.central_share,
        "central_ms": summary.central_s * 1e3,
        "marginal_ms": summary.marginal_s * 1e3,
    }


def run_table2_overlap_headroom(
    *, seed: int = 0, overlap: bool = True
) -> ExperimentResult:
    """Central computation hides inside even 2-bit quantized communication.

    The per-device comm/comp columns are modelled (the simulator's link
    and device models); with ``overlap`` the epoch's central windows are
    also accounted, so ``notes["measured"]`` carries the real interleave —
    model and measurement cross-checked on one record.  The measured
    window holds every row's own-column aggregation, a superset of the
    paper's central work, which the model keeps pricing.
    """
    ds, book, topology = prepared_case("ogbn-products", "2M-4D", seed)
    cost = LinkCostModel.for_topology(topology)
    perf = PerfModel()
    cluster = Cluster(
        ds, book, model_kind="gcn", hidden_dim=32, num_layers=3, dropout=0.0,
        seed=seed, overlap=overlap,
    )
    exchange = FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(seed))
    record = cluster.train_epoch(exchange, epoch=0)
    comm = device_comm_times(record, cost)
    comp = device_compute_times(record, perf, central_only=True)
    rows = [
        [f"Device{d}", f"{comm[d] * 1e3:.2f} ms", f"{comp[d] * 1e3:.2f} ms"]
        for d in range(book.num_parts)
    ]
    return ExperimentResult(
        experiment_id="table2",
        title="Table 2: 2-bit marginal comm vs central comp (ogbn-products, 8 partitions)",
        headers=["Device", "comm.", "Comp. (central)"],
        rows=rows,
        notes={
            "comm_exceeds_comp_on_all_devices": bool((comm > comp).all()),
            "measured": _measured_overlap_notes(record),
        },
    )


# ---------------------------------------------------------------------------
# Fig. 3 — marginal vs all-node computation time
# ---------------------------------------------------------------------------
def run_fig03_central_compute_share(
    *, seed: int = 0, overlap: bool = True
) -> ExperimentResult:
    """Computation reduction when central-node work is hidden (paper: 23-55%).

    Per-device shares come from the analytic FLOP split; with ``overlap``
    the same epoch's central windows are accounted, so
    ``notes["measured"]`` reports the wall-clock share of the executed
    window — every row's own-column aggregation, a superset of the paper's
    central rows — for cross-checking (that superset and BLAS
    non-linearity make it deviate from the FLOP share, but it must stay
    inside the same qualitative band).
    """
    ds, book, topology = prepared_case("ogbn-products", "2M-4D", seed)
    perf = PerfModel()
    cluster = Cluster(
        ds, book, model_kind="gcn", hidden_dim=32, num_layers=3, dropout=0.0,
        seed=seed, overlap=overlap,
    )
    record = cluster.train_epoch(ExactHaloExchange(), epoch=0)
    all_nodes = device_compute_times(record, perf)
    central = device_compute_times(record, perf, central_only=True)
    marginal = all_nodes - central
    rows = []
    for d in range(book.num_parts):
        part = cluster.devices[d].part
        rows.append(
            [
                f"device{d}",
                f"{100.0 * marginal[d] / all_nodes[d]:.1f}%",
                f"{100.0 * central[d] / all_nodes[d]:.1f}%",
                f"{100.0 * part.n_marginal / part.n_owned:.1f}%",
            ]
        )
    return ExperimentResult(
        experiment_id="fig03",
        title="Fig. 3: marginal vs all-node computation time (ogbn-products, 8 partitions)",
        headers=["Device", "Marginal comp. share", "Hidden (central) share", "Marginal node share"],
        rows=rows,
        series={
            "reduction_pct": [
                float(100.0 * central[d] / all_nodes[d]) for d in range(book.num_parts)
            ]
        },
        notes={"measured": _measured_overlap_notes(record)},
    )


# ---------------------------------------------------------------------------
# Table 3 — dataset catalog
# ---------------------------------------------------------------------------
def run_table3_datasets(*, scale: str = "tiny", seed: int = 0) -> ExperimentResult:
    rows = []
    for name in sorted(DATASET_CATALOG[scale]):
        ds = load_dataset(name, scale=scale, seed=seed)
        spec = ds.spec
        rows.append(
            [
                spec.paper_name,
                ds.num_nodes,
                ds.graph.num_edges,
                ds.num_features,
                ds.num_classes,
                spec.task,
            ]
        )
    return ExperimentResult(
        experiment_id="table3",
        title=f"Table 3: graph datasets (synthetic stand-ins, scale={scale})",
        headers=["Dataset", "#Nodes", "#Edges", "#Features", "#Classes", "Task"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Tables 4/5 + Fig. 9/12 share the main-results runs
# ---------------------------------------------------------------------------
def run_main_results(
    *,
    datasets: tuple[str, ...] = ("reddit", "yelp", "ogbn-products", "amazonproducts"),
    models: tuple[str, ...] = ("gcn", "sage"),
    systems: tuple[str, ...] = ("vanilla", "pipegcn", "sancus", "adaqp"),
    seed: int = 0,
    epochs: int | None = None,
) -> dict[tuple[str, str, str, str], TrainResult]:
    """All Table 4 runs: {(dataset, setting, model, system): result}."""
    results: dict[tuple[str, str, str, str], TrainResult] = {}
    for name in datasets:
        for setting in WORKLOADS[name].settings:
            for model in models:
                for system in systems:
                    if model not in _MODEL_SUPPORT[system]:
                        continue
                    results[(name, setting, model, system)] = _cached_run(
                        system, name, setting, model, seed=seed, epochs=epochs
                    )
    return results


def run_table4_main(**kwargs) -> ExperimentResult:
    """Accuracy and throughput of all systems (the paper's headline table)."""
    results = run_main_results(**kwargs)
    rows = []
    cases = sorted({(d, s, m) for d, s, m, _ in results})
    for dataset, setting, model in cases:
        vanilla = results.get((dataset, setting, model, "vanilla"))
        base_thr = vanilla.throughput if vanilla else float("nan")
        for system in ("vanilla", "pipegcn", "sancus", "adaqp"):
            res = results.get((dataset, setting, model, system))
            if res is None:
                if system in ("pipegcn", "sancus"):
                    rows.append([dataset, setting, model, system, "†", "†"])
                continue
            speed = (
                f"{res.throughput:.2f}"
                if system == "vanilla"
                else f"{res.throughput:.2f} ({res.throughput / base_thr:.2f}x)"
            )
            rows.append(
                [dataset, setting, model, system, f"{100 * res.final_val:.2f}", speed]
            )
    return ExperimentResult(
        experiment_id="table4",
        title="Table 4: accuracy (%) and throughput (epoch/s) across systems",
        headers=["Dataset", "Partitions", "Model", "Method", "Accuracy(%)", "Throughput (epoch/s)"],
        rows=rows,
    )


def run_table5_wallclock(**kwargs) -> ExperimentResult:
    """Wall-clock training time (AdaQP includes measured assignment time)."""
    results = run_main_results(**kwargs)
    rows = []
    cases = sorted({(d, s, m) for d, s, m, _ in results})
    for dataset, setting, model in cases:
        for system in ("vanilla", "pipegcn", "sancus", "adaqp"):
            res = results.get((dataset, setting, model, system))
            if res is None:
                if system in ("pipegcn", "sancus"):
                    rows.append([dataset, setting, model, system, "†"])
                continue
            rows.append(
                [dataset, setting, model, system, f"{res.total_wallclock:.3f} s"]
            )
    return ExperimentResult(
        experiment_id="table5",
        title="Table 5/9: wall-clock time (simulated train + measured assignment)",
        headers=["Dataset", "Partitions", "Model", "Method", "Wall-clock Time"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 6 — uniform vs adaptive bit-width
# ---------------------------------------------------------------------------
def run_table6_uniform_vs_adaptive(*, seed: int = 0, epochs: int | None = None) -> ExperimentResult:
    rows = []
    for setting in WORKLOADS["ogbn-products"].settings:
        for model in ("gcn", "sage"):
            uniform = _cached_run(
                "adaqp-uniform", "ogbn-products", setting, model, seed=seed, epochs=epochs
            )
            adaptive = _cached_run(
                "adaqp", "ogbn-products", setting, model, seed=seed, epochs=epochs
            )
            rows.append(
                [setting, model, "Uniform", f"{100 * uniform.final_val:.2f}", f"{uniform.throughput:.2f}"]
            )
            rows.append(
                [setting, model, "Adaptive", f"{100 * adaptive.final_val:.2f}", f"{adaptive.throughput:.2f}"]
            )
    return ExperimentResult(
        experiment_id="table6",
        title="Table 6: uniform bit-width sampling vs adaptive assignment (ogbn-products)",
        headers=["Partitions", "Model", "Method", "Accuracy (%)", "Throughput (epoch/s)"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 7 — scalability (6M-4D = 24 devices)
# ---------------------------------------------------------------------------
def run_table7_scalability(*, seed: int = 0, epochs: int = 12) -> ExperimentResult:
    rows = []
    for name in ("ogbn-products", "amazonproducts"):
        vanilla = _cached_run("vanilla", name, "6M-4D", "sage", seed=seed, epochs=epochs)
        adaqp = _cached_run("adaqp", name, "6M-4D", "sage", seed=seed, epochs=epochs)
        rows.append([name, "Vanilla", f"{vanilla.throughput:.2f}"])
        rows.append(
            [
                name,
                "AdaQP",
                f"{adaqp.throughput:.2f} ({adaqp.throughput / vanilla.throughput:.2f}x)",
            ]
        )
    return ExperimentResult(
        experiment_id="table7",
        title="Table 7: training throughput on the 6M-4D partition (24 devices)",
        headers=["Dataset", "Method", "Throughput (epoch/s)"],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Table 8 — training configurations
# ---------------------------------------------------------------------------
def run_table8_configs() -> ExperimentResult:
    rows = []
    for name, wl in WORKLOADS.items():
        cfg = standard_config(name, "gcn")
        rows.append(
            [
                name,
                cfg.num_layers,
                cfg.hidden_dim,
                "LayerNorm",
                "Adam",
                cfg.lr,
                cfg.dropout,
                cfg.epochs,
                wl.group_size,
                cfg.lam,
            ]
        )
    return ExperimentResult(
        experiment_id="table8",
        title="Table 8: training configurations (GCN and GraphSAGE share them)",
        headers=[
            "Dataset", "Layers", "Hidden", "Norm", "Optimizer", "LR", "Dropout",
            "Epochs", "Group Size", "lambda",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Fig. 9 / Fig. 12 — convergence curves
# ---------------------------------------------------------------------------
def run_fig09_convergence(
    *,
    datasets: tuple[str, ...] = ("reddit", "ogbn-products"),
    models: tuple[str, ...] = ("gcn", "sage"),
    seed: int = 0,
    epochs: int | None = None,
) -> ExperimentResult:
    """Validation-accuracy-vs-epoch series for every system.

    The paper's qualitative claims, checked in ``notes``: AdaQP's curve
    coincides with Vanilla's (max pointwise gap small) while the
    staleness-based systems converge more slowly (lower area under curve).
    """
    series: dict[str, list[float]] = {}
    rows = []
    gaps = []
    for dataset in datasets:
        setting = WORKLOADS[dataset].settings[-1]
        for model in models:
            for system in ("vanilla", "adaqp", "pipegcn", "sancus"):
                if model not in _MODEL_SUPPORT[system]:
                    continue
                res = _cached_run(
                    system, dataset, setting, model, seed=seed, epochs=epochs, eval_every=3
                )
                key = f"{dataset}/{setting}/{model}/{system}"
                series[f"{key}/epochs"] = [float(e) for e in res.curve_epochs]
                series[f"{key}/val"] = [float(v) for v in res.curve_val]
                auc = float(np.trapezoid(res.curve_val, res.curve_epochs)) if len(res.curve_val) > 1 else 0.0
                rows.append(
                    [dataset, setting, model, system, f"{100 * res.final_val:.2f}", f"{auc:.2f}"]
                )
            vanilla_key = f"{dataset}/{setting}/{model}/vanilla/val"
            adaqp_key = f"{dataset}/{setting}/{model}/adaqp/val"
            if vanilla_key in series and adaqp_key in series:
                gap = float(
                    np.abs(np.array(series[vanilla_key]) - np.array(series[adaqp_key])).max()
                )
                gaps.append(gap)
    return ExperimentResult(
        experiment_id="fig09",
        title="Fig. 9/12: convergence (final accuracy and area under the val curve)",
        headers=["Dataset", "Partitions", "Model", "Method", "Final Acc (%)", "Curve AUC"],
        rows=rows,
        series=series,
        notes={"max_adaqp_vanilla_curve_gap": max(gaps) if gaps else None},
    )


# ---------------------------------------------------------------------------
# Fig. 10 — time breakdown
# ---------------------------------------------------------------------------
def run_fig10_time_breakdown(
    *, seed: int = 0, epochs: int | None = None
) -> ExperimentResult:
    rows = []
    for name, wl in WORKLOADS.items():
        for setting in wl.settings:
            for system in ("vanilla", "adaqp"):
                res = _cached_run(system, name, setting, "gcn", seed=seed, epochs=epochs)
                bd = res.breakdown()
                rows.append(
                    [
                        name,
                        setting,
                        system,
                        f"{bd['comm'] * 1e3:.2f}",
                        f"{bd['comp'] * 1e3:.2f}",
                        f"{bd['quant'] * 1e3:.2f}",
                        f"{res.wire_bytes_total / res.epochs / 1e6:.3f}",
                        f"{res.train_wallclock:.3f}",
                        f"{res.assign_seconds:.3f}",
                    ]
                )
    return ExperimentResult(
        experiment_id="fig10",
        title=(
            "Fig. 10: per-epoch breakdown (ms), wire volume (MB) and "
            "wall-clock split (s), GCN — AdaQP's Comm column is the overlap "
            "stage and so includes the central compute it hides"
        ),
        headers=[
            "Dataset", "Partitions", "Method", "Comm (ms)", "Comp (ms)", "Quant (ms)",
            "Wire (MB)", "Train (s)", "Assign (s)",
        ],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Fig. 11 — sensitivity to group size, lambda, re-assignment period
# ---------------------------------------------------------------------------
def run_fig11_sensitivity(
    *,
    seed: int = 0,
    epochs: int | None = None,
    group_sizes: tuple[int, ...] = (50, 500, 2000),
    lambdas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    periods: tuple[int, ...] = (8, 16, 32),
) -> ExperimentResult:
    rows = []
    dataset, setting, model = "ogbn-products", "2M-4D", "gcn"
    sweeps = [
        ("group_size", "group_size", group_sizes),
        ("lambda", "lam", lambdas),
        ("period", "reassign_period", periods),
    ]
    for label, field, values in sweeps:
        for value in values:
            res = _cached_run(
                "adaqp", dataset, setting, model, seed=seed, epochs=epochs, **{field: value}
            )
            rows.append(
                [label, value, f"{100 * res.final_val:.2f}", f"{res.assign_seconds:.3f}",
                 res.assign_groups]
            )
    return ExperimentResult(
        experiment_id="fig11",
        title="Fig. 11: sensitivity (GCN, ogbn-products, 2M-4D)",
        headers=["Hyper-parameter", "Value", "Accuracy (%)", "Assign overhead (s)", "Groups"],
        rows=rows,
    )
