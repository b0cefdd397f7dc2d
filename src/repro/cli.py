"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Version, available datasets, systems and partition settings.
``train``
    Train one system on one dataset/setting and print the result summary.
``prepare``
    Stream a huge synthetic power-law graph into an on-disk partition
    store (the out-of-core input of ``train --store``); the full graph is
    never held in RAM.
``partition``
    Partition a dataset and report quality metrics (cut, balance,
    remote-neighbor ratio, marginal fractions).
``experiment``
    Run one of the harness's table/figure regenerations by id
    (``table1`` ... ``table8``, ``fig02`` ... ``fig11``, ``ablation-*``,
    ``footnote1``) and print the rendered table.

Performance is measured by ``python3 benchmarks/e2e/run.py`` (the
benchmark ``BENCHMARK.json`` declares), not by a subcommand here.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro import __version__, kernels
from repro.core.config import RunConfig
from repro.core.trainer import SYSTEMS, train
from repro.graph.datasets import available_datasets, load_dataset
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import build_local_partitions
from repro.graph.partition.quality import balance, edge_cut, remote_neighbor_ratio
from repro.utils.format import format_seconds, render_table

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table1": "run_table1_comm_overhead",
    "table2": "run_table2_overlap_headroom",
    "table3": "run_table3_datasets",
    "table4": "run_table4_main",
    "table5": "run_table5_wallclock",
    "table6": "run_table6_uniform_vs_adaptive",
    "table7": "run_table7_scalability",
    "table8": "run_table8_configs",
    "fig02": "run_fig02_pair_imbalance",
    "fig03": "run_fig03_central_compute_share",
    "fig09": "run_fig09_convergence",
    "fig10": "run_fig10_time_breakdown",
    "fig11": "run_fig11_sensitivity",
    "ablation-contributions": "run_ablation_contributions",
    "ablation-partition": "run_ablation_partition_method",
    "ablation-solver": "run_ablation_solver",
    "footnote1": "run_footnote1_sizes",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AdaQP reproduction (MLSys 2023) — simulated distributed "
        "full-graph GNN training with adaptive message quantization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show datasets, systems and settings")

    p_train = sub.add_parser("train", help="train one system on one dataset")
    p_train.add_argument("--system", default="adaqp", choices=SYSTEMS)
    p_train.add_argument("--dataset", default="ogbn-products",
                         choices=available_datasets("tiny"))
    p_train.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_train.add_argument("--setting", default=None,
                         help="cluster topology, e.g. 2M-2D (default 2M-2D; "
                              "with --store, one device per stored partition)")
    p_train.add_argument(
        "--store", default=None, metavar="DIR",
        help="train out-of-core from a partition store built by `repro "
             "prepare` instead of an in-RAM --dataset; features/labels/"
             "operators stay memmapped and are paged in one device window "
             "at a time (bit-identical to the in-RAM run of the same store)")
    p_train.add_argument(
        "--materialize-store", action="store_true",
        help="with --store, load every partition fully into RAM instead of "
             "streaming (the bitwise reference arm of huge-graph mode)")
    p_train.add_argument("--model", default="gcn", choices=("gcn", "sage"))
    p_train.add_argument("--epochs", type=int, default=48)
    p_train.add_argument("--hidden", type=int, default=32)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--dropout", type=float, default=0.5)
    p_train.add_argument("--lam", type=float, default=0.5)
    p_train.add_argument("--group-size", type=int, default=100)
    p_train.add_argument("--period", type=int, default=16)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument(
        "--transport", default=None, metavar="SPEC",
        help="transport spec: auto (default), sync (jobs inline) or "
             "worker[:N] (a pool of N threads); every worker count is "
             "bit-identical to sync under the same seed")
    p_train.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="save an epoch-boundary checkpoint under DIR (model, "
             "optimizer, RNG positions, exchange carry-over); a "
             "killed-and-resumed run is bitwise identical to the "
             "uninterrupted one")
    p_train.add_argument(
        "--resume", action="store_true",
        help="restore from the newest checkpoint in --checkpoint-dir "
             "before training (fresh start when the directory is empty)")
    p_train.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint cadence in epochs (default 1; the final epoch "
             "always saves)")
    p_train.add_argument(
        "--transport-timeout", type=float, default=None, metavar="SECONDS",
        help="per-tag completion deadline — a stalled tag (on the worker "
             "pool or inline) raises TransportError naming its outstanding "
             "jobs instead of hanging (default: RunConfig's 120s)")
    p_train.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        dest="inject_faults",
        help="inject a transport fault, repeatable; SPEC is "
             "'kind[:tag[@epoch]][:key=value,...]' with kinds "
             "drop, duplicate, stall, error — e.g. "
             "'drop:fwd/L1@2:src=0,dst=1' or 'stall:*@3:delay=5' "
             "(fault-tolerance testing; recovery is exercised live; a "
             "fault that never fires is reported after the run)")

    p_prep = sub.add_parser(
        "prepare",
        help="stream a huge synthetic graph into an on-disk partition store",
    )
    p_prep.add_argument("out", metavar="DIR",
                        help="store directory to create (must not exist)")
    p_prep.add_argument("--nodes", type=int, default=1_000_000)
    p_prep.add_argument("--degree", type=float, default=8.0,
                        help="average undirected degree (default 8)")
    p_prep.add_argument("--features", type=int, default=128)
    p_prep.add_argument("--classes", type=int, default=8)
    p_prep.add_argument("--communities", type=int, default=32)
    p_prep.add_argument("--homophily", type=float, default=0.8,
                        help="fraction of cross-community edges suppressed "
                             "(default 0.8)")
    p_prep.add_argument("--locality", type=float, default=0.9,
                        help="ring locality of cross-community edges; higher "
                             "values shrink every partition's halo (default "
                             "0.9)")
    p_prep.add_argument("--parts", type=int, default=8,
                        help="partition count == training device count")
    p_prep.add_argument("--model", default="gcn", choices=("gcn", "sage"),
                        help="aggregation operator baked into the store")
    p_prep.add_argument("--seed", type=int, default=0)

    p_part = sub.add_parser("partition", help="partition a dataset, report quality")
    p_part.add_argument("--dataset", default="ogbn-products",
                        choices=available_datasets("tiny"))
    p_part.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    p_part.add_argument("--parts", type=int, default=4)
    p_part.add_argument("--method", default="metis",
                        choices=("metis", "random", "bfs", "spectral"))
    p_part.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("id", choices=sorted(_EXPERIMENTS))

    return parser


def _cmd_info() -> int:
    from repro.cluster.memory import host_memory
    from repro.comm.transport import (
        detected_cores,
        host_spare_cores,
        transport_workers,
    )

    print(f"repro {__version__} — AdaQP reproduction (MLSys 2023)")
    print(f"systems:  {', '.join(SYSTEMS)}")
    print(f"datasets: {', '.join(available_datasets('tiny'))} (scales: tiny, small)")
    print("settings: any xM-yD topology, e.g. 2M-1D, 2M-2D, 2M-4D, 6M-4D")

    # Host / transport auto-selection, so "why did my run pick that
    # transport?" is answerable from the CLI.
    cores = detected_cores()
    spare = host_spare_cores()
    verdict = "yes" if spare else "no"
    cfg = RunConfig()
    workers = transport_workers(cfg.transport, overlap=True)
    resolved = f"worker:{workers}" if workers else "sync"
    async_default = (
        f"worker transport with {workers} worker(s)"
        if workers
        else "synchronous transport (no spare core)"
    )
    print(f"host:     {cores} core(s) detected; spare core for transport "
          f"workers: {verdict} ({spare} spare)")
    hm = host_memory()
    if hm is not None:
        print(f"memory:   {hm.total_bytes / 2**30:.1f} GiB total, "
              f"{hm.available_bytes / 2**30:.1f} GiB available "
              "(huge-graph runs warn when the estimated working set "
              "exceeds this)")
    print("backends: one transport; jobs inline (sync) or on N worker threads "
          "(worker[:N]) — select with --transport")
    print(f"defaults: transport={cfg.transport} — "
          f"overlapped runs resolve to '{resolved}', i.e. {async_default}")
    print("          (override: --transport sync|worker[:N])")
    # Which kernels a run on this host uses, and why (the first call
    # builds the compiled tier into the per-user cache).
    print(f"kernels: {kernels.status()}")
    return 0


def _overlap_rows(result) -> list[list[str]]:
    """Measured-overlap table rows, derived from the full-run summary
    (which covers every executed step)."""
    summary = result.timeline_summary
    if not summary.steps:
        return []
    stage_total = (
        summary.quantize_s + summary.central_s
        + summary.dequantize_s + summary.marginal_s
    )
    wait_share = summary.worker_wait_s / max(stage_total, 1e-12)
    return [
        [
            "measured overlap",
            f"{100 * summary.hidden_byte_fraction:.0f}% of halo bytes in "
            "flight during central windows",
        ],
        [
            "worker wait",
            f"{format_seconds(summary.worker_wait_s)} total "
            f"({100 * wait_share:.1f}% of step time)",
        ],
    ]


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.comm.faults import FaultPlan
    from repro.comm.topology import parse_topology
    from repro.comm.transport import TransportError, transport_workers

    if args.transport is not None:
        try:
            transport_workers(args.transport, overlap=False)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    fault_plan = None
    if args.inject_faults:
        try:
            fault_plan = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2

    if args.store is not None:
        from repro.graph.io import PartitionStore

        try:
            store = PartitionStore.open(args.store)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        setting = args.setting or f"{store.num_parts}M-1D"
        topology = parse_topology(setting)
        if topology.num_devices != store.num_parts:
            print(
                f"error: setting {setting} has {topology.num_devices} devices "
                f"but the store holds {store.num_parts} partitions",
                file=sys.stderr,
            )
            return 2
        ds = store.dataset(materialize=args.materialize_store)
        book = store.book()
        dataset_label = f"store:{args.store}"
    else:
        topology = parse_topology(args.setting or "2M-2D")
        ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        book = partition_graph(
            ds.graph, topology.num_devices, method="metis", seed=args.seed
        )
        dataset_label = f"{args.dataset}-{args.scale}"
    cfg = RunConfig(
        model_kind=args.model,
        hidden_dim=args.hidden,
        epochs=args.epochs,
        lr=args.lr,
        dropout=args.dropout,
        lam=args.lam,
        group_size=args.group_size,
        reassign_period=args.period,
        seed=args.seed,
        eval_every=max(1, args.epochs // 8),
        transport=args.transport if args.transport is not None else "auto",
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=max(1, args.checkpoint_every),
        resume=args.resume,
    )
    if args.transport_timeout is not None:
        cfg = cfg.with_overrides(transport_timeout_s=args.transport_timeout)
    print(f"training {args.system} / {args.model} on {dataset_label} "
          f"({topology.name}, {args.epochs} epochs)...")
    try:
        result = train(args.system, ds, book, topology, cfg, fault_plan=fault_plan)
    except TransportError as exc:
        print(f"error: transport failure: {exc}", file=sys.stderr)
        return 1
    if fault_plan is not None and fault_plan.armed():
        # A fault that never fired proves nothing: a mistyped tag, or an
        # epoch or layer the run never reached.
        unfired = [
            text
            for text, spec in zip(args.inject_faults, fault_plan.specs)
            if spec.count > 0
        ]
        print(
            f"warning: {len(unfired)} injected fault(s) did not fire as "
            f"specified: {', '.join(unfired)}",
            file=sys.stderr,
        )
    if result.start_epoch:
        print(f"resumed from checkpoint at epoch {result.start_epoch}")
        if result.start_epoch >= cfg.epochs:
            print(
                "checkpoint already covers all requested epochs; "
                "nothing left to train (accuracy shows as nan)"
            )
    bd = result.breakdown()
    print(
        render_table(
            ["metric", "value"],
            [
                ["final val accuracy", f"{100 * result.final_val:.2f}%"],
                ["final test accuracy", f"{100 * result.final_test:.2f}%"],
                ["throughput", f"{result.throughput:.2f} epoch/s (simulated)"],
                ["epoch time", format_seconds(result.epoch_time_mean)],
                ["comm / comp / quant",
                 f"{format_seconds(bd['comm'])} / {format_seconds(bd['comp'])} / "
                 f"{format_seconds(bd['quant'])}"],
                ["wall-clock (train+assign)",
                 f"{format_seconds(result.train_wallclock)} + "
                 f"{format_seconds(result.assign_seconds)}"],
                ["wire bytes / epoch",
                 f"{result.wire_bytes_total / max(result.epochs, 1) / 1e6:.2f} MB"],
            ]
            + _overlap_rows(result),
        )
    )
    if result.bit_histogram:
        print("bit-width histogram:", result.bit_histogram)
    print(f"kernels: {kernels.status()}")
    stats = result.transport_health.get("fault_stats") or {}
    faults = {k: v for k, v in stats.items() if v}
    if faults:
        print(f"fault counters: {faults}")
    return 0


def _cmd_prepare(args: argparse.Namespace) -> int:
    from repro.graph.generators import HugeGraphConfig
    from repro.graph.io import build_partition_store

    out = Path(args.out)
    if (out / "header.json").exists():
        print(f"error: {out} already holds a partition store", file=sys.stderr)
        return 2
    cfg = HugeGraphConfig(
        num_nodes=args.nodes,
        avg_degree=args.degree,
        num_features=args.features,
        num_classes=args.classes,
        num_communities=args.communities,
        homophily=args.homophily,
        neighbor_locality=args.locality,
    )
    store = build_partition_store(
        cfg, args.parts, out, seed=args.seed, agg_kind=args.model,
        progress=print,
    )
    sizes = np.diff(store.part_bounds).tolist()
    halos = [
        int(entry["regions"]["halo_global"]["shape"][0])
        for entry in store.header["partitions"]
    ]
    disk = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    print(
        render_table(
            ["metric", "value"],
            [
                ["store", str(out)],
                ["nodes / directed edges",
                 f"{store.num_nodes} / {store.num_directed_edges}"],
                ["features / classes",
                 f"{args.features} / {args.classes}"],
                ["parts", f"{store.num_parts} "
                 f"(sizes {min(sizes)}..{max(sizes)})"],
                ["halo rows / part", f"{min(halos)}..{max(halos)}"],
                ["on disk", f"{disk / 1e9:.2f} GB"],
            ],
        )
    )
    print(f"train with: repro train --store {out} "
          f"--setting {store.num_parts}M-1D")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    book = partition_graph(ds.graph, args.parts, method=args.method, seed=args.seed)
    parts = build_local_partitions(ds.graph, book)
    marginal = [p.n_marginal / p.n_owned for p in parts]
    print(
        render_table(
            ["metric", "value"],
            [
                ["nodes / edges", f"{ds.graph.num_nodes} / {ds.graph.num_edges}"],
                ["parts", str(args.parts)],
                ["method", args.method],
                ["edge cut", f"{edge_cut(ds.graph, book)} "
                 f"({100 * edge_cut(ds.graph, book) / ds.graph.num_edges:.1f}%)"],
                ["balance", f"{balance(book):.3f}"],
                ["remote-neighbor ratio",
                 f"{100 * remote_neighbor_ratio(ds.graph, book):.1f}%"],
                ["marginal node fraction",
                 f"{100 * float(np.mean(marginal)):.1f}% "
                 f"(min {100 * min(marginal):.1f}%, max {100 * max(marginal):.1f}%)"],
                ["part sizes", str(book.sizes().tolist())],
            ],
        )
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.harness as harness

    fn = getattr(harness, _EXPERIMENTS[args.id])
    result = fn()
    print(result.render())
    if result.notes:
        print("\nnotes:", result.notes)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "prepare":
        return _cmd_prepare(args)
    if args.command == "partition":
        return _cmd_partition(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
