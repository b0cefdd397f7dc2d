#!/usr/bin/env python3
"""Regenerates the paper's Fig. 4 as an ASCII timeline: how one training
epoch's stages lay out under each system's schedule.

One epoch of real execution is re-timed under all four schedules
(Vanilla, AdaQP, PipeGCN, SANCUS) and drawn as proportional bars, making
the overlap structure visible: AdaQP's communication bar shrinks
(quantization) and runs concurrently with central-graph compute.

Run:  python examples/schedule_visualizer.py
"""

from repro.cluster import (
    Cluster,
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
)
from repro.cluster.perfmodel import PerfModel
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core.scheduler import SCHEDULES
from repro.graph import load_dataset, partition_graph
from repro.quant import KeyedRounding

BAR_WIDTH = 64


def bar(label: str, seconds: float, total: float, char: str) -> str:
    cells = max(1, int(round(BAR_WIDTH * seconds / total))) if seconds > 0 else 0
    return f"  {label:<7s} |{char * cells:<{BAR_WIDTH}}| {1e3 * seconds:7.2f} ms"


def main() -> None:
    dataset = load_dataset("ogbn-products", scale="tiny", seed=0)
    topology = parse_topology("2M-2D")
    book = partition_graph(dataset.graph, topology.num_devices, method="metis", seed=0)
    cost = LinkCostModel.for_topology(topology)
    perf = PerfModel()

    def one_epoch(exchange):
        cluster = Cluster(
            dataset, book, model_kind="gcn", hidden_dim=32, num_layers=3,
            dropout=0.0, seed=0,
        )
        return cluster.train_epoch(exchange, 0)

    exact_record = one_epoch(ExactHaloExchange())
    quant_record = one_epoch(
        FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0))
    )

    results = {
        "vanilla": SCHEDULES["vanilla"](exact_record, cost, perf),
        "adaqp": SCHEDULES["adaqp"](quant_record, cost, perf),
        "pipegcn": SCHEDULES["pipegcn"](exact_record, cost, perf),
        "sancus": SCHEDULES["sancus"](exact_record, cost, perf),
    }
    total = max(r.epoch_time for r in results.values())

    print("One GCN epoch (3 layers, fwd+bwd) under each schedule")
    print(f"(ogbn-products stand-in, {topology.name}; bars share one time scale)\n")
    for name, res in results.items():
        print(f"{name}  —  epoch {1e3 * res.epoch_time:.2f} ms, "
              f"throughput {res.throughput:.1f} ep/s")
        print(bar("comm", res.comm_time, total, "#"))
        print(bar("comp", res.comp_time, total, "="))
        if res.quant_time > 0:
            print(bar("quant", res.quant_time, total, "~"))
        if "overlapped" in res.detail:
            print(f"  (comm and comp overlap; {1e3 * res.detail['overlapped']:.2f} ms hidden)")
        print()

    vanilla, adaqp = results["vanilla"], results["adaqp"]
    print(f"AdaQP vs Vanilla: {vanilla.epoch_time / adaqp.epoch_time:.2f}x faster; "
          f"comm bar includes the central-graph compute it hides (paper Fig. 7).")


if __name__ == "__main__":
    main()
