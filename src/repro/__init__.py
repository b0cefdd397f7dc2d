"""AdaQP reproduction: adaptive message quantization and parallelization
for distributed full-graph GNN training (Wan, Zhao & Wu — MLSys 2023).

Pure-Python reproduction of the AdaQP system and every substrate it needs:
a NumPy GNN training stack, a METIS-like graph partitioner, synthetic
stand-ins for the paper's datasets, a simulated multi-GPU cluster with a
calibrated communication cost model, stochastic integer message
quantization with adaptive bi-objective bit-width assignment, and the
PipeGCN/SANCUS-style comparator systems.

Quickstart
----------
>>> from repro import load_dataset, partition_graph, train, RunConfig
>>> ds = load_dataset("ogbn-products", scale="tiny")
>>> book = partition_graph(ds.graph, 4, method="metis")
>>> result = train("adaqp", ds, book, "2M-2D", RunConfig(epochs=5, hidden_dim=16))
>>> result.final_val > 0
True

See README.md for the architecture overview; ``repro experiment NAME``
regenerates the paper's tables and figures (tracked copies live under
``benchmarks/results/``).
"""

from repro.graph import (
    GraphDataset,
    available_datasets,
    build_local_partitions,
    load_dataset,
    partition_graph,
)
from repro.graph.graph import Graph
from repro.comm import ClusterTopology, LinkCostModel, parse_topology
from repro.cluster import Cluster, PerfModel
from repro.core import (
    SYSTEMS,
    AdaptiveBitWidthAssigner,
    RunConfig,
    TrainResult,
    train,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "GraphDataset",
    "available_datasets",
    "load_dataset",
    "partition_graph",
    "build_local_partitions",
    "ClusterTopology",
    "parse_topology",
    "LinkCostModel",
    "PerfModel",
    "Cluster",
    "RunConfig",
    "TrainResult",
    "train",
    "SYSTEMS",
    "AdaptiveBitWidthAssigner",
    "__version__",
]
