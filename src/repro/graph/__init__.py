"""Graph substrate: CSR graphs, synthetic datasets and graph partitioning.

This subpackage replaces DGL's graph storage and the real benchmark datasets
(Reddit, Yelp, ogbn-products, AmazonProducts), which are not available
offline.
"""

from repro.graph.graph import Graph
from repro.graph.generators import (
    CommunityGraphConfig,
    HugeGraphConfig,
    generate_community_graph,
    generate_features_and_labels,
)
from repro.graph.io import (
    PartitionStore,
    StoreDataset,
    build_partition_store,
)
from repro.graph.datasets import (
    DATASET_CATALOG,
    DatasetSpec,
    GraphDataset,
    available_datasets,
    load_dataset,
)
from repro.graph.partition import (
    LocalPartition,
    PartitionBook,
    build_local_partitions,
    metis_like_partition,
    partition_graph,
)

__all__ = [
    "Graph",
    "CommunityGraphConfig",
    "HugeGraphConfig",
    "generate_community_graph",
    "generate_features_and_labels",
    "PartitionStore",
    "StoreDataset",
    "build_partition_store",
    "DATASET_CATALOG",
    "DatasetSpec",
    "GraphDataset",
    "available_datasets",
    "load_dataset",
    "LocalPartition",
    "PartitionBook",
    "build_local_partitions",
    "metis_like_partition",
    "partition_graph",
]
