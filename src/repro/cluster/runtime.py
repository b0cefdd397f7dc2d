"""Per-device state: partition, operator, local data and dropout stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.coefficients import build_aggregation
from repro.graph.io import SplitOperators, StoreDataset
from repro.graph.partition.book import (
    LocalPartition,
    PartitionBook,
    build_local_partitions,
)
from repro.utils.seed import RngPool

__all__ = ["DeviceRuntime", "build_devices"]


@dataclass
class DeviceRuntime:
    """One simulated GPU worker.

    Holds only what the device's partition binds: the graph partition, the
    weighted aggregation operator as its :class:`~repro.graph.io.SplitOperators`
    quartet, each halo column's ``Σ α²`` (the assigner's message weights),
    this rank's slice of features/labels/masks, and its dropout stream.  It
    holds no model: the cluster's one parameter set
    (:attr:`~repro.cluster.cluster.Cluster.model`) is what every device's
    replica would be a copy of.  In RAM the engine makes ``features`` a
    view of its layer-0 input buffer, the one copy of the features.
    """

    rank: int
    part: LocalPartition
    ops: SplitOperators
    halo_alpha_sq: np.ndarray  # (n_halo,) float64
    features: np.ndarray  # (n_owned, F) float32
    labels: np.ndarray  # (n_owned,) int64 or (n_owned, C) float32
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    #: this device's dropout masks, drawn in every non-output layer
    dropout_rng: np.random.Generator

    def __post_init__(self) -> None:
        n = self.part.n_owned
        for name in ("features", "train_mask", "val_mask", "test_mask"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows, partition owns {n}")
        if self.labels.shape[0] != n:
            raise ValueError("labels misaligned with partition")
        # Aggregation inputs must stay float32: a float64 feature slice
        # would silently upcast every spmv/GEMM downstream (and double
        # exchange payloads).  Normalized once here, both execution
        # engines can assume contiguous float32.
        if self.features.dtype != np.float32 or not self.features.flags.c_contiguous:
            self.features = np.ascontiguousarray(self.features, dtype=np.float32)

    @property
    def n_owned(self) -> int:
        return self.part.n_owned

    @property
    def n_train(self) -> int:
        return int(self.train_mask.sum())


def build_devices(
    dataset,
    book: PartitionBook,
    *,
    model_kind: str,
    seed: int,
) -> list[DeviceRuntime]:
    """One :class:`DeviceRuntime` per partition of ``book``, rank order.

    In RAM each device's aggregation operator is built and split into its
    quartet (:meth:`~repro.graph.io.SplitOperators.split`, the constructor
    the store builder uses too), and the full matrix is dropped as soon as
    it is split.  Store datasets carry no global arrays — partitions,
    quartets and attribute slices come pre-built from the on-disk
    :class:`~repro.graph.io.PartitionStore` as (typically memmapped)
    regions.  ``model_kind`` picks the aggregation operator; ``seed``
    roots each device's dropout stream.
    """
    agg_kind = "gcn" if model_kind == "gcn" else "sage"
    if isinstance(dataset, StoreDataset):
        store = dataset.store
        if book.num_parts != store.num_parts:
            raise ValueError(
                f"partition book has {book.num_parts} parts but the store"
                f" was built for {store.num_parts}"
            )
        if store.agg_kind != agg_kind:
            raise ValueError(
                f"store was prepared with agg_kind={store.agg_kind!r};"
                f" model_kind={model_kind!r} needs {agg_kind!r}"
            )
        store_parts = [
            store.partition(p, materialize=dataset.materialize)
            for p in range(store.num_parts)
        ]
        device_data = [
            (sp.part, sp.ops, sp.halo_alpha_sq, sp.features, sp.labels,
             sp.train_mask, sp.val_mask, sp.test_mask)
            for sp in store_parts
        ]
    else:
        degrees = dataset.graph.degrees.astype(np.float64)
        adjacency = dataset.graph.to_scipy(dtype=np.float32)
        device_data = []
        for part in build_local_partitions(dataset.graph, book):
            owned = part.owned_global
            matrix, halo_alpha_sq = build_aggregation(
                part, adjacency[owned], degrees, agg_kind
            )
            device_data.append(
                (
                    part,
                    SplitOperators.split(matrix, part.n_owned),
                    halo_alpha_sq,
                    dataset.features[owned],
                    dataset.labels[owned],
                    dataset.train_mask[owned],
                    dataset.val_mask[owned],
                    dataset.test_mask[owned],
                )
            )

    pool = RngPool(seed).fork("cluster")
    return [
        DeviceRuntime(
            part.part_id, part, *data, dropout_rng=pool.device(part.part_id, "dropout")
        )
        for part, *data in device_data
    ]
