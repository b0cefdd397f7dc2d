"""Per-device state: partition, operator, local data and dropout stream."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.coefficients import AggregationContext, build_aggregation
from repro.graph.io import StoreDataset
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
    weighted aggregation operator, this rank's slice of features/labels/
    masks, and its dropout stream.  It holds no model: the cluster's one
    parameter set (:attr:`~repro.cluster.cluster.Cluster.model`) is what
    every device's replica would be a copy of.
    """

    rank: int
    part: LocalPartition
    agg: AggregationContext
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
) -> tuple[list[DeviceRuntime], list | None]:
    """One :class:`DeviceRuntime` per partition of ``book``, rank order.

    Returns the devices and, for a store-backed dataset, each device's
    :class:`~repro.graph.io.SplitOperators` (``None`` for an in-RAM
    dataset).  Store datasets carry no global arrays — partitions,
    operators and attribute slices come pre-built from the on-disk
    :class:`~repro.graph.io.PartitionStore` as (typically memmapped)
    regions.  ``model_kind`` picks the aggregation operator; ``seed``
    roots each device's dropout stream.
    """
    agg_kind = "gcn" if model_kind == "gcn" else "sage"
    stream_ops = None
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
            (sp.part, sp.agg, sp.features, sp.labels,
             sp.train_mask, sp.val_mask, sp.test_mask)
            for sp in store_parts
        ]
        stream_ops = [sp.ops for sp in store_parts]
    else:
        degrees = dataset.graph.degrees.astype(np.float64)
        device_data = []
        for part in build_local_partitions(dataset.graph, book):
            owned = part.owned_global
            device_data.append(
                (
                    part,
                    build_aggregation(part, degrees, agg_kind),
                    dataset.features[owned],
                    dataset.labels[owned],
                    dataset.train_mask[owned],
                    dataset.val_mask[owned],
                    dataset.test_mask[owned],
                )
            )

    pool = RngPool(seed).fork("cluster")
    devices = [
        DeviceRuntime(
            rank=part.part_id,
            part=part,
            agg=agg,
            features=features,
            labels=labels,
            train_mask=train_m,
            val_mask=val_m,
            test_mask=test_m,
            dropout_rng=pool.device(part.part_id, "dropout"),
        )
        for part, agg, features, labels, train_m, val_m, test_m in device_data
    ]
    return devices, stream_ops
