"""Per-device state: partition, model replica, local data and RNG streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.coefficients import AggregationContext, build_aggregation
from repro.gnn.model import DistGNN
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

    Holds everything rank-local: the graph partition, the weighted
    aggregation operator, the model replica (identically initialized across
    ranks), this rank's slice of features/labels/masks, and the local
    training-node count (the global count normalizes the loss so that
    summing device losses reproduces the single-machine loss exactly).
    """

    rank: int
    part: LocalPartition
    agg: AggregationContext
    model: DistGNN
    features: np.ndarray  # (n_owned, F) float32
    labels: np.ndarray  # (n_owned,) int64 or (n_owned, C) float32
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

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
    dims: list[int],
    dropout: float,
    seed: int,
) -> tuple[list[DeviceRuntime], list | None]:
    """One :class:`DeviceRuntime` per partition of ``book``, rank order.

    Returns the devices and, for a store-backed dataset, each device's
    :class:`~repro.graph.io.SplitOperators` (``None`` for an in-RAM
    dataset).  Store datasets carry no global arrays — partitions,
    operators and attribute slices come pre-built from the on-disk
    :class:`~repro.graph.io.PartitionStore` as (typically memmapped)
    regions.  Every replica draws the *same* weight stream, so replicas
    start bit-identical without any broadcast; dropout streams are per
    device.
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
    weight_seed_pool = pool.fork("weights")
    devices = []
    for part, agg, features, labels, train_m, val_m, test_m in device_data:
        model = DistGNN(
            model_kind,
            dims,
            agg,
            dropout=dropout,
            weight_rng=weight_seed_pool.fork("shared").get("init"),
            dropout_rng=pool.device(part.part_id, "dropout"),
        )
        devices.append(
            DeviceRuntime(
                rank=part.part_id,
                part=part,
                agg=agg,
                model=model,
                features=features,
                labels=labels,
                train_mask=train_m,
                val_mask=val_m,
                test_mask=test_m,
            )
        )
    return devices, stream_ops
