"""Central/marginal graph decomposition (paper Sec. 3.1).

Each device's partition splits into:

* the **marginal graph** — marginal nodes (those with ≥ 1 remote neighbor)
  and all their edges; its computation needs halo messages;
* the **central graph** — central nodes and their (entirely local) edges;
  its computation can start immediately and overlap with the marginal
  graph's communication.

The split is what the AdaQP schedule overlaps; this module quantifies it
(row counts, aggregation nonzeros, FLOP shares) for the scheduler and for
the Fig. 3 / Table 2 benchmarks — and hands the pipelined executor the
central and marginal row sets (:func:`split_rows`) it splits its operators
with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.perfmodel import PerfModel
from repro.gnn.coefficients import AggregationContext
from repro.graph.partition.book import LocalPartition

__all__ = ["DecompositionStats", "RowSplit", "decompose_partition", "split_rows"]


@dataclass(frozen=True)
class DecompositionStats:
    """Central/marginal split of one device's partition."""

    part_id: int
    n_owned: int
    n_central: int
    n_marginal: int
    agg_nnz_total: int
    agg_nnz_central: int
    agg_nnz_marginal: int

    @property
    def central_row_fraction(self) -> float:
        return self.n_central / max(self.n_owned, 1)

    @property
    def marginal_row_fraction(self) -> float:
        return self.n_marginal / max(self.n_owned, 1)

    def central_compute_time(
        self, d_in: int, d_out: int, perf: PerfModel, *, dense_factor: float = 1.0
    ) -> float:
        """Modelled time of one layer's central-graph computation."""
        spmm = PerfModel.spmm_flops(self.agg_nnz_central, d_in)
        gemm = dense_factor * PerfModel.gemm_flops(self.n_central, d_in, d_out)
        return perf.compute_time(spmm, gemm)

    def marginal_compute_time(
        self, d_in: int, d_out: int, perf: PerfModel, *, dense_factor: float = 1.0
    ) -> float:
        """Modelled time of one layer's marginal-graph computation."""
        spmm = PerfModel.spmm_flops(self.agg_nnz_marginal, d_in)
        gemm = dense_factor * PerfModel.gemm_flops(self.n_marginal, d_in, d_out)
        return perf.compute_time(spmm, gemm)


@dataclass(frozen=True)
class RowSplit:
    """Central/marginal row split of one device's owned block.

    Both index arrays are ascending local owned-row ids; together they
    partition ``0..n_owned-1``.  The pipelined executor gathers each set
    into its own contiguous block for the dense work of that window; its
    *persistent* buffers stay in original row order (row permutations
    change the accumulation order of reductions — loss sums, ``xᵀ·d``
    weight gradients — and would break the engines' bitwise contract).
    """

    central_rows: np.ndarray  # (n_central,) int64, ascending
    marginal_rows: np.ndarray  # (n_marginal,) int64, ascending

    @property
    def n_central(self) -> int:
        return int(self.central_rows.size)

    @property
    def n_marginal(self) -> int:
        return int(self.marginal_rows.size)


def split_rows(part: LocalPartition) -> RowSplit:
    """Split one partition's owned rows into central and marginal ids.

    A partition with no remote neighbors (e.g. the single device of a
    1-partition cluster) yields an empty marginal block — its comm stage
    is a no-op and every row computes in the central window.
    """
    return RowSplit(
        central_rows=np.flatnonzero(part.central_mask).astype(np.int64),
        marginal_rows=np.flatnonzero(part.marginal_mask).astype(np.int64),
    )


def decompose_partition(
    part: LocalPartition, agg: AggregationContext
) -> DecompositionStats:
    """Split one partition into central and marginal components.

    >>> from repro.graph import load_dataset, partition_graph, build_local_partitions
    >>> from repro.gnn import build_aggregation
    >>> ds = load_dataset("yelp", scale="tiny")
    >>> book = partition_graph(ds.graph, 2, method="metis")
    >>> parts = build_local_partitions(ds.graph, book)
    >>> agg = build_aggregation(parts[0], ds.graph.degrees.astype(float), "gcn")
    >>> stats = decompose_partition(parts[0], agg)
    >>> stats.n_central + stats.n_marginal == stats.n_owned
    True
    """
    central_mask = part.central_mask
    nnz_central = agg.nnz_for_rows(central_mask)
    nnz_total = agg.nnz
    return DecompositionStats(
        part_id=part.part_id,
        n_owned=part.n_owned,
        n_central=int(central_mask.sum()),
        n_marginal=int(part.marginal_mask.sum()),
        agg_nnz_total=nnz_total,
        agg_nnz_central=nnz_central,
        agg_nnz_marginal=nnz_total - nnz_central,
    )
