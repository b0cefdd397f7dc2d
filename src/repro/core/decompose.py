"""Central/marginal graph decomposition (paper Sec. 3.1).

Each device's partition splits into:

* the **marginal graph** — marginal nodes (those with ≥ 1 remote neighbor)
  and all their edges; its computation needs halo messages;
* the **central graph** — central nodes and their (entirely local) edges;
  its computation can start immediately and overlap with the marginal
  graph's communication.

The split is what the AdaQP schedule overlaps; this module quantifies it
(row counts, aggregation nonzeros, FLOP shares) for the scheduler and for
the Fig. 3 / Table 2 benchmarks.  The modelled central time prices the
central rows' aggregation *and* dense update, the paper's schedule; the
executor splits only the aggregation, restricting its operator by each
partition's ``central_mask``
(:meth:`~repro.cluster.compute.FusedClusterCompute.overlap_plan`), and
runs the dense update once over every owned row after the halos land.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.perfmodel import PerfModel
from repro.gnn.coefficients import AggregationContext
from repro.graph.partition.book import LocalPartition

__all__ = ["DecompositionStats", "decompose_partition"]


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
