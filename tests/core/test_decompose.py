"""Central/marginal decomposition statistics."""

import numpy as np
import pytest

from repro.cluster.perfmodel import PerfModel
from repro.core.decompose import decompose_partition
from repro.gnn.coefficients import build_aggregation


@pytest.fixture(scope="module")
def stats_and_parts(tiny_dataset, tiny_parts):
    deg = tiny_dataset.graph.degrees.astype(np.float64)
    out = []
    for part in tiny_parts:
        agg = build_aggregation(part, deg, "gcn")
        out.append((decompose_partition(part, agg), part, agg))
    return out


def test_counts_partition_rows(stats_and_parts):
    for stats, part, _ in stats_and_parts:
        assert stats.n_central + stats.n_marginal == stats.n_owned == part.n_owned
        assert stats.n_marginal == int(part.marginal_mask.sum())


def test_nnz_split_consistent(stats_and_parts):
    for stats, _, agg in stats_and_parts:
        assert stats.agg_nnz_central + stats.agg_nnz_marginal == stats.agg_nnz_total
        assert stats.agg_nnz_total == agg.nnz


def test_fractions_in_unit_interval(stats_and_parts):
    for stats, _, _ in stats_and_parts:
        assert 0.0 <= stats.central_row_fraction <= 1.0
        assert stats.central_row_fraction + stats.marginal_row_fraction == pytest.approx(1.0)


def test_compute_times_positive_and_additive(stats_and_parts):
    perf = PerfModel()
    for stats, _, _ in stats_and_parts:
        central = stats.central_compute_time(16, 8, perf)
        marginal = stats.marginal_compute_time(16, 8, perf)
        assert central > 0 and marginal > 0
        # Stage split costs two launches instead of one, so the sum can
        # slightly exceed the fused time but never undercut the FLOPs.
        fused_flops_time = perf.compute_time(
            PerfModel.spmm_flops(stats.agg_nnz_total, 16),
            PerfModel.gemm_flops(stats.n_owned, 16, 8),
        )
        assert central + marginal >= fused_flops_time - 4 * perf.kernel_launch_s


def test_dense_factor_scales_gemm(stats_and_parts):
    perf = PerfModel()
    stats = stats_and_parts[0][0]
    single = stats.central_compute_time(16, 8, perf, dense_factor=1.0)
    double = stats.central_compute_time(16, 8, perf, dense_factor=2.0)
    assert double > single


# ---------------------------------------------------------------------------
# Central masks (what the pipelined executor splits its operator by) and
# degenerate cases
# ---------------------------------------------------------------------------
def _halo_entries(part, agg):
    """Per owned row, how many of its aggregation entries read a halo column."""
    m = agg.matrix
    rows = np.repeat(np.arange(part.n_owned), np.diff(m.indptr))
    return np.bincount(rows[m.indices >= part.n_owned], minlength=part.n_owned)


def test_split_rows_partitions_owned_rows(stats_and_parts):
    """The central and marginal masks partition the owned rows with the
    stats' counts; central rows touch no halo column of the aggregation
    (what makes the central window legal), marginal rows each touch one."""
    for stats, part, agg in stats_and_parts:
        central, marginal = part.central_mask, part.marginal_mask
        assert central.shape == marginal.shape == (part.n_owned,)
        assert not (central & marginal).any() and (central | marginal).all()
        assert int(central.sum()) == stats.n_central
        assert int(marginal.sum()) == stats.n_marginal
        halo = _halo_entries(part, agg)
        assert not halo[central].any()
        assert (halo[marginal] > 0).all()


def test_single_partition_has_zero_marginal_nodes(tiny_dataset, single_part_book):
    """A 1-partition cluster has no remote edges: everything is central and
    the marginal comm stage must be a no-op."""
    from repro.graph.partition.book import build_local_partitions

    (part,) = build_local_partitions(tiny_dataset.graph, single_part_book)
    agg = build_aggregation(part, tiny_dataset.graph.degrees.astype(np.float64), "gcn")
    stats = decompose_partition(part, agg)
    assert stats.n_marginal == 0
    assert stats.n_central == stats.n_owned == tiny_dataset.num_nodes
    assert stats.agg_nnz_marginal == 0
    assert stats.agg_nnz_central == stats.agg_nnz_total == agg.nnz
    assert stats.central_row_fraction == 1.0
    assert part.central_mask.all() and not part.marginal_mask.any()
    # No marginal rows -> no boundary rows to exchange.
    assert part.send_map == {} and part.recv_map == {}


def test_all_marginal_partition():
    """Alternating ownership on a path graph makes every node marginal:
    the central sub-step is empty and all compute waits on messages."""
    from repro.graph.graph import Graph
    from repro.graph.partition.book import PartitionBook, build_local_partitions

    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 4])
    graph = Graph.from_edges(src, dst, 5)
    book = PartitionBook(
        part_of=np.array([0, 1, 0, 1, 0], dtype=np.int32), num_parts=2
    )
    for part in build_local_partitions(graph, book):
        agg = build_aggregation(part, graph.degrees.astype(np.float64), "gcn")
        stats = decompose_partition(part, agg)
        assert stats.n_central == 0
        assert stats.n_marginal == stats.n_owned
        assert stats.marginal_row_fraction == 1.0
        assert part.marginal_mask.all() and not part.central_mask.any()
        assert (_halo_entries(part, agg) > 0).all()


def test_degenerate_splits_still_train_bitwise(tiny_dataset):
    """The executor must survive an all-marginal device: an alternating
    2-partition book over a path-like subrange gives devices with empty
    central blocks, and the overlap engine must still match the fused
    engine exactly."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.exchange import ExactHaloExchange
    from repro.graph.partition.book import PartitionBook

    # Alternating ownership maximizes marginal nodes on the real dataset.
    part_of = (np.arange(tiny_dataset.num_nodes) % 2).astype(np.int32)
    book = PartitionBook(part_of=part_of, num_parts=2)

    def run(overlap):
        cluster = Cluster(
            tiny_dataset, book, hidden_dim=8, num_layers=2, dropout=0.5,
            seed=3, overlap=overlap,
        )
        exchange = ExactHaloExchange()
        return [cluster.train_epoch(exchange, e).loss for e in range(2)]

    assert run(True) == run(False)
