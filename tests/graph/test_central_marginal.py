"""The central/marginal split of a partition (paper Sec. 3.1), as the
running code states it: ``LocalPartition``'s masks and counts, and the
aggregation nonzeros ``SplitOperators.nnz_for_rows`` attributes to them
(what the cluster's FLOP records and the split-phase executor use)."""

import numpy as np
import pytest

from repro.cluster.runtime import build_devices
from repro.gnn.coefficients import build_aggregation
from repro.graph.graph import Graph
from repro.graph.io import SplitOperators
from repro.graph.partition.book import PartitionBook, build_local_partitions


@pytest.fixture(scope="module")
def parts_and_aggs(tiny_dataset, tiny_book):
    devices = build_devices(tiny_dataset, tiny_book, model_kind="gcn", seed=0)
    return [(dev.part, dev.ops) for dev in devices]


def _halo_entries(part, agg):
    """Per owned row, how many of its aggregation entries read a halo column."""
    return np.diff(agg.halo.indptr)


def test_counts_partition_rows(parts_and_aggs):
    for part, _ in parts_and_aggs:
        assert part.n_central + part.n_marginal == part.n_owned
        assert part.n_central == int(part.central_mask.sum())
        assert part.n_marginal == int(part.marginal_mask.sum())


def test_nnz_split_consistent(parts_and_aggs):
    """Central nnz + marginal nnz = nnz: the two row sets split the
    aggregation's nonzeros without loss or overlap."""
    for part, agg in parts_and_aggs:
        central = agg.nnz_for_rows(part.central_mask)
        marginal = agg.nnz_for_rows(part.marginal_mask)
        assert central + marginal == agg.nnz


def test_masks_partition_owned_rows(parts_and_aggs):
    """The central and marginal masks partition the owned rows; central
    rows touch no halo column of the aggregation (what makes the central
    window legal), marginal rows each touch one."""
    for part, agg in parts_and_aggs:
        central, marginal = part.central_mask, part.marginal_mask
        assert central.shape == marginal.shape == (part.n_owned,)
        assert not (central & marginal).any() and (central | marginal).all()
        halo = _halo_entries(part, agg)
        assert not halo[central].any()
        assert (halo[marginal] > 0).all()


def test_single_partition_has_zero_marginal_nodes(tiny_dataset, single_part_book):
    """A 1-partition cluster has no remote edges: everything is central and
    the marginal comm stage must be a no-op."""
    (dev,) = build_devices(tiny_dataset, single_part_book, model_kind="gcn", seed=0)
    part, agg = dev.part, dev.ops
    assert part.n_marginal == 0
    assert part.n_central == part.n_owned == tiny_dataset.num_nodes
    assert agg.nnz_for_rows(part.marginal_mask) == 0
    assert agg.nnz_for_rows(part.central_mask) == agg.nnz
    assert part.central_mask.all() and not part.marginal_mask.any()
    # No marginal rows -> no boundary rows to exchange.
    assert part.send_map == {} and part.recv_map == {}


def test_all_marginal_partition():
    """Alternating ownership on a path graph makes every node marginal:
    the central sub-step is empty and all compute waits on messages."""
    graph = Graph.from_edges(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), 5)
    book = PartitionBook(
        part_of=np.array([0, 1, 0, 1, 0], dtype=np.int32), num_parts=2
    )
    for part in build_local_partitions(graph, book):
        rows = graph.to_scipy()[part.owned_global]
        matrix, _ = build_aggregation(part, rows, graph.degrees, "gcn")
        agg = SplitOperators.split(matrix, part.n_owned)
        assert part.n_central == 0
        assert part.n_marginal == part.n_owned
        assert agg.nnz_for_rows(part.central_mask) == 0
        assert part.marginal_mask.all() and not part.central_mask.any()
        assert (_halo_entries(part, agg) > 0).all()


def test_degenerate_splits_still_train_bitwise(tiny_dataset):
    """The executor must survive an all-marginal device: an alternating
    2-partition book over a path-like subrange gives devices with empty
    central blocks, and the overlap engine must still match the fused
    engine exactly."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.exchange import ExactHaloExchange

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
