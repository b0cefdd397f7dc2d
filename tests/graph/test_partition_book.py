"""PartitionBook / LocalPartition: the structural heart of the runtime.

The key property test reconstructs the full-graph adjacency from the local
partitions — if that holds, aggregation over partitions is exactly
aggregation over the full graph.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnn.coefficients import build_aggregation
from repro.graph.graph import Graph
from repro.graph.partition.book import PartitionBook, build_local_partitions


def test_book_validation():
    with pytest.raises(ValueError, match="out of range"):
        PartitionBook(part_of=np.array([0, 3]), num_parts=2)
    with pytest.raises(ValueError, match="own no nodes"):
        PartitionBook(part_of=np.array([0, 0]), num_parts=2)
    with pytest.raises(ValueError, match="empty"):
        PartitionBook(part_of=np.zeros(0, dtype=np.int64), num_parts=1)


def test_owned_and_sizes():
    book = PartitionBook(part_of=np.array([0, 1, 0, 1, 1]), num_parts=2)
    assert book.owned(0).tolist() == [0, 2]
    assert book.sizes().tolist() == [2, 3]


def test_book_graph_size_mismatch(path_graph):
    book = PartitionBook(part_of=np.array([0, 1]), num_parts=2)
    with pytest.raises(ValueError, match="covers"):
        build_local_partitions(path_graph, book)


def test_path_graph_partition_structure(path_graph):
    # Partition 0-1-2 | 3-4: boundary at 2-3.
    book = PartitionBook(part_of=np.array([0, 0, 0, 1, 1]), num_parts=2)
    parts = build_local_partitions(path_graph, book)
    p0, p1 = parts
    assert p0.n_owned == 3 and p1.n_owned == 2
    assert p0.halo_global.tolist() == [3]
    assert p1.halo_global.tolist() == [2]
    # Node 2 is p0's only marginal node; 0 and 1 are central.
    assert p0.marginal_mask.tolist() == [False, False, True]
    assert p1.marginal_mask.tolist() == [True, False]
    # Send/recv alignment.
    assert p0.send_map[1].tolist() == [2]  # local index of global node 2
    assert p1.recv_map[0].tolist() == [0]


def test_send_recv_alignment(tiny_dataset, tiny_parts):
    """p.send_map[q] rows carry exactly the globals in q's halo segment."""
    parts = tiny_parts
    for p in parts:
        for q_rank, rows in p.send_map.items():
            q = parts[q_rank]
            sent_globals = p.owned_global[rows]
            expected = q.halo_global[q.recv_map[p.part_id]]
            assert np.array_equal(sent_globals, expected)


def test_halo_slots_covered_once(tiny_parts):
    for part in tiny_parts:
        part.validate()  # includes exactly-once coverage


def test_peers_symmetry(tiny_parts):
    for p in tiny_parts:
        for q in p.peers_in():
            assert p.part_id in tiny_parts[q].peers_out()


def test_marginal_matches_direct_check(tiny_dataset, tiny_book, tiny_parts):
    graph, book = tiny_dataset.graph, tiny_book
    for part in tiny_parts:
        for local_idx in np.random.default_rng(0).choice(
            part.n_owned, size=25, replace=False
        ):
            node = part.owned_global[local_idx]
            has_remote = any(
                book.part_of[nbr] != part.part_id for nbr in graph.neighbors(node)
            )
            assert bool(part.marginal_mask[local_idx]) == has_remote


def test_single_partition_has_no_halo(tiny_dataset, single_part_book):
    parts = build_local_partitions(tiny_dataset.graph, single_part_book)
    assert len(parts) == 1
    assert parts[0].n_halo == 0
    assert not parts[0].marginal_mask.any()
    assert parts[0].send_map == {} and parts[0].recv_map == {}


@st.composite
def graph_and_parts(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    m = draw(st.integers(min_value=n, max_value=4 * n))
    gen = np.random.default_rng(draw(st.integers(0, 2**31)))
    src = gen.integers(0, n, m)
    dst = gen.integers(0, n, m)
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    parts = gen.integers(0, k, n)
    parts[:k] = np.arange(k)  # guarantee non-empty parts
    return Graph.from_edges(src, dst, n), PartitionBook(
        part_of=parts.astype(np.int32), num_parts=k
    )


@given(graph_and_parts())
@settings(max_examples=40, deadline=None)
def test_property_local_parts_reconstruct_global_adjacency(case):
    """Sum of per-partition operators in local columns (the ``"sum"``
    aggregation: the 0/1 adjacency), mapped back to global ids through
    ``[owned_global, halo_global]``, equals the full adjacency."""
    graph, book = case
    parts = build_local_partitions(graph, book)
    full = graph.to_scipy()
    recon = sp.lil_matrix((graph.num_nodes, graph.num_nodes))
    for part in parts:
        rows = full[part.owned_global]
        coo = build_aggregation(part, rows, graph.degrees, "sum")[0].tocoo()
        col_ids = np.concatenate([part.owned_global, part.halo_global])[coo.col]
        for r, c in zip(part.owned_global[coo.row], col_ids):
            recon[r, c] = 1.0
    assert (recon.tocsr() != full).nnz == 0
