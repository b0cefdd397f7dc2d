"""Aggregation coefficients: GCN/SAGE formulas and α² column sums."""

import numpy as np
import pytest
from reference.model import aggregate, aggregate_transpose

from repro.gnn.coefficients import build_aggregation
from repro.graph.graph import Graph
from repro.graph.io import SplitOperators
from repro.graph.partition.book import PartitionBook, build_local_partitions


def _aggregation(graph, part, kind):
    """``(P, halo_alpha_sq)`` of ``part`` over ``graph``'s global degrees."""
    deg = graph.degrees.astype(np.float64)
    return build_aggregation(part, graph.to_scipy()[part.owned_global], deg, kind)


def _path_setup():
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 4])
    graph = Graph.from_edges(src, dst, 5)
    book = PartitionBook(part_of=np.array([0, 0, 0, 1, 1]), num_parts=2)
    parts = build_local_partitions(graph, book)
    return graph, parts


def test_gcn_coefficients_manual():
    graph, parts = _path_setup()
    matrix, _ = _aggregation(graph, parts[0], "gcn")
    dense = matrix.toarray()
    # Partition 0 owns {0,1,2}; halo {3}. d_hat = deg + 1 = [2,3,3,3,2].
    # Row for node 0: self 1/2, neighbor 1: 1/sqrt(2*3).
    assert abs(dense[0, 0] - 0.5) < 1e-6
    assert abs(dense[0, 1] - 1 / np.sqrt(6)) < 1e-6
    # Node 2's remote neighbor 3 in halo column 3 (= n_owned + 0).
    assert abs(dense[2, 3] - 1 / np.sqrt(9)) < 1e-6


def test_gcn_matches_full_normalized_adjacency(tiny_dataset, tiny_parts):
    """Local weighted blocks replicate rows of the global Â = D̂^{-1/2}(A+I)D̂^{-1/2}."""
    graph = tiny_dataset.graph
    deg = graph.degrees.astype(np.float64)
    adj = graph.to_scipy()
    d_hat = deg + 1.0
    inv = 1.0 / np.sqrt(d_hat)
    import scipy.sparse as sp

    a_hat = sp.diags(inv) @ (adj + sp.identity(graph.num_nodes)) @ sp.diags(inv)
    a_hat = a_hat.tocsr()

    part = tiny_parts[1]
    matrix, _ = _aggregation(graph, part, "gcn")
    col_ids = np.concatenate([part.owned_global, part.halo_global])
    # Compare 10 random rows.
    rng = np.random.default_rng(0)
    for li in rng.choice(part.n_owned, 10, replace=False):
        gid = part.owned_global[li]
        local_row = np.zeros(graph.num_nodes)
        dense_row = matrix[li].toarray().ravel()
        local_row[col_ids] = dense_row
        global_row = a_hat[gid].toarray().ravel()
        assert np.allclose(local_row, global_row, atol=1e-6)


def test_sage_rows_sum_to_one(tiny_dataset, tiny_parts):
    """Mean aggregation over the *global* neighborhood: each row's local
    coefficients sum to 1 (all 1-hop neighbors appear locally or as halo)."""
    deg = tiny_dataset.graph.degrees.astype(np.float64)
    part = tiny_parts[0]
    matrix, _ = _aggregation(tiny_dataset.graph, part, "sage")
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    nonzero_deg = deg[part.owned_global] > 0
    assert np.allclose(sums[nonzero_deg], 1.0, atol=1e-5)


def test_sum_kind_binary(tiny_parts, tiny_dataset):
    matrix, _ = _aggregation(tiny_dataset.graph, tiny_parts[0], "sum")
    assert set(np.unique(matrix.data)) == {1.0}


def test_halo_alpha_sq_matches_direct(tiny_dataset, tiny_parts):
    part = tiny_parts[2]
    matrix, halo_alpha_sq = _aggregation(tiny_dataset.graph, part, "gcn")
    squared = matrix.copy()
    squared.data = squared.data**2
    direct = np.asarray(squared.sum(axis=0)).ravel()[part.n_owned :]
    assert np.allclose(halo_alpha_sq, direct)
    assert halo_alpha_sq.shape == (part.n_halo,)
    assert (halo_alpha_sq > 0).all()  # every halo column is referenced


def test_nnz_for_rows(tiny_dataset, tiny_parts):
    part = tiny_parts[0]
    matrix, _ = _aggregation(tiny_dataset.graph, part, "gcn")
    agg = SplitOperators.split(matrix, part.n_owned)
    assert agg.nnz == matrix.nnz
    full = agg.nnz_for_rows(np.ones(part.n_owned, dtype=bool))
    none = agg.nnz_for_rows(np.zeros(part.n_owned, dtype=bool))
    central = agg.nnz_for_rows(part.central_mask)
    assert full == agg.nnz and none == 0
    assert 0 < central < full


def test_invalid_kind_rejected(tiny_dataset, tiny_parts):
    with pytest.raises(ValueError):
        _aggregation(tiny_dataset.graph, tiny_parts[0], "max")


def test_aggregate_shape_checks(tiny_dataset, tiny_parts):
    part = tiny_parts[0]
    matrix, _ = _aggregation(tiny_dataset.graph, part, "gcn")
    with pytest.raises(ValueError):
        aggregate(matrix, np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        aggregate_transpose(matrix, np.zeros((part.n_owned + 1, 4), dtype=np.float32))
