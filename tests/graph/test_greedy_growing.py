"""Greedy region growing: the CSR-row frontier update is the dense one.

``_greedy_growing`` used to densify the absorbed node's adjacency row
(``adj[[cand]].todense()``, O(n) per node); it now updates the frontier
from the CSR row alone.  The dense formulation lives on here, as the
reference the production loop must reproduce exactly — on drawn weighted
graphs with disconnected frontiers, zero-weight edges, ties and
non-canonical storage — and the two benchmark graphs' partitions are frozen.
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.datasets import load_dataset
from repro.graph.partition.api import partition_graph
from repro.graph.partition.metis_like import _greedy_growing


def _greedy_growing_dense(adj, node_w, k):
    """The former implementation, verbatim: one densified row per node."""
    n = adj.shape[0]
    parts = np.full(n, -1, dtype=np.int64)
    target = node_w.sum() / k
    degrees = np.asarray(adj.sum(axis=1)).ravel()

    for p in range(k - 1):
        unassigned = parts < 0
        if not unassigned.any():
            break
        seed = int(np.flatnonzero(unassigned)[np.argmax(degrees[unassigned])])
        parts[seed] = p
        weight = node_w[seed]
        conn = np.asarray(adj[[seed]].todense()).ravel().astype(np.float64)
        conn[parts >= 0] = -np.inf
        while weight < target:
            cand = int(np.argmax(conn))
            if not np.isfinite(conn[cand]) or conn[cand] <= 0:
                rest = parts < 0
                if not rest.any():
                    break
                cand = int(np.flatnonzero(rest)[np.argmax(degrees[rest])])
            parts[cand] = p
            weight += node_w[cand]
            conn += np.asarray(adj[[cand]].todense()).ravel()
            conn[parts >= 0] = -np.inf
    parts[parts < 0] = k - 1
    return parts


@st.composite
def weighted_graphs(draw):
    """Symmetric weighted adjacency in CSR: several components (so frontiers
    run dry), small integer weights including explicit zeros (so argmax
    ties and zero-strength frontiers happen), node weights, a part count."""

    def ints(lo, hi, size, dtype=np.int64):
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=dtype)

    n = draw(st.integers(2, 40))
    n_edges = draw(st.integers(0, 3 * n))
    components = draw(st.integers(1, 4))
    src = ints(0, n - 1, n_edges)
    dst = (src + ints(1, n - 1, n_edges)) % n
    keep = (src % components) == (dst % components)  # no edge between components
    src, dst = src[keep], dst[keep]
    half = sp.coo_matrix((ints(0, 3, src.size, np.float64), (src, dst)), shape=(n, n))
    adj = (half + half.T).tocsr()  # explicit zeros survive; duplicates are summed
    return adj, ints(1, 4, n, np.float64), draw(st.integers(2, min(n, 6)))


@settings(max_examples=150, deadline=None)
@given(weighted_graphs())
def test_csr_row_update_equals_dense_formulation(case):
    adj, node_w, k = case
    rng = np.random.default_rng(0)  # unused by either loop; part of the signature
    assert np.array_equal(
        _greedy_growing(adj, node_w, k, rng), _greedy_growing_dense(adj, node_w, k)
    )


def test_non_canonical_storage_is_normalized_first():
    """Duplicate entries and unsorted indices (what sparse products emit)
    must not be lost by the fancy-index ``+=``: the dense row sums them."""
    indptr = np.array([0, 3, 5, 7, 8])
    indices = np.array([2, 1, 1, 0, 0, 0, 3, 2])  # row 0 names node 1 twice
    data = np.array([1.0, 2.0, 3.0, 2.0, 3.0, 1.0, 4.0, 4.0])
    adj = sp.csr_matrix((data, indices, indptr), shape=(4, 4))
    assert not adj.has_canonical_format
    node_w = np.ones(4)
    got = _greedy_growing(adj, node_w, 2, np.random.default_rng(0))
    assert np.array_equal(got, _greedy_growing_dense(adj, node_w, 2))
    assert not adj.has_canonical_format  # the caller's matrix is left alone


@pytest.mark.parametrize(
    "dataset, parts, frozen",
    [("ogbn-products", 8, "4f0425f301f9eccd"), ("reddit", 16, "9b6e708aa0c8e7f9")],
)
def test_benchmark_partitions_are_frozen(dataset, parts, frozen):
    """The e2e workloads' partitions (``benchmarks/e2e/workloads.py``: small
    scale, seed 0) are the ones the dense loop produced: every digest,
    wire-byte count and halo size downstream depends on them."""
    graph = load_dataset(dataset, scale="small", seed=0).graph
    book = partition_graph(graph, parts, method="metis", seed=0)
    digest = hashlib.sha256(book.part_of.astype(np.int32).tobytes()).hexdigest()
    assert digest[:16] == frozen
