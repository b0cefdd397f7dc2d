"""Huge-graph mode equivalence (ISSUE 10 tentpole).

The headline contract: training out of core — features, labels and
operators memmapped from the partition store, paged in one device window
at a time — produces the **same** losses, wire bytes and eval curves as
training the same store fully materialized in RAM.  Not approximately,
bitwise.  Three angles pin it down:

* stream vs. materialize over the same store (the benchmark's two arms);
* stream engine vs. the standard in-RAM engine on the globally
  reconstructed dataset (the store holds an isomorphic renumbering of
  the generated graph — boundary-first within each partition — so the
  reconstruction trains identically through the ordinary path);
* the worker transport vs. sync on the streaming arm (the existing
  transport contract must survive memmapped inputs).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.config import RunConfig
from repro.core.trainer import train
from repro.graph.datasets import DatasetSpec, GraphDataset
from repro.graph.graph import Graph
from repro.graph.partition.book import PartitionBook


def _run_cfg(**overrides):
    base = dict(
        epochs=3,
        hidden_dim=16,
        num_layers=3,
        dropout=0.5,
        seed=7,
        eval_every=1,
        transport="sync",
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module", params=[16, 32])
def hidden(request):
    """The layer-shape axis: ``huge_store`` is 24 features → 7 classes, so
    hidden 16 streams layer 0 transform-first (``T = features_k·W`` off
    the memmap, no ``stream_z0`` scratch, no backward recompute) and
    hidden 32 aggregate-first (the scratch-and-recompute branch); the
    output layer transforms first in both."""
    return request.param


@pytest.fixture(scope="module")
def stream_run(huge_store, hidden):
    """The reference arm: adaqp over the memmapped store, sync transport."""
    return train(
        "adaqp",
        huge_store.dataset(),
        huge_store.book(),
        "2M-2D",
        _run_cfg(hidden_dim=hidden),
    )


def test_stream_matches_materialized_bitwise(huge_store, stream_run, hidden):
    inram = train(
        "adaqp",
        huge_store.dataset(materialize=True),
        huge_store.book(),
        "2M-2D",
        _run_cfg(hidden_dim=hidden),
    )
    assert stream_run.curve_loss == inram.curve_loss
    assert stream_run.wire_bytes_total == inram.wire_bytes_total
    assert stream_run.curve_val == inram.curve_val
    assert stream_run.curve_test == inram.curve_test


def _reconstruct_global_dataset(store):
    """Assemble the store's graph/attributes into an ordinary dataset.

    The store's global numbering (contiguous partition ranges,
    boundary-first within each) *is* the graph — reading every
    partition's edges back off its operator quartet's pattern (the GCN
    own block minus its diagonal, which is the folded-in self term, and
    the halo block; the graph has no self-loops) and re-gluing them
    yields the exact dataset the standard in-RAM path would train on.
    """
    n = store.num_nodes
    bounds = store.part_bounds
    spec = store.spec
    feats = np.zeros((n, spec.num_features), np.float32)
    labels = np.zeros(n, np.int64)
    masks = [np.zeros(n, bool) for _ in range(3)]
    rows_all, cols_all = [], []
    for p in range(store.num_parts):
        spart = store.partition(p, materialize=True)
        part = spart.part
        own, halo = spart.ops.own.tocoo(), spart.ops.halo.tocoo()
        edge = own.row != own.col
        rows_all += [part.owned_global[own.row[edge]], part.owned_global[halo.row]]
        cols_all += [part.owned_global[own.col[edge]], part.halo_global[halo.col]]
        s, e = int(bounds[p]), int(bounds[p + 1])
        feats[s:e] = spart.features
        labels[s:e] = spart.labels
        for mask, local in zip(
            masks, (spart.train_mask, spart.val_mask, spart.test_mask)
        ):
            mask[s:e] = local
    rows = np.concatenate(rows_all)
    cols = np.concatenate(cols_all)
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj.sum_duplicates()
    adj.sort_indices()
    graph = Graph(
        indptr=adj.indptr.astype(np.int64),
        indices=adj.indices.astype(np.int64),
    )
    ds = GraphDataset(
        DatasetSpec(
            name="huge-reconstructed",
            paper_name="huge-reconstructed",
            num_nodes=n,
            avg_degree=spec.avg_degree,
            num_features=spec.num_features,
            num_classes=spec.num_classes,
            multilabel=False,
        ),
        graph,
        feats,
        labels,
        *masks,
    )
    book = PartitionBook(
        part_of=np.repeat(
            np.arange(store.num_parts, dtype=np.int64), np.diff(bounds)
        ),
        num_parts=store.num_parts,
    )
    return ds, book


@pytest.mark.parametrize("system", ["vanilla", "adaqp-fixed"])
def test_stream_matches_standard_engine(huge_store, system, hidden):
    """The streaming engine vs. the ordinary in-RAM path on the same graph.

    The store run executes the plain step and the in-RAM adaqp-fixed run
    the split one, which computes the same bits; the streaming engine's
    only structural wire delta (it skips the layer-0 backward
    gradient exchange — input features are not trainable) affects neither
    system here: vanilla sends exact payloads both ways and adaqp-fixed's
    layer-0 gradients never feed a parameter update.
    """
    cfg = _run_cfg(hidden_dim=hidden)
    streamed = train(
        system, huge_store.dataset(), huge_store.book(), "2M-2D", cfg
    )
    gds, book = _reconstruct_global_dataset(huge_store)
    standard = train(system, gds, book, "2M-2D", cfg)
    assert streamed.curve_loss == standard.curve_loss
    assert streamed.curve_val == standard.curve_val
    assert streamed.curve_test == standard.curve_test


@pytest.mark.parametrize("spec", ["worker:2"])
def test_stream_transports_bitwise(huge_store, stream_run, spec, hidden):
    run = train(
        "adaqp",
        huge_store.dataset(),
        huge_store.book(),
        "2M-2D",
        _run_cfg(transport=spec, hidden_dim=hidden),
    )
    assert run.curve_loss == stream_run.curve_loss
    assert run.wire_bytes_total == stream_run.wire_bytes_total


def test_streaming_estimate_below_materialized(huge_store):
    """The analytic model must predict streaming's headroom: a streaming
    cluster's estimated peak stays below the store's materialized bytes
    plus the shared scratch — the inequality the benchmark measures."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.memory import estimate_memory, estimate_peak_resident

    cluster = Cluster(
        huge_store.dataset(),
        huge_store.book(),
        model_kind="gcn",
        hidden_dim=16,
        num_layers=2,
        dropout=0.0,
        seed=0,
    )
    try:
        fps = estimate_memory(cluster)
        assert all(fp.streaming for fp in fps)
        assert all(fp.memmap_window_bytes > 0 for fp in fps)
        # Only one window is resident at once: the peak estimate must
        # undercut the naive all-windows sum whenever there are > 1 parts.
        naive = sum(fp.resident_bytes for fp in fps)
        assert estimate_peak_resident(cluster) < naive + huge_store.materialized_bytes()
    finally:
        cluster.close()
