"""SANCUS-style exchange: bounded-staleness broadcasts, dropped gradients."""

import numpy as np
import pytest

from repro.baselines.sancus import BroadcastSkipExchange
from repro.cluster.cluster import Cluster
from repro.comm.transport import Transport
from repro.graph.partition.api import partition_graph


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    book = partition_graph(tiny_dataset.graph, 3, method="metis", seed=0)
    return Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )


def _embeddings(exchange, cluster, transport, h):
    """One forward exchange step, both halves back to back."""
    step = exchange.post_step(0, "fwd", cluster.devices, transport, h)
    return exchange.finalize_step(step)


def _gradients(exchange, cluster, transport, d_halo, d_own):
    """One backward exchange step, accumulating into ``d_own``."""
    step = exchange.post_step(0, "bwd", cluster.devices, transport, d_halo)
    exchange.finalize_step(step, out=d_own)


def test_broadcast_cadence(cluster):
    exchange = BroadcastSkipExchange(staleness_bound=3)
    transport = Transport(cluster.num_devices)
    h = [dev.features for dev in cluster.devices]
    for epoch in range(6):
        exchange.on_epoch_start(epoch)
        before = transport.total_bytes()
        _embeddings(exchange, cluster, transport, h)
        sent = transport.total_bytes() - before
        if epoch % 3 == 0:
            assert sent > 0
        else:
            assert sent == 0


def test_historical_values_served_on_skip_epochs(cluster):
    exchange = BroadcastSkipExchange(staleness_bound=4)
    transport = Transport(cluster.num_devices)
    h0 = [dev.features for dev in cluster.devices]
    exchange.on_epoch_start(0)
    fresh = _embeddings(exchange, cluster, transport, h0)
    h1 = [f + 42.0 for f in h0]
    exchange.on_epoch_start(1)
    stale = _embeddings(exchange, cluster, transport, h1)
    for a, b in zip(fresh, stale):
        assert np.allclose(a, b)  # epoch-1 values not visible yet


def test_full_block_broadcast_bytes(cluster):
    """SANCUS ships whole partition blocks, not boundary rows."""
    exchange = BroadcastSkipExchange(staleness_bound=1)
    transport = Transport(cluster.num_devices)
    h = [dev.features for dev in cluster.devices]
    exchange.on_epoch_start(0)
    _embeddings(exchange, cluster, transport, h)
    expected = sum(
        dev.features.nbytes * len(dev.part.peers_out()) for dev in cluster.devices
    )
    assert transport.total_bytes() == expected


def test_gradients_dropped(cluster):
    exchange = BroadcastSkipExchange()
    transport = Transport(cluster.num_devices)
    d_halo = [np.ones((dev.part.n_halo, 4), dtype=np.float32) for dev in cluster.devices]
    d_own = [np.zeros((dev.part.n_owned, 4), dtype=np.float32) for dev in cluster.devices]
    _gradients(exchange, cluster, transport, d_halo, d_own)
    assert transport.total_bytes() == 0
    assert all(np.all(d == 0) for d in d_own)


def test_state_dict_keeps_the_v1_layout_and_resumes(cluster):
    """Historical blocks checkpoint as ``historical``: (layer, dst) → src →
    block (checkpoint format 1).  A state that still carries the retired
    skip counters loads, and serves what the original serves next."""
    h0 = [dev.features for dev in cluster.devices]
    exchange = BroadcastSkipExchange(staleness_bound=4)
    transport = Transport(cluster.num_devices)
    exchange.on_epoch_start(0)
    _embeddings(exchange, cluster, transport, h0)
    state = exchange.state_dict()
    assert list(state) == ["historical"]
    for (layer, dst), hist in state["historical"].items():
        assert layer == 0 and sorted(hist) == sorted(cluster.devices[dst].part.recv_map)
        for src, block in hist.items():
            np.testing.assert_array_equal(block, h0[src])
    restored = BroadcastSkipExchange(staleness_bound=4)
    restored.load_state_dict({**state, "broadcasts_sent": 3, "broadcasts_skipped": 0})
    h1 = [f + 5.0 for f in h0]
    for ex in (exchange, restored):
        ex.on_epoch_start(1)
    got = _embeddings(restored, cluster, Transport(cluster.num_devices), h1)
    want = _embeddings(exchange, cluster, transport, h1)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_invalid_bound_rejected():
    with pytest.raises(ValueError):
        BroadcastSkipExchange(staleness_bound=0)


def test_training_end_to_end(tiny_single_label_dataset):
    from repro.core.config import RunConfig
    from repro.core.trainer import train

    ds = tiny_single_label_dataset
    book = partition_graph(ds.graph, 4, method="metis", seed=0)
    cfg = RunConfig(epochs=10, hidden_dim=16, eval_every=10, dropout=0.0)
    res = train("sancus", ds, book, "2M-2D", cfg)
    assert np.isfinite(res.final_val)
    assert res.final_val > 0.3  # learns despite staleness and dropped grads
