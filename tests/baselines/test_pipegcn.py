"""PipeGCN-style staleness: warm-up sync, one-epoch-stale afterwards."""

import numpy as np
import pytest

from repro.baselines.pipegcn import StaleHaloExchange
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
    """One forward exchange step, both halves back to back; returns the
    halo buffers it landed in."""
    halos = [
        np.zeros((dev.part.n_halo, h[dev.rank].shape[1]), dtype=np.float32)
        for dev in cluster.devices
    ]
    step = exchange.post_step(0, "fwd", cluster.devices, transport, h, out=halos)
    exchange.finalize_step(step)
    return halos


def _gradients(exchange, cluster, transport, d_halo, d_own):
    """One backward exchange step, accumulating into ``d_own``."""
    step = exchange.post_step(0, "bwd", cluster.devices, transport, d_halo, out=d_own)
    exchange.finalize_step(step)


def test_warmup_epoch_is_synchronous(cluster):
    exchange = StaleHaloExchange()
    transport = Transport(cluster.num_devices)
    h = [dev.features for dev in cluster.devices]
    exchange.on_epoch_start(0)
    halos = _embeddings(exchange, cluster, transport, h)
    for dev, halo in zip(cluster.devices, halos):
        expected = cluster.dataset.features[dev.part.halo_global]
        assert np.allclose(halo, expected)


def test_second_epoch_uses_previous_values(cluster):
    exchange = StaleHaloExchange()
    transport = Transport(cluster.num_devices)
    h0 = [dev.features for dev in cluster.devices]
    exchange.on_epoch_start(0)
    _embeddings(exchange, cluster, transport, h0)
    # Epoch 1 sends completely different values; receivers must still see
    # the epoch-0 values (one-epoch staleness).
    h1 = [f + 100.0 for f in h0]
    exchange.on_epoch_start(1)
    halos = _embeddings(exchange, cluster, transport, h1)
    for dev, halo in zip(cluster.devices, halos):
        expected = cluster.dataset.features[dev.part.halo_global]
        assert np.allclose(halo, expected)  # NOT the +100 values
    # Epoch 2 sees epoch 1's values.
    exchange.on_epoch_start(2)
    halos2 = _embeddings(exchange, cluster, transport, h1)
    for dev, halo in zip(cluster.devices, halos2):
        expected = cluster.dataset.features[dev.part.halo_global] + 100.0
        assert np.allclose(halo, expected)


def test_gradients_also_stale(cluster):
    exchange = StaleHaloExchange()
    transport = Transport(cluster.num_devices)
    ones = [np.ones((dev.part.n_halo, 4), dtype=np.float32) for dev in cluster.devices]
    twos = [2 * o for o in ones]
    d_own_a = [np.zeros((dev.part.n_owned, 4), dtype=np.float32) for dev in cluster.devices]
    _gradients(exchange, cluster, transport, ones, d_own_a)
    d_own_b = [np.zeros((dev.part.n_owned, 4), dtype=np.float32) for dev in cluster.devices]
    _gradients(exchange, cluster, transport, twos, d_own_b)
    # Warm-up delivered the "ones"; second call delivers stale "ones" again.
    for a, b in zip(d_own_a, d_own_b):
        assert np.allclose(a, b)


def test_bytes_still_flow_every_epoch(cluster):
    """Staleness overlaps communication; it does not remove it."""
    exchange = StaleHaloExchange()
    transport = Transport(cluster.num_devices)
    h = [dev.features for dev in cluster.devices]
    _embeddings(exchange, cluster, transport, h)
    first = transport.total_bytes()
    _embeddings(exchange, cluster, transport, h)
    assert transport.total_bytes() == 2 * first


def test_training_with_staleness_converges(tiny_single_label_dataset):
    from repro.core.config import RunConfig
    from repro.core.trainer import train
    from repro.graph.partition.api import partition_graph as pg

    ds = tiny_single_label_dataset
    book = pg(ds.graph, 4, method="metis", seed=0)
    cfg = RunConfig(epochs=12, hidden_dim=16, eval_every=12, dropout=0.0, model_kind="sage")
    stale = train("pipegcn", ds, book, "2M-2D", cfg)
    exact = train("vanilla", ds, book, "2M-2D", cfg)
    assert stale.final_val > 0.5 * exact.final_val  # converges, maybe slower


def test_state_dict_keeps_the_v1_layout_and_resumes(cluster):
    """The cache checkpoints as ``fwd_cache`` / ``bwd_cache``: layer → dst
    → src → rows (checkpoint format 1), and a restored exchange serves
    exactly what the original serves next."""
    h0 = [dev.features for dev in cluster.devices]
    h1 = [f + 1.0 for f in h0]
    exchange = StaleHaloExchange()
    transport = Transport(cluster.num_devices)
    _embeddings(exchange, cluster, transport, h0)
    state = exchange.state_dict()
    assert sorted(state) == ["bwd_cache", "fwd_cache"] and state["bwd_cache"] == {}
    for dev in cluster.devices:
        for src, rows in state["fwd_cache"][0][dev.rank].items():
            sent = cluster.devices[src].part.send_map[dev.rank]
            np.testing.assert_array_equal(rows, h0[src][sent])
    restored = StaleHaloExchange()
    restored.load_state_dict(state)
    got = _embeddings(restored, cluster, Transport(cluster.num_devices), h1)
    want = _embeddings(exchange, cluster, transport, h1)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_staleness_is_full_precision_only():
    from repro.cluster.exchange import FixedBitProvider, FusedQuantizedHaloExchange
    from repro.quant.stochastic import KeyedRounding

    with pytest.raises(ValueError, match="full precision only"):
        FusedQuantizedHaloExchange(FixedBitProvider(4), KeyedRounding(0), lag=1)
