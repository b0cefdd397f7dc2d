"""Halo exchanges: exact routing, quantized fidelity, bit providers."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
    UniformRandomBitProvider,
)
from repro.comm.transport import Transport
from repro.graph.partition.api import partition_graph
from repro.quant.stochastic import KeyedRounding


@pytest.fixture(scope="module")
def cluster(tiny_dataset):
    book = partition_graph(tiny_dataset.graph, 3, method="metis", seed=0)
    return Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )


def _features(cluster):
    return [dev.features for dev in cluster.devices]


def _fetch_halos(exchange, cluster, transport, values):
    """One forward step, both halves back to back."""
    step = exchange.post_step(0, "fwd", cluster.devices, transport, values)
    return exchange.finalize_step(step)


def test_exact_exchange_delivers_true_values(cluster):
    transport = Transport(cluster.num_devices)
    h = _features(cluster)
    halos = _fetch_halos(ExactHaloExchange(), cluster, transport, h)
    ds = cluster.dataset
    for dev, halo in zip(cluster.devices, halos):
        expected = ds.features[dev.part.halo_global]
        assert np.allclose(halo, expected)


def test_exact_gradient_routing_accumulates(cluster):
    transport = Transport(cluster.num_devices)
    d_halo = [
        np.ones((dev.part.n_halo, 4), dtype=np.float32) * (dev.rank + 1)
        for dev in cluster.devices
    ]
    d_own = [np.zeros((dev.part.n_owned, 4), dtype=np.float32) for dev in cluster.devices]
    exchange = ExactHaloExchange()
    step = exchange.post_step(0, "bwd", cluster.devices, transport, d_halo)
    exchange.finalize_step(step, out=d_own)
    for dev in cluster.devices:
        # Every boundary row got contributions from each peer whose halo
        # contains it: value = sum of (peer_rank + 1).
        expected = np.zeros((dev.part.n_owned,), dtype=np.float32)
        for q, rows in dev.part.send_map.items():
            expected_rows = np.zeros_like(expected)
            expected_rows[rows] = q + 1
            expected += expected_rows
        assert np.allclose(d_own[dev.rank][:, 0], expected)


def test_quantized_exchange_approximates_exact(cluster):
    transport = Transport(cluster.num_devices)
    h = _features(cluster)
    exchange = FusedQuantizedHaloExchange(FixedBitProvider(8), KeyedRounding(0))
    halos = _fetch_halos(exchange, cluster, transport, h)
    ds = cluster.dataset
    for dev, halo in zip(cluster.devices, halos):
        expected = ds.features[dev.part.halo_global]
        if halo.size == 0:
            continue
        scale = (expected.max(axis=1) - expected.min(axis=1)) / 255.0
        err = np.abs(halo - expected)
        assert (err <= scale[:, None] + 1e-5).all()


def test_quantized_exchange_wire_bytes_smaller(cluster):
    t_exact, t_quant = Transport(cluster.num_devices), Transport(cluster.num_devices)
    h = _features(cluster)
    _fetch_halos(ExactHaloExchange(), cluster, t_exact, h)
    quantized = FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0))
    _fetch_halos(quantized, cluster, t_quant, h)
    assert t_quant.total_bytes() < 0.3 * t_exact.total_bytes()


def _one_step_each_way(exchange, cluster):
    """Wire bytes, halo rows and accumulated gradients of one forward and
    one backward step (copied: the exchange may own the halo buffers)."""
    transport = Transport(cluster.num_devices)
    halos = [h.copy() for h in _fetch_halos(exchange, cluster, transport, _features(cluster))]
    gen = np.random.default_rng(0)
    d_halo = [
        gen.normal(size=(dev.part.n_halo, 5)).astype(np.float32)
        for dev in cluster.devices
    ]
    d_own = [np.ones((dev.part.n_owned, 5), dtype=np.float32) for dev in cluster.devices]
    step = exchange.post_step(0, "bwd", cluster.devices, transport, d_halo)
    exchange.finalize_step(step, out=d_own)
    return transport.total_bytes(), halos, d_own


@pytest.mark.parametrize(
    "make",
    [
        ExactHaloExchange,
        lambda: FusedQuantizedHaloExchange(FixedBitProvider(4), KeyedRounding(0)),
    ],
    ids=["float32", "quantized"],
)
def test_one_instance_serves_two_clusters(cluster, tiny_dataset, make):
    """Topology, plans and decode indices belong to one cluster: an instance
    moved to a differently partitioned cluster rebuilds them and delivers
    what a fresh instance delivers there (and back)."""
    book = partition_graph(tiny_dataset.graph, 3, method="random", seed=0)
    other = Cluster(
        tiny_dataset, book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )
    reused = make()
    for target in (cluster, other, cluster):
        got = _one_step_each_way(reused, target)
        want = _one_step_each_way(make(), target)
        assert got[0] == want[0]
        for a, b in zip(got[1] + got[2], want[1] + want[2]):
            assert a.tobytes() == b.tobytes()


def test_tracer_sees_every_transfer(cluster):
    class Recorder:
        def __init__(self):
            self.calls = []

        def observe(self, phase, layer, src, dst, rows):
            self.calls.append((phase, layer, src, dst, rows.shape))

    rec = Recorder()
    transport = Transport(cluster.num_devices)
    exchange = FusedQuantizedHaloExchange(
        FixedBitProvider(4), KeyedRounding(0), tracer=rec
    )
    _fetch_halos(exchange, cluster, transport, _features(cluster))
    expected_transfers = sum(len(d.part.send_map) for d in cluster.devices)
    assert len(rec.calls) == expected_transfers
    assert all(c[0] == "fwd" and c[1] == 0 for c in rec.calls)


def test_fixed_bit_provider():
    p = FixedBitProvider(4)
    assert np.all(p.bits_for(0, "fwd", 0, 1, 5) == 4)
    with pytest.raises(ValueError):
        FixedBitProvider(3)


def test_uniform_provider_stable_within_period():
    p = UniformRandomBitProvider(np.random.default_rng(0), period=10)
    p.set_epoch(0)
    a = p.bits_for(0, "fwd", 0, 1, 50).copy()
    p.set_epoch(5)
    b = p.bits_for(0, "fwd", 0, 1, 50)
    assert np.array_equal(a, b)
    p.set_epoch(10)  # period boundary: resample
    c = p.bits_for(0, "fwd", 0, 1, 50)
    assert not np.array_equal(a, c)


def test_uniform_provider_uses_all_choices():
    p = UniformRandomBitProvider(np.random.default_rng(0))
    bits = p.bits_for(0, "fwd", 0, 1, 300)
    assert set(np.unique(bits)) == {2, 4, 8}


def test_uniform_provider_validation():
    with pytest.raises(ValueError):
        UniformRandomBitProvider(np.random.default_rng(0), period=0)
    with pytest.raises(ValueError):
        UniformRandomBitProvider(np.random.default_rng(0), choices=(3,))
