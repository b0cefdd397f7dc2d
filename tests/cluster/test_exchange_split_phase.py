"""The split-phase exchange API: post_step → in-flight → finalize_step.

Every policy must satisfy the same contract: the two halves deliver exactly
what the reference's one-shot exchange delivers (values *and* wire bytes),
payloads are snapshotted at post time so sources may be mutated while in
flight, and a handle finalizes exactly once.
"""

import numpy as np
import pytest
from reference import oracle

from repro.baselines.pipegcn import StaleHaloExchange
from repro.baselines.sancus import BroadcastSkipExchange
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
    StepInFlightError,
)
from repro.cluster.runtime import build_devices
from repro.comm.transport import Transport
from repro.quant.stochastic import KeyedRounding


@pytest.fixture(scope="module")
def devices(tiny_dataset, tiny_book):
    return build_devices(tiny_dataset, tiny_book, model_kind="gcn", seed=0)


def _values(devices, dim, seed=0, halo=False):
    gen = np.random.default_rng(seed)
    return [
        gen.normal(
            size=(d.part.n_halo if halo else d.part.n_owned, dim)
        ).astype(np.float32)
        for d in devices
    ]


def _halos(devices, dim):
    """Forward destinations: one halo buffer per device."""
    return [np.zeros((d.part.n_halo, dim), dtype=np.float32) for d in devices]


class _MixedBits:
    """Row ``i`` of every message at ``(2, 4, 8)[i % 3]`` bits: payloads
    with three bit-width groups, the permuted (non-identity) plan layout."""

    def bits_for(self, layer, phase, src, dst, n_rows):
        return np.array([2, 4, 8])[np.arange(n_rows) % 3]


#: name -> (production exchange, the reference policy stating what it delivers)
EXCHANGES = {
    "exact": (ExactHaloExchange, oracle.ExactPolicy),
    "fused-quantized": (
        lambda: FusedQuantizedHaloExchange(FixedBitProvider(4), KeyedRounding(3)),
        lambda: oracle.QuantizedPolicy(oracle.FixedBits(4), KeyedRounding(3)),
    ),
    "quantized": (  # mixed widths within each message
        lambda: FusedQuantizedHaloExchange(_MixedBits(), KeyedRounding(3)),
        lambda: oracle.QuantizedPolicy(_MixedBits(), KeyedRounding(3)),
    ),
    "stale": (StaleHaloExchange, oracle.StalePolicy),
    "broadcast": (lambda: BroadcastSkipExchange(2), lambda: oracle.BroadcastPolicy(2)),
}


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_split_equals_monolithic_forward(devices, name):
    dim = 6
    h = _values(devices, dim)
    exchange, policy = (make() for make in EXCHANGES[name])
    transport = Transport(len(devices))

    mail, wire = policy.exchange("fwd", 0, devices, h)
    got = _halos(devices, dim)
    step = exchange.post_step(0, "fwd", devices, transport, h, out=got)
    # Mutating the source after post must not change what was shipped.
    for arr in h:
        arr += 100.0
    exchange.finalize_step(step)
    for dev, halo in zip(devices, got):
        assert sum(len(dev.part.recv_map[src]) for src in mail[dev.rank]) == len(halo)
        for src, rows in mail[dev.rank].items():
            assert np.array_equal(halo[dev.part.recv_map[src]], rows)
    assert transport.total_bytes() == wire


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_split_equals_monolithic_backward(devices, name):
    dim = 6
    d_halo = _values(devices, dim, seed=1, halo=True)
    exchange, policy = (make() for make in EXCHANGES[name])
    transport = Transport(len(devices))

    mail, wire = policy.exchange("bwd", 0, devices, d_halo)
    # Every policy adds its sources into the owned rows one by one, ascending.
    expected = [np.zeros((d.part.n_owned, dim), dtype=np.float32) for d in devices]
    for dev in devices:
        for src in sorted(mail[dev.rank]):
            expected[dev.rank][dev.part.send_map[src]] += mail[dev.rank][src]
    d_own = [np.zeros_like(v) for v in expected]
    step = exchange.post_step(0, "bwd", devices, transport, d_halo, out=d_own)
    for arr in d_halo:
        arr += 100.0
    exchange.finalize_step(step)
    for e, g in zip(expected, d_own):
        assert np.array_equal(e, g)
    assert transport.total_bytes() == wire


def test_forward_finalize_fills_out_buffers(devices):
    dim = 4
    h = _values(devices, dim)
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    out = [
        np.full((d.part.n_halo, dim), 7.0, dtype=np.float32) for d in devices
    ]
    step = exchange.post_step(0, "fwd", devices, transport, h, out=out)
    assert exchange.finalize_step(step) is None
    for dev, buf in zip(devices, out):
        for src, rows in dev.part.recv_map.items():
            sent = h[src][devices[src].part.send_map[dev.rank]]
            assert np.array_equal(buf[rows], sent)
        assert not (buf == 7.0).any()


def test_handle_finalizes_exactly_once(devices):
    h = _values(devices, 4)
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    step = exchange.post_step(0, "fwd", devices, transport, h, out=_halos(devices, 4))
    exchange.finalize_step(step)
    with pytest.raises(RuntimeError, match="finalized twice"):
        exchange.finalize_step(step)


@pytest.mark.parametrize("name", sorted(EXCHANGES))
def test_one_step_is_in_flight_at_a_time(devices, name):
    """Posting while the previous step has not entered ``finalize_step``
    raises a typed error naming both tags and posts nothing; the first step
    then lands as usual, and a post that fails its checks leaves the
    exchange free for the next one."""
    h = _values(devices, 4)
    exchange = EXCHANGES[name][0]()
    transport = Transport(len(devices))
    got = _halos(devices, 4)
    step = exchange.post_step(0, "fwd", devices, transport, h, out=got)
    with pytest.raises(StepInFlightError, match=r"'fwd/L1'.*'fwd/L0'"):
        exchange.post_step(1, "fwd", devices, transport, h, out=_halos(devices, 4))
    assert transport.pending_bytes("fwd/L1") == 0
    exchange.finalize_step(step)
    mail, _ = EXCHANGES[name][1]().exchange("fwd", 0, devices, h)
    for dev, buf in zip(devices, got):
        for src, rows in mail[dev.rank].items():
            assert np.array_equal(buf[dev.part.recv_map[src]], rows)
    with pytest.raises(ValueError, match="expected"):
        exchange.post_step(1, "fwd", devices, transport, h, out=_halos(devices, 5))
    exchange.finalize_step(
        exchange.post_step(1, "fwd", devices, transport, h, out=_halos(devices, 4))
    )


def test_post_step_requires_out(devices):
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    with pytest.raises(TypeError, match="out"):
        exchange.post_step(0, "bwd", devices, transport, _values(devices, 4, halo=True))
    with pytest.raises(TypeError, match="out"):
        exchange.post_step(0, "fwd", devices, transport, _values(devices, 4))


def test_post_step_rejects_misshapen_destinations(devices):
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    with pytest.raises(ValueError, match="expected"):
        exchange.post_step(
            0, "fwd", devices, transport, _values(devices, 4), out=_halos(devices, 5)
        )


def test_post_step_rejects_unknown_phase(devices):
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    with pytest.raises(ValueError):
        exchange.post_step(
            0, "sideways", devices, transport, _values(devices, 4), out=_halos(devices, 4)
        )


def test_in_flight_bytes_visible_between_halves(devices):
    h = _values(devices, 4)
    exchange = ExactHaloExchange()
    transport = Transport(len(devices))
    assert transport.pending_bytes("fwd/L0") == 0
    step = exchange.post_step(0, "fwd", devices, transport, h, out=_halos(devices, 4))
    pending = transport.pending_bytes(step.tag)
    assert pending == transport.bytes_matrix(step.tag).sum() > 0
    exchange.finalize_step(step)
    assert transport.pending_bytes(step.tag) == 0
