"""Trace-when-read gating: the tracer runs only on epochs a solve reads.

``AdaptiveBitWidthAssigner.set_epoch(e)`` solves from the traces of epoch
``e - 1`` at period boundaries and from nothing else, so exchanges skip
the tracer whenever ``wants_traces`` is false.  The contract pinned here:
skipping is invisible — a gated run and a run traced on every epoch reach
identical assignments at every boundary, identical losses and identical
wire bytes — and clusters driven by hand (no epoch hook) still trace.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import FusedQuantizedHaloExchange
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.comm.transport import Transport
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.core.config import RunConfig
from repro.core.trainer import train
from repro.quant.stochastic import KeyedRounding

PERIOD = 3
EPOCHS = 8


def _run(monkeypatch, dataset, book, *, force, **overrides):
    """Train ``adaqp``; returns (result, assignments per boundary, traced epochs)."""
    snapshots: list[dict] = []
    traced_epochs: set[int] = set()
    reassign = AdaptiveBitWidthAssigner.reassign
    observe = AdaptiveBitWidthAssigner.observe

    def recording_reassign(self):
        reassign(self)
        snapshots.append({k: v.copy() for k, v in self._assignments.items()})

    def recording_observe(self, *args):
        traced_epochs.add(self._epoch)
        observe(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(AdaptiveBitWidthAssigner, "reassign", recording_reassign)
        patch.setattr(AdaptiveBitWidthAssigner, "observe", recording_observe)
        if force:
            patch.setattr(
                AdaptiveBitWidthAssigner, "wants_traces", property(lambda self: True)
            )
        config = RunConfig(
            epochs=EPOCHS, hidden_dim=8, eval_every=EPOCHS,
            reassign_period=PERIOD, **overrides,
        )
        result = train("adaqp", dataset, book, "2M-2D", config)
    return result, snapshots, traced_epochs


@pytest.mark.parametrize(
    "overrides", [{}, {"transport": "worker:2"}], ids=["fused", "worker"]
)
def test_gated_run_equals_always_traced_run(
    monkeypatch, tiny_dataset, tiny_book, overrides
):
    gated, gated_snaps, gated_epochs = _run(
        monkeypatch, tiny_dataset, tiny_book, force=False, **overrides
    )
    forced, forced_snaps, forced_epochs = _run(
        monkeypatch, tiny_dataset, tiny_book, force=True, **overrides
    )
    # The gate really skipped: only the last epoch of each period traced.
    assert gated_epochs == {e for e in range(EPOCHS) if (e + 1) % PERIOD == 0}
    assert forced_epochs == set(range(EPOCHS))

    assert len(gated_snaps) == len(forced_snaps) == (EPOCHS - 1) // PERIOD
    for a, b in zip(gated_snaps, forced_snaps):
        assert a.keys() == b.keys()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
    assert gated.curve_loss == forced.curve_loss
    assert gated.wire_bytes_total == forced.wire_bytes_total
    assert gated.bit_histogram == forced.bit_histogram


def test_wants_traces_is_a_function_of_the_epoch_alone(tiny_dataset, tiny_book):
    cluster = Cluster(
        tiny_dataset, tiny_book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    assigner = AdaptiveBitWidthAssigner(cluster, cost, period=4)
    assert assigner.wants_traces  # no epoch hook has run yet
    for epoch in range(10):
        assigner.set_epoch(epoch)
        assert assigner.wants_traces == ((epoch + 1) % 4 == 0)
    assert AdaptiveBitWidthAssigner(cluster, cost, period=1).wants_traces


@pytest.mark.parametrize("exchange_cls", [FusedQuantizedHaloExchange])
def test_hand_driven_reassign_before_any_set_epoch_sees_traces(
    tiny_dataset, tiny_book, exchange_cls
):
    """No ``on_epoch_start`` ever runs here — the assigner must trace."""
    cluster = Cluster(
        tiny_dataset, tiny_book, model_kind="gcn", hidden_dim=8, num_layers=2,
        dropout=0.0, seed=0,
    )
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    assigner = AdaptiveBitWidthAssigner(cluster, cost, period=50, group_size=20)
    exchange = exchange_cls(assigner, KeyedRounding(0), tracer=assigner)
    transport = Transport(cluster.num_devices)
    features = [dev.features for dev in cluster.devices]
    exchange.finalize_step(
        exchange.post_step(0, "fwd", cluster.devices, transport, features)
    )

    expected = {
        ("fwd", 0, dev.rank, q)
        for dev in cluster.devices
        for q, rows in dev.part.send_map.items()
        if rows.size
    }
    assert set(assigner._traces) == expected
    assigner.reassign()
    assert assigner.num_reassignments == 1
    assert set(assigner._assignments) == expected
