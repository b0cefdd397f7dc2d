"""Cluster executor: the distributed-equals-serial contract and accounting."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
)
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook
from repro.nn.metrics import task_metric
from repro.nn.optim import Adam
from repro.quant.stochastic import KeyedRounding


def _cluster(ds, k, kind="gcn", dropout=0.0, seed=7, hidden=16):
    if k == 1:
        book = PartitionBook(part_of=np.zeros(ds.num_nodes, dtype=np.int32), num_parts=1)
    else:
        book = partition_graph(ds.graph, k, method="metis", seed=0)
    return Cluster(
        ds, book, model_kind=kind, hidden_dim=hidden, num_layers=3,
        dropout=dropout, seed=seed,
    )


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_distributed_equals_single_machine(tiny_dataset, kind):
    """K devices with exact exchange reproduce 1-device loss and gradients
    to float32 tolerance (the paper's premise: Vanilla is exact)."""
    c1 = _cluster(tiny_dataset, 1, kind)
    c4 = _cluster(tiny_dataset, 4, kind)
    r1 = c1.train_epoch(ExactHaloExchange(), 0)
    r4 = c4.train_epoch(ExactHaloExchange(), 0)
    assert abs(r1.loss - r4.loss) < 1e-5
    g1 = c1.model.grad_vector()
    g4 = c4.model.grad_vector()
    rel = np.abs(g1 - g4).max() / (np.abs(g1).max() + 1e-12)
    assert rel < 1e-4


def test_replicas_start_identical(tiny_dataset):
    """What the paper's K replicas share, the cluster holds once: no device
    carries a model, and the weights are the shared init stream's draws
    whatever the partition count."""
    c = _cluster(tiny_dataset, 4)
    assert not any(hasattr(dev, "model") for dev in c.devices)
    one = _cluster(tiny_dataset, 1).model.state_dict()
    for k, v in c.model.state_dict().items():
        assert np.array_equal(v, one[k])


def test_replicas_stay_identical_after_step(tiny_dataset):
    """Every device computes with the one parameter set the one optimizer
    steps: the engine reads ``cluster.model`` and writes its ``grad``."""
    c = _cluster(tiny_dataset, 3, dropout=0.5)
    opt = Adam(c.model.parameters(), lr=0.01)
    for epoch in range(3):
        c.train_epoch(ExactHaloExchange(), epoch)
        opt.step()
    engine = c._compute_engine()
    assert engine.model is c.model
    assert [id(p) for p in engine._params] == [id(p) for p in opt.params]
    assert not any(hasattr(dev, "model") for dev in c.devices)


def test_loss_decreases_with_training(tiny_single_label_dataset):
    c = _cluster(tiny_single_label_dataset, 2, hidden=16)
    opt = Adam(c.model.parameters(), lr=0.01)
    losses = []
    for epoch in range(15):
        rec = c.train_epoch(ExactHaloExchange(), epoch)
        opt.step()
        losses.append(rec.loss)
    assert losses[-1] < 0.8 * losses[0]
    # And the trajectory is (weakly) monotone after warm-up.
    assert all(b <= a + 1e-6 for a, b in zip(losses[2:], losses[3:]))


def test_quantized_training_converges_close_to_exact(tiny_single_label_dataset):
    def run(exchange_factory):
        c = _cluster(tiny_single_label_dataset, 4, hidden=16)
        opt = Adam(c.model.parameters(), lr=0.01)
        for epoch in range(12):
            c.train_epoch(exchange_factory(), epoch)
            opt.step()
        return c.evaluate()["val"]

    exact = run(ExactHaloExchange)
    rounding = KeyedRounding(0)
    quant = run(lambda: FusedQuantizedHaloExchange(FixedBitProvider(4), rounding))
    assert abs(exact - quant) < 0.05


def test_record_structure(tiny_dataset):
    c = _cluster(tiny_dataset, 4)
    rec = c.train_epoch(ExactHaloExchange(), 0)
    assert len(rec.phases) == 6  # 3 layers x {fwd, bwd}
    fwd_layers = [p.layer for p in rec.phases if p.phase == "fwd"]
    bwd_layers = [p.layer for p in rec.phases if p.phase == "bwd"]
    assert fwd_layers == [0, 1, 2] and bwd_layers == [2, 1, 0]
    for p in rec.phases:
        assert np.all(np.diag(p.bytes_matrix) == 0)
        assert p.bytes_matrix.sum() > 0
        assert (p.agg_flops >= p.agg_flops_central).all()
        assert (p.dense_flops > 0).all()
    assert rec.grad_allreduce_bytes == c.model.grad_vector().nbytes
    assert rec.total_wire_bytes() == sum(p.bytes_matrix.sum() for p in rec.phases)


def test_quant_bytes_recorded_only_when_quantizing(tiny_dataset):
    c = _cluster(tiny_dataset, 4)
    rec_exact = c.train_epoch(ExactHaloExchange(), 0)
    phases = rec_exact.phases
    assert all((p.quant_send_bytes + p.quant_recv_bytes).sum() == 0 for p in phases)
    c2 = _cluster(tiny_dataset, 4)
    exchange = FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0))
    rec_q = c2.train_epoch(exchange, 0)
    phases = rec_q.phases
    assert all((p.quant_send_bytes + p.quant_recv_bytes).sum() > 0 for p in phases)


def test_quantized_wire_bytes_much_smaller(tiny_dataset):
    c = _cluster(tiny_dataset, 4)
    exact = c.train_epoch(ExactHaloExchange(), 0).total_wire_bytes()
    c2 = _cluster(tiny_dataset, 4)
    exchange = FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0))
    q2 = c2.train_epoch(exchange, 0).total_wire_bytes()
    assert q2 < 0.25 * exact


def test_evaluate_returns_all_splits(tiny_dataset, tiny_single_label_dataset):
    """Metrics summed from per-device counts are, bit for bit, the global
    metric of the logits in node order — micro-F1 and accuracy alike."""
    for ds in (tiny_dataset, tiny_single_label_dataset):
        c = _cluster(ds, 3)
        metrics = c.evaluate()
        assert set(metrics) == {"train", "val", "test"}
        stacked = c._eval_forward().logits
        logits = np.empty((ds.num_nodes, stacked.shape[1]), dtype=np.float32)
        logits[np.concatenate([d.part.owned_global for d in c.devices])] = stacked
        for split, value in metrics.items():
            mask = getattr(ds, f"{split}_mask")
            assert value == task_metric(logits, ds.labels, mask, multilabel=ds.multilabel)
            assert 0.0 <= value <= 1.0


def test_invalid_model_kind(tiny_dataset, tiny_book):
    with pytest.raises(ValueError):
        Cluster(tiny_dataset, tiny_book, model_kind="gat")
