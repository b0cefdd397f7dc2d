"""The quantized exchange and the trainer's wiring of it ≡ the reference.

:class:`FusedQuantizedHaloExchange` executes a whole step as batched
kernels; what it must deliver is what the reference's per-message
``QuantizedPolicy`` delivers — identical wire bytes, identical dequantized
tensors — and ``train()``, which composes provider, rounding seed and
assigner per system name, must land on the reference's trajectory.
"""

import numpy as np
import pytest
from reference.oracle import FixedBits, QuantizedPolicy, ReferenceTrainer

from repro.cluster.cluster import Cluster
from repro.cluster.exchange import (
    FixedBitProvider,
    FusedQuantizedHaloExchange,
    UniformRandomBitProvider,
)
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.comm.transport import Transport
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.core.config import RunConfig
from repro.core.trainer import build_system, train
from repro.quant.stochastic import KeyedRounding
from repro.utils.seed import RngPool


def _train_and_reference(system, dataset, book, **overrides):
    """``train(system)`` and the reference run of the same system: the
    policy is composed here the way ``build_system`` documents it."""
    cfg = RunConfig(
        epochs=10, hidden_dim=8, eval_every=2, reassign_period=4, uniform_period=4,
        **overrides,
    )
    result = train(system, dataset, book, "2M-2D", cfg)

    reference = ReferenceTrainer(
        dataset, book, "exact", model_kind=cfg.model_kind, hidden_dim=cfg.hidden_dim,
        num_layers=cfg.num_layers, dropout=cfg.dropout, seed=cfg.seed,
    )
    pool = RngPool(cfg.seed).fork(f"system/{system}")
    tracer = None
    if system == "adaqp":
        provider = tracer = AdaptiveBitWidthAssigner(
            reference, LinkCostModel.for_topology(parse_topology("2M-2D")),
            lam=cfg.lam, group_size=cfg.group_size, period=cfg.reassign_period,
            bit_choices=cfg.bit_choices, solver=cfg.solver,
        )
    elif system == "adaqp-fixed":
        provider = FixedBits(cfg.fixed_bits)
    else:
        provider = UniformRandomBitProvider(
            pool.get("uniform-bits"), choices=cfg.bit_choices, period=cfg.uniform_period
        )
    rounding = KeyedRounding(pool.fork("rounding").seed)
    reference.policy = QuantizedPolicy(provider, rounding, tracer)
    return result, reference.run(epochs=cfg.epochs, lr=cfg.lr), tracer


@pytest.mark.parametrize("system", ["adaqp", "adaqp-fixed", "adaqp-uniform"])
def test_train_result_identical(system, tiny_dataset, tiny_book):
    result, reference, assigner = _train_and_reference(system, tiny_dataset, tiny_book)
    assert result.curve_loss == reference.losses
    assert result.wire_bytes_total == sum(reference.wire)
    assert result.final_val == reference.metrics["val"]
    assert result.final_test == reference.metrics["test"]
    if assigner is not None:
        assert result.bit_histogram == assigner.assignment_histogram()


def test_adaptive_assignments_identical(tiny_dataset, tiny_book):
    """The tracer hook sees identical inputs: same problem, same assignment
    — whichever solver reads them."""
    result, reference, assigner = _train_and_reference(
        "adaqp", tiny_dataset, tiny_book, solver="greedy"
    )
    assert len(reference.bits) == assigner.num_reassignments == 2
    assert result.bit_histogram == assigner.assignment_histogram()
    assert result.wire_bytes_total == sum(reference.wire)


def test_exchange_tensors_identical_per_epoch(tiny_dataset, tiny_book):
    """One exchange step, tensor for tensor: the halos the fused exchange
    lands equal the reference's per-message deliveries, and so do the
    bytes."""
    cluster = Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, num_layers=2, dropout=0.0, seed=0
    )
    exchange = FusedQuantizedHaloExchange(FixedBitProvider(4), KeyedRounding(123))
    policy = QuantizedPolicy(FixedBits(4), KeyedRounding(123))
    h = [dev.features for dev in cluster.devices]
    for epoch in range(3):
        exchange.on_epoch_start(epoch)
        policy.start_epoch(epoch)
        transport = Transport(cluster.num_devices)
        halos = [
            np.zeros((dev.part.n_halo, h[dev.rank].shape[1]), dtype=np.float32)
            for dev in cluster.devices
        ]
        exchange.finalize_step(
            exchange.post_step(0, "fwd", cluster.devices, transport, h, out=halos)
        )
        mail, wire = policy.exchange("fwd", 0, cluster.devices, h)
        assert transport.total_bytes() == wire
        for dev, halo in zip(cluster.devices, halos):
            for src, rows in mail[dev.rank].items():
                assert np.array_equal(halo[dev.part.recv_map[src]], rows)


def test_fused_is_default_for_adaqp_systems(tiny_dataset, tiny_book):
    cluster = Cluster(tiny_dataset, tiny_book, hidden_dim=8, seed=0)
    cm = LinkCostModel.for_topology(parse_topology("2M-2D"))
    for system in ("adaqp", "adaqp-fixed", "adaqp-uniform", "adaqp-no-overlap"):
        setup = build_system(system, cluster, cm, RunConfig())
        assert type(setup.exchange) is FusedQuantizedHaloExchange, system
        assert isinstance(setup.exchange.rounding, KeyedRounding)


def test_one_epoch_stages_every_step_in_one_block(tiny_dataset, tiny_book, either_tier):
    """After one adaqp epoch whose steps have mixed widths, every step
    plan's staged rows are a view of the encoder's one block, sized by the
    widest step — 4·max(n_total·dim) bytes, not the sum over steps — and
    on the NumPy tier its codes a view of one code block of that size."""
    cost = LinkCostModel.for_topology(parse_topology("2M-2D"))
    with Cluster(tiny_dataset, tiny_book, hidden_dim=8, num_layers=3, seed=0) as c:
        exchange = build_system("adaqp", c, cost, RunConfig()).exchange
        c.train_epoch(exchange, 0)
    encoder = exchange.fused_encoder
    plans = list(encoder._plans.values())
    assert len(plans) == 6 and len({plan.dim for plan in plans}) > 1
    sizes = [plan.n_total * plan.dim for plan in plans]
    assert encoder._rows.nbytes == 4 * max(sizes) < 4 * sum(sizes)
    for plan in plans:
        assert plan.cat_buf.base is encoder._rows
        assert (plan.codes_buf is None) == (either_tier == "compiled")
        if plan.codes_buf is not None:
            assert plan.codes_buf.base is encoder._codes
    if either_tier == "numpy":
        assert encoder._codes.nbytes == max(sizes)


def test_halo_buffer_reuse_does_not_leak_between_epochs(tiny_dataset, tiny_book):
    """Reused halo buffers must be indistinguishable from fresh ones."""

    def first_loss(warm_up):
        cluster = Cluster(
            tiny_dataset, tiny_book, hidden_dim=8, num_layers=2, dropout=0.0, seed=0
        )
        exchange = FusedQuantizedHaloExchange(FixedBitProvider(2), KeyedRounding(0))
        if warm_up:  # same step, once: buffers now hold its rows
            cluster.train_epoch(exchange, 0)
        return cluster.train_epoch(exchange, 0).loss

    # Keyed noise makes epoch 0 repeatable on one exchange; warm buffers
    # must not change it.
    assert first_loss(True) == first_loss(False)
