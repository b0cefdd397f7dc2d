"""Elastic repartition (ISSUE 9 tentpole): mid-run N→M resizes.

The equivalence contract: an N-partition run resized to M devices at an
epoch boundary converges to the **same** losses as a fresh M-partition
run restored from the same checkpoint.  The restore rule that makes this
hold: model/optimizer state is partition-independent (replica symmetry)
and restores at any M, while partition-bound state (dropout streams,
exchange caches, assigner traces) starts fresh whenever the device count
changed — so the resized run and the fresh-M run take identical paths.
"""

import shutil

import numpy as np
import pytest

from repro.cluster.checkpoint import capture_state, load_checkpoint, restore_state
from repro.cluster.cluster import Cluster
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core.config import RunConfig
from repro.core.trainer import build_system, train
from repro.graph.partition.api import partition_graph
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def two_part_book(tiny_dataset):
    return partition_graph(tiny_dataset.graph, 2, method="metis", seed=0)


def _cfg(**overrides):
    base = dict(epochs=6, hidden_dim=8, eval_every=2, reassign_period=2)
    base.update(overrides)
    return RunConfig(**base)


# ----------------------------------------------------------------------
# Cluster.repartition mechanics
# ----------------------------------------------------------------------
def test_repartition_carries_trained_replica(tiny_dataset, tiny_book, two_part_book):
    with Cluster(tiny_dataset, tiny_book, hidden_dim=8) as c4:
        trained = c4.devices[0].model.state_dict()
        with c4.repartition(two_part_book) as c2:
            assert c2.num_devices == 2
            for dev in c2.devices:
                got = dev.model.state_dict()
                for name in trained:
                    np.testing.assert_array_equal(got[name], trained[name])
            # The resized cluster is a full citizen: it can train.
            from repro.cluster.exchange import ExactHaloExchange

            record = c2.train_epoch(ExactHaloExchange(), 0)
            assert np.isfinite(record.loss)


def test_repartition_keeps_ctor_shape_and_transport_override(
    tiny_dataset, tiny_book, two_part_book
):
    with Cluster(
        tiny_dataset, tiny_book, hidden_dim=8, num_layers=2,
        overlap=True, transport="sync",
    ) as c4:
        # overlap=True carries over, so the async override resolves as-is
        # instead of degrading to sync.
        with c4.repartition(two_part_book, transport="worker:1") as c2:
            assert c2.dims == c4.dims
            assert c2.model_kind == c4.model_kind
            assert c2.transport.workers == 1


def test_repartition_refuses_a_store_backed_cluster(huge_store):
    """A store's partition layout is baked into its files: a resize is
    refused with an error that names the on-disk store."""
    with Cluster(huge_store.dataset(), huge_store.book(), hidden_dim=8) as cluster:
        with pytest.raises(RuntimeError, match="baked into the on-disk store"):
            cluster.repartition(huge_store.book())


# ----------------------------------------------------------------------
# N→M equivalence: resized-from-live == fresh-M-from-checkpoint
# ----------------------------------------------------------------------
def test_resized_run_matches_fresh_restore_bitwise(
    tiny_dataset, tiny_book, two_part_book
):
    cfg = _cfg(transport="sync")
    topo4, topo2 = parse_topology("2M-2D"), parse_topology("2M-1D")
    cm4 = LinkCostModel.for_topology(topo4)
    cm2 = LinkCostModel.for_topology(topo2)

    def run_epochs(cluster, setup, opts, start, stop):
        losses = []
        for epoch in range(start, stop):
            losses.append(cluster.train_epoch(setup.exchange, epoch).loss)
            for opt in opts:
                opt.step()
        return losses

    # Phase 1: 4-way training to the epoch-3 boundary.
    c4 = Cluster(tiny_dataset, tiny_book, hidden_dim=8, transport="sync")
    setup4 = build_system("adaqp-fixed", c4, cm4, cfg)
    opts4 = [Adam(d.model.parameters(), lr=cfg.lr) for d in c4.devices]
    run_epochs(c4, setup4, opts4, 0, 3)
    state = capture_state(c4, opts4, setup4.exchange, epoch=3)

    # Path A: live resize of the running cluster (params carried in
    # memory), partition-bound state re-attached through restore_state.
    c2a = c4.repartition(two_part_book)
    c4.close()
    setup2a = build_system("adaqp-fixed", c2a, cm2, cfg)
    opts2a = [Adam(d.model.parameters(), lr=cfg.lr) for d in c2a.devices]
    start_a = restore_state(state, c2a, opts2a, setup2a.exchange)
    losses_a = run_epochs(c2a, setup2a, opts2a, start_a, cfg.epochs)
    c2a.close()

    # Path B: a brand-new 2-part cluster restored from the same snapshot.
    c2b = Cluster(tiny_dataset, two_part_book, hidden_dim=8, transport="sync")
    setup2b = build_system("adaqp-fixed", c2b, cm2, cfg)
    opts2b = [Adam(d.model.parameters(), lr=cfg.lr) for d in c2b.devices]
    start_b = restore_state(state, c2b, opts2b, setup2b.exchange)
    losses_b = run_epochs(c2b, setup2b, opts2b, start_b, cfg.epochs)
    c2b.close()

    assert start_a == start_b == 3
    assert losses_a == losses_b  # bitwise, not approximately


def test_elastic_resume_through_trainer_is_deterministic(
    tmp_path, tiny_dataset, tiny_book, two_part_book
):
    """The end-to-end elastic shape: checkpoint a 4-way adaqp run, resume
    it twice onto 2 devices — both resumes agree bitwise, start at the
    checkpointed epoch, and converge (the run finishes training)."""
    d1 = tmp_path / "a"
    train(
        "adaqp", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=3, checkpoint_dir=str(d1)),
    )
    assert load_checkpoint(d1).num_parts == 4
    d2 = tmp_path / "b"
    shutil.copytree(d1, d2)
    runs = [
        train(
            "adaqp", tiny_dataset, two_part_book, "2M-1D",
            _cfg(checkpoint_dir=str(d), resume=True),
        )
        for d in (d1, d2)
    ]
    assert runs[0].start_epoch == runs[1].start_epoch == 3
    assert runs[0].curve_loss == runs[1].curve_loss
    assert runs[0].epochs == 3  # epochs 3..5 executed on the new size
    assert np.isfinite(runs[0].final_val)
    # The resized run's own checkpoints now carry the new partition count.
    assert load_checkpoint(d1).num_parts == 2


def test_shrink_and_grow_both_work(tmp_path, tiny_dataset, tiny_book, two_part_book):
    """Grow (2→4) is the same elastic rule as shrink (4→2)."""
    d = tmp_path / "ck"
    train(
        "adaqp-fixed", tiny_dataset, two_part_book, "2M-1D",
        _cfg(epochs=2, checkpoint_dir=str(d)),
    )
    grown = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=4, checkpoint_dir=str(d), resume=True),
    )
    assert grown.start_epoch == 2
    assert grown.epochs == 2
    assert load_checkpoint(d).num_parts == 4
