"""Elastic resize: mid-run N→M changes of the partition count.

A resize is a new M-way :class:`Cluster` plus ``restore_state`` — the
cluster's one parameter set and its optimizer's slots are
partition-independent and restore at any M, while partition-bound state
(dropout streams, exchange caches, assigner traces) starts fresh whenever
the device count changed.  The equivalence contract: resizing from an
in-memory snapshot and from one saved to disk and loaded back take the
**same** path, bitwise.
"""

import shutil

import numpy as np
import pytest

from repro.cluster.checkpoint import (
    capture_state,
    load_checkpoint,
    restore_state,
    save_checkpoint,
)
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
# N→M equivalence: resized-from-memory == resized-from-disk
# ----------------------------------------------------------------------
def test_resized_run_matches_fresh_restore_bitwise(
    tmp_path, tiny_dataset, tiny_book, two_part_book
):
    cfg = _cfg(transport="sync")
    topo4, topo2 = parse_topology("2M-2D"), parse_topology("2M-1D")
    cm4 = LinkCostModel.for_topology(topo4)
    cm2 = LinkCostModel.for_topology(topo2)

    def run_epochs(cluster, setup, opt, start, stop):
        losses = []
        for epoch in range(start, stop):
            losses.append(cluster.train_epoch(setup.exchange, epoch).loss)
            opt.step()
        return losses

    def resized(state):
        """A new 2-part cluster restored from ``state``, run to the end."""
        with Cluster(tiny_dataset, two_part_book, hidden_dim=8, transport="sync") as c2:
            setup = build_system("adaqp-fixed", c2, cm2, cfg)
            opt = Adam(c2.model.parameters(), lr=cfg.lr)
            start = restore_state(state, c2, opt, setup.exchange)
            return start, run_epochs(c2, setup, opt, start, cfg.epochs)

    # 4-way training to the epoch-3 boundary.
    with Cluster(tiny_dataset, tiny_book, hidden_dim=8, transport="sync") as c4:
        setup4 = build_system("adaqp-fixed", c4, cm4, cfg)
        opt4 = Adam(c4.model.parameters(), lr=cfg.lr)
        run_epochs(c4, setup4, opt4, 0, 3)
        state = capture_state(c4, opt4, setup4.exchange, epoch=3)
    save_checkpoint(tmp_path, state)

    # Path A: the in-memory snapshot.  Path B: the one saved to disk.
    start_a, losses_a = resized(state)
    start_b, losses_b = resized(load_checkpoint(tmp_path))
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
