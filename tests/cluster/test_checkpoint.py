"""Checkpoint/restore (ISSUE 9 tentpole): bitwise keyed-replay resume.

The headline contract: a run that is interrupted and resumed from its last epoch-boundary checkpoint produces
the **same** losses, wire bytes and final parameters as the uninterrupted
run — not approximately, bitwise.  Everything else here pins the
machinery that makes that true: the on-disk format's atomicity, the
restore-time validation, and the double-restore idempotency the
fault-tolerance story leans on (a crashed resume must be re-resumable).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cluster.checkpoint import (
    ClusterState,
    capture_state,
    latest_checkpoint_epoch,
    list_checkpoint_epochs,
    load_checkpoint,
    restore_state,
    save_checkpoint,
)
from repro.comm.faults import FaultPlan
from repro.core.config import RunConfig
from repro.core.trainer import train


def _cfg(**overrides):
    base = dict(epochs=6, hidden_dim=8, eval_every=2, reassign_period=2)
    base.update(overrides)
    return RunConfig(**base)


def _final_state(ckpt_dir) -> ClusterState:
    state = load_checkpoint(ckpt_dir)
    assert state is not None
    return state


def _assert_states_bitwise_equal(a: ClusterState, b: ClusterState) -> None:
    assert a.epoch == b.epoch
    for name in a.model:
        np.testing.assert_array_equal(a.model[name], b.model[name])
    assert a.optimizer["step_count"] == b.optimizer["step_count"]
    for slot in ("m", "v"):
        for x, y in zip(a.optimizer[slot], b.optimizer[slot]):
            np.testing.assert_array_equal(x, y)


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
def test_checkpoint_files_and_latest_marker(tmp_path, tiny_dataset, tiny_book):
    train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=3, checkpoint_dir=str(tmp_path)),
    )
    assert list_checkpoint_epochs(tmp_path) == [1, 2, 3]
    assert latest_checkpoint_epoch(tmp_path) == 3
    assert (tmp_path / "epoch-00003" / "meta.json").is_file()
    state = load_checkpoint(tmp_path)
    assert state.epoch == 3 and state.num_parts == 4
    # Specific-epoch load, and a stale LATEST marker falls back to the scan.
    assert load_checkpoint(tmp_path, epoch=1).epoch == 1
    (tmp_path / "LATEST").write_text("99\n")
    assert latest_checkpoint_epoch(tmp_path) == 3
    # Unreadable future formats are a typed error, not garbage state.
    state.version = 999
    save_checkpoint(tmp_path, state)
    with pytest.raises(ValueError, match="format version"):
        load_checkpoint(tmp_path)


def test_checkpoint_every_cadence(tmp_path, tiny_dataset, tiny_book):
    train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=5, checkpoint_dir=str(tmp_path), checkpoint_every=2),
    )
    # Every 2nd epoch boundary, plus the final epoch unconditionally.
    assert list_checkpoint_epochs(tmp_path) == [2, 4, 5]


def test_load_checkpoint_empty_dir_returns_none(tmp_path):
    assert load_checkpoint(tmp_path) is None
    assert latest_checkpoint_epoch(tmp_path) is None
    assert list_checkpoint_epochs(tmp_path / "missing") == []


def test_load_checkpoint_rejects_foreign_pickle(tmp_path):
    (tmp_path / "epoch-00001").mkdir()
    with open(tmp_path / "epoch-00001" / "state.pkl", "wb") as fh:
        pickle.dump({"not": "a ClusterState"}, fh)
    with pytest.raises(ValueError, match="ClusterState"):
        load_checkpoint(tmp_path, epoch=1)


# ----------------------------------------------------------------------
# Bitwise resume equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", ["adaqp", "pipegcn", "sancus"])
def test_interrupted_resume_is_bitwise_identical(
    tmp_path, tiny_dataset, tiny_book, system
):
    """losses + wire bytes + final model/optimizer state, byte for byte —
    across the adaptive system (assigner + keyed rounding) and both
    stale-cache baselines (whose caches the checkpoint must carry)."""
    d_full, d_split = tmp_path / "full", tmp_path / "split"
    full = train(
        system, tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_full)),
    )
    part1 = train(
        system, tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=3, checkpoint_dir=str(d_split)),
    )
    part2 = train(
        system, tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_split), resume=True),
    )
    assert part2.start_epoch == 3
    assert part1.curve_loss + part2.curve_loss == full.curve_loss
    assert part1.wire_bytes_total + part2.wire_bytes_total == full.wire_bytes_total
    # Final parameters and Adam slots carry the whole gradient history:
    # equality here means every gradient along the way was identical too.
    _assert_states_bitwise_equal(_final_state(d_full), _final_state(d_split))


def test_crash_mid_run_then_resume_is_bitwise_identical(
    tmp_path, tiny_dataset, tiny_book
):
    """The real interruption shape: an injected job fault crashes training
    mid-epoch; the checkpoints already on disk restart it bitwise."""
    d_full, d_crash = tmp_path / "full", tmp_path / "crash"
    full = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_full)),
    )
    with pytest.raises(RuntimeError, match="injected transport job fault"):
        train(
            "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
            _cfg(checkpoint_dir=str(d_crash), transport="sync"),
            fault_plan=FaultPlan.parse(["error:fwd/L0@3"]),
        )
    assert latest_checkpoint_epoch(d_crash) == 3  # epochs 0..2 landed
    resumed = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_crash), resume=True),
    )
    assert resumed.start_epoch == 3
    assert resumed.curve_loss == full.curve_loss[3:]
    _assert_states_bitwise_equal(_final_state(d_full), _final_state(d_crash))


@pytest.mark.parametrize("crash_epoch", [3, 4])
def test_kill_and_resume_across_period_boundary_is_bitwise(
    tmp_path, tiny_dataset, tiny_book, crash_epoch
):
    """Traces exist only for the epoch before a boundary (period 3: epochs
    2 and 5).  A crash at epoch 3 resumes from the checkpoint written
    right after a traced epoch — the resumed run's first act is the solve,
    from *restored* traces; a crash at epoch 4 resumes mid-period, carrying
    traces no solve will read before they are overwritten.  The default
    solver is a pure function of the traces, so the re-solve is bitwise."""
    d_full, d_crash = tmp_path / "full", tmp_path / "crash"
    period = dict(epochs=7, reassign_period=3)
    assert _cfg(**period).solver == "exact"
    full = train(
        "adaqp", tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_full), **period),
    )
    with pytest.raises(RuntimeError, match="injected transport job fault"):
        train(
            "adaqp", tiny_dataset, tiny_book, "2M-2D",
            _cfg(checkpoint_dir=str(d_crash), transport="sync", **period),
            fault_plan=FaultPlan.parse([f"error:fwd/L0@{crash_epoch}"]),
        )
    assert latest_checkpoint_epoch(d_crash) == crash_epoch
    resumed = train(
        "adaqp", tiny_dataset, tiny_book, "2M-2D",
        _cfg(checkpoint_dir=str(d_crash), resume=True, **period),
    )
    assert resumed.start_epoch == crash_epoch
    assert resumed.curve_loss == full.curve_loss[crash_epoch:]
    assert resumed.bit_histogram == full.bit_histogram
    state_full, state_crash = _final_state(d_full), _final_state(d_crash)
    _assert_states_bitwise_equal(state_full, state_crash)
    assert state_full.assigner["num_reassignments"] == 2
    for key, bits in state_full.assigner["assignments"].items():
        np.testing.assert_array_equal(bits, state_crash.assigner["assignments"][key])


def test_double_restore_from_same_checkpoint_dir(
    tmp_path, tiny_dataset, tiny_book
):
    """Satellite (c): restoring twice from one checkpoint set (a crashed
    resume, re-resumed) yields identical runs — restore mutates nothing.
    The second resume runs against a pristine copy because a completed
    resume legitimately extends its own directory with newer epochs."""
    import shutil

    d1 = tmp_path / "a"
    train(
        "adaqp", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=3, checkpoint_dir=str(d1)),
    )
    frozen = _final_state(d1)
    d2 = tmp_path / "b"
    shutil.copytree(d1, d2)
    runs = [
        train(
            "adaqp", tiny_dataset, tiny_book, "2M-2D",
            _cfg(checkpoint_dir=str(d), resume=True),
        )
        for d in (d1, d2)
    ]
    assert runs[0].curve_loss == runs[1].curve_loss
    assert runs[0].start_epoch == runs[1].start_epoch == 3
    # The epoch-3 checkpoint itself was never rewritten differently.
    _assert_states_bitwise_equal(frozen, load_checkpoint(d1, epoch=3))


def test_resume_from_empty_dir_is_a_fresh_start(
    tmp_path, tiny_dataset, tiny_book
):
    clean = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D", _cfg(epochs=2)
    )
    resumed = train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=2, checkpoint_dir=str(tmp_path / "empty"), resume=True),
    )
    assert resumed.start_epoch == 0
    assert resumed.curve_loss == clean.curve_loss


# ----------------------------------------------------------------------
# Restore-time validation
# ----------------------------------------------------------------------
def test_restore_rejects_mismatched_model(tmp_path, tiny_dataset, tiny_book):
    from repro.cluster.cluster import Cluster
    from repro.nn.optim import Adam

    train(
        "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
        _cfg(epochs=2, checkpoint_dir=str(tmp_path)),
    )
    state = _final_state(tmp_path)
    with Cluster(tiny_dataset, tiny_book, hidden_dim=16) as cluster:
        opt = Adam(cluster.model.parameters())
        from repro.cluster.exchange import ExactHaloExchange

        with pytest.raises(ValueError, match="dims"):
            restore_state(state, cluster, opt, ExactHaloExchange())


#: A 3-layer model's ``state_dict`` keys, in order, as checkpoints have
#: always stored them: a checkpoint written before the cluster held one
#: parameter set loads into it only while these stay put.
STATE_DICT_KEYS = {
    "gcn": [
        *(f"layers.{i}.{n}" for i in (0, 1) for n in (
            "conv.linear.weight", "conv.linear.bias", "norm.gamma", "norm.beta"
        )),
        "layers.2.conv.linear.weight", "layers.2.conv.linear.bias",
    ],
    "sage": [
        *(f"layers.{i}.{n}" for i in (0, 1) for n in (
            "conv.root.weight", "conv.root.bias", "conv.neigh.weight",
            "norm.gamma", "norm.beta",
        )),
        "layers.2.conv.root.weight", "layers.2.conv.root.bias",
        "layers.2.conv.neigh.weight",
    ],
}  # fmt: skip


@pytest.mark.parametrize("kind", ["gcn", "sage"])
def test_state_dict_keys_are_the_checkpoint_format(tiny_dataset, tiny_book, kind):
    from repro.cluster.cluster import Cluster

    with Cluster(tiny_dataset, tiny_book, model_kind=kind, hidden_dim=8) as cluster:
        assert list(cluster.model.state_dict()) == STATE_DICT_KEYS[kind]
    assert [f.name for f in dataclasses.fields(ClusterState)] == [
        "epoch", "num_parts", "model_kind", "dims", "seed", "model", "optimizer",
        "dropout_rng", "exchange", "assigner", "meta", "version",
    ]  # fmt: skip
    assert ClusterState.version == 1


def test_resume_rejects_a_stream_mode_checkpoint(tmp_path, tiny_dataset, tiny_book):
    """A checkpoint written under the removed sequential-stream noise mode
    carries a generator position; dropping it silently would resume on
    different noise, so the restore refuses by name."""
    cfg = _cfg(epochs=2, checkpoint_dir=str(tmp_path))
    train("adaqp-fixed", tiny_dataset, tiny_book, "2M-2D", cfg)
    state = _final_state(tmp_path)
    assert state.exchange["rounding"] == {}  # keyed noise has no position
    position = np.random.default_rng(0).bit_generator.state
    state.exchange["rounding"] = {"bit_generator": position}
    save_checkpoint(tmp_path, state)
    with pytest.raises(ValueError, match='removed "stream" rounding mode'):
        train(
            "adaqp-fixed", tiny_dataset, tiny_book, "2M-2D",
            cfg.with_overrides(epochs=4, resume=True),
        )


def test_capture_does_not_alias_live_state(tiny_dataset, tiny_book):
    """A snapshot must stay frozen while training continues past it."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.exchange import ExactHaloExchange
    from repro.nn.optim import Adam

    with Cluster(tiny_dataset, tiny_book, hidden_dim=8) as cluster:
        opt = Adam(cluster.model.parameters())
        exchange = ExactHaloExchange()
        state = capture_state(cluster, opt, exchange, epoch=1)
        before = {k: v.copy() for k, v in state.model.items()}
        cluster.train_epoch(exchange, 0)
        opt.step()
        for name in before:
            np.testing.assert_array_equal(state.model[name], before[name])


# ----------------------------------------------------------------------
# Huge-graph stores: memmaps stay out of the checkpoint
# ----------------------------------------------------------------------
def _walk_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _walk_arrays(v)


def _cached_rows_bytes(system, cluster):
    """The bytes a staleness rule's cached steps hold, counted from the
    partitions: PipeGCN one step per (phase, layer) — every halo row at the
    layer's input width, forward, and backward but for layer 0, whose
    gradient a store run does not exchange; SANCUS one forward broadcast
    per layer — each source's owned rows once per peer; nothing for
    AdaQP, whose exchange is stateless."""
    dims, parts = cluster.dims, [dev.part for dev in cluster.devices]
    if system == "pipegcn":
        halo = sum(part.n_halo for part in parts)
        return 4 * halo * (sum(dims[:-1]) + sum(dims[1:-1]))
    if system == "sancus":
        sent = sum(part.n_owned * len(part.send_map) for part in parts)
        return 4 * sent * sum(dims[:-1])
    return 0


def test_store_checkpoint_skips_memmaps_and_resumes_bitwise(
    tmp_path, huge_store
):
    """A streaming (memmap-backed) run's checkpoint serializes no store
    region — the regions are reconstructable from ``meta["store_path"]`` —
    and resuming from it continues bitwise.  Besides AdaQP, PipeGCN and
    SANCUS at a width that aggregates layer 0 first: their exchange state
    caches layer-0 rows gathered from the memmapped features, as copies.
    No state holds a memmap, and the checkpoint is model-sized plus exactly
    the rows the staleness rule caches."""
    from repro.cluster.cluster import Cluster

    ds, book = huge_store.dataset(), huge_store.book()
    setting = f"{huge_store.num_parts}M-1D"
    for system, hidden in (("adaqp", 8), ("pipegcn", 32), ("sancus", 32)):
        d_full, d_split = tmp_path / system / "full", tmp_path / system / "split"
        cfg = dict(hidden_dim=hidden)
        full = train(system, ds, book, setting, _cfg(checkpoint_dir=str(d_full), **cfg))
        part1 = train(
            system, ds, book, setting,
            _cfg(epochs=3, checkpoint_dir=str(d_split), **cfg),
        )  # fmt: skip
        part2 = train(
            system, ds, book, setting,
            _cfg(checkpoint_dir=str(d_split), resume=True, **cfg),
        )  # fmt: skip
        assert part2.start_epoch == 3
        assert part1.curve_loss + part2.curve_loss == full.curve_loss
        total = part1.wire_bytes_total + part2.wire_bytes_total
        assert total == full.wire_bytes_total
        _assert_states_bitwise_equal(_final_state(d_full), _final_state(d_split))

        state = _final_state(d_split)
        assert state.meta.get("store_path") == str(huge_store.path)
        for arr in _walk_arrays(
            {"model": state.model, "optimizer": state.optimizer,
             "exchange": state.exchange, "assigner": state.assigner}
        ):  # fmt: skip
            assert not isinstance(arr, np.memmap)
        with Cluster(ds, book, hidden_dim=hidden, num_layers=3, seed=0) as cluster:
            cached = _cached_rows_bytes(system, cluster)
        assert sum(a.nbytes for a in _walk_arrays(state.exchange)) == cached
        # The checkpoint must stay model-sized beside those rows:
        # serializing even one device's store regions would dwarf it.
        ckpt = max(p.stat().st_size for p in d_split.glob("epoch-*/state.pkl"))
        assert ckpt - cached < huge_store.materialized_bytes() // huge_store.num_parts
