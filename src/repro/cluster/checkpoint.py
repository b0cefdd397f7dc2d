"""Epoch-boundary checkpoint/restore for keyed-replay fault tolerance.

A checkpoint captures everything a *bitwise* resume needs — model
parameters, optimizer slots, every cross-epoch RNG position (dropout and
sampled bit-widths) and exchange carry-over — at an epoch boundary, the
one point in the run where no transport state is in flight.  Quantization
noise is a pure function of ``(run_seed, epoch, phase, layer, src, dst)``
and so has no position to save: a run killed mid-training and resumed from
its last checkpoint produces the *same* losses, gradients and wire bytes
as the uninterrupted run — the equivalence tests assert it byte for byte.

The cluster holds one parameter set and one optimizer steps it — what
AdaQP's per-GPU replicas would each be a copy of — so a checkpoint is
small and **elastic**: its parameters and optimizer slots restore any
number of devices.  Partition-*dependent* state — per-device dropout
streams, exchange caches, assigner traces — is restored only when the
checkpoint's partition count matches the restoring cluster's; on an
elastic N→M resize it is skipped, so a resize *is* a new M-way cluster
plus :func:`restore_state`, and an in-memory snapshot and one saved to
disk resume identically (the elastic equivalence test pins this).

On-disk layout (one directory per checkpoint, atomically renamed into
place so a crash mid-save can never corrupt an existing checkpoint)::

    <checkpoint_dir>/
        epoch-00012/
            meta.json    # epoch, num_parts, model_kind, dims, seed, meta
            state.pkl    # the full ClusterState (arrays + RNG states)
        LATEST           # the newest epoch number, updated atomically
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.utils.logging import get_logger

__all__ = [
    "ClusterState",
    "capture_state",
    "restore_state",
    "save_checkpoint",
    "load_checkpoint",
    "latest_checkpoint_epoch",
    "list_checkpoint_epochs",
]

logger = get_logger("cluster.checkpoint")

_STATE_FILE = "state.pkl"
_META_FILE = "meta.json"
_LATEST_FILE = "LATEST"
_FORMAT_VERSION = 1


@dataclass
class ClusterState:
    """One epoch boundary's complete resume state.

    ``epoch`` is the *next* epoch to run: a checkpoint taken after epoch
    ``e``'s optimizer step carries ``epoch = e + 1``.
    """

    epoch: int
    num_parts: int
    model_kind: str
    dims: list[int]
    seed: int
    #: the cluster's parameters (``Cluster.model.state_dict()``)
    model: dict[str, np.ndarray]
    #: the optimizer's slots
    optimizer: dict
    #: per-device dropout ``bit_generator.state`` dicts (partition-bound)
    dropout_rng: list[object] = field(default_factory=list)
    #: opaque exchange carry-over (``FusedQuantizedHaloExchange.state_dict``)
    exchange: dict = field(default_factory=dict)
    #: adaptive assigner traces/assignments, when the system has one
    assigner: dict | None = None
    #: free-form caller annotations (system name, config echo, ...)
    meta: dict = field(default_factory=dict)
    version: int = _FORMAT_VERSION


# ---------------------------------------------------------------------------
# Capture / restore
# ---------------------------------------------------------------------------


def capture_state(
    cluster,
    optimizer,
    exchange,
    *,
    epoch: int,
    assigner=None,
    meta: dict | None = None,
) -> ClusterState:
    """Snapshot ``cluster`` (+ optimizer, exchange, assigner) at an epoch
    boundary.  Copies everything — the caller may keep training.

    Every state is made of copies or computed arrays, never of a partition
    store's memmapped regions, so a store run's checkpoint stays
    model-sized; the owning store's path is recorded in
    ``meta["store_path"]`` so a resume can reopen the same store."""
    meta = dict(meta or {})
    store_ds = getattr(cluster, "_store_dataset", None)
    if store_ds is not None:
        meta.setdefault("store_path", str(store_ds.store.path))
    return ClusterState(
        epoch=int(epoch),
        num_parts=int(cluster.num_devices),
        model_kind=cluster.model_kind,
        dims=list(cluster.dims),
        seed=int(cluster.seed),
        model=cluster.model.state_dict(),
        optimizer=optimizer.state_dict(),
        dropout_rng=[d.dropout_rng.bit_generator.state for d in cluster.devices],
        exchange=exchange.state_dict(),
        assigner=None if assigner is None else assigner.state_dict(),
        meta=meta,
    )


def restore_state(
    state: ClusterState,
    cluster,
    optimizer,
    exchange,
    *,
    assigner=None,
) -> int:
    """Load ``state`` into a live cluster; returns the epoch to resume at.

    Model and optimizer state restore at any partition count.
    Partition-bound state — dropout streams, exchange caches, assigner
    traces — restores only when the partition counts match; an elastic
    resize starts those fresh, exactly like a new run would.
    """
    if state.model_kind != cluster.model_kind or list(state.dims) != list(
        cluster.dims
    ):
        raise ValueError(
            f"checkpoint is for a {state.model_kind} model with dims"
            f" {state.dims}; cluster has {cluster.model_kind}/{cluster.dims}"
        )
    # In-place parameter writes keep the fused engine's views valid.
    cluster.model.load_state_dict(state.model)
    optimizer.load_state_dict(state.optimizer)
    elastic = int(state.num_parts) != int(cluster.num_devices)
    if elastic:
        logger.info(
            "elastic restore: checkpoint has %d parts, cluster has %d —"
            " partition-bound RNG/exchange state starts fresh",
            state.num_parts,
            cluster.num_devices,
        )
    else:
        for dev, rng_state in zip(cluster.devices, state.dropout_rng):
            # ``None``: a checkpoint of a model with no dropout layer.
            if rng_state is not None:
                dev.dropout_rng.bit_generator.state = rng_state
        exchange.load_state_dict(state.exchange)
        if assigner is not None and state.assigner is not None:
            assigner.load_state_dict(state.assigner)
    return int(state.epoch)


# ---------------------------------------------------------------------------
# On-disk persistence
# ---------------------------------------------------------------------------


def _epoch_dirname(epoch: int) -> str:
    return f"epoch-{int(epoch):05d}"


def save_checkpoint(checkpoint_dir: str | os.PathLike, state: ClusterState) -> Path:
    """Persist ``state`` under ``checkpoint_dir``; returns the final path.

    Atomic: the checkpoint is staged in a temp directory on the same
    filesystem and renamed into place, then the ``LATEST`` marker is
    replaced — a crash at any point leaves either the previous checkpoint
    set intact or the new one complete, never a torn directory.
    """
    root = Path(checkpoint_dir)
    root.mkdir(parents=True, exist_ok=True)
    final = root / _epoch_dirname(state.epoch)
    staging = Path(
        tempfile.mkdtemp(prefix=f".tmp-{_epoch_dirname(state.epoch)}-", dir=root)
    )
    try:
        with open(staging / _STATE_FILE, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "version": state.version,
            "epoch": state.epoch,
            "num_parts": state.num_parts,
            "model_kind": state.model_kind,
            "dims": list(state.dims),
            "seed": state.seed,
            "meta": state.meta,
        }
        with open(staging / _META_FILE, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        if final.exists():
            # Re-saving the same epoch (double-restore runs): replace.
            shutil.rmtree(final)
        os.replace(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _write_latest(root, state.epoch)
    logger.info("checkpoint saved: %s (epoch %d)", final, state.epoch)
    return final


def _write_latest(root: Path, epoch: int) -> None:
    fd, tmp = tempfile.mkstemp(prefix=".tmp-latest-", dir=root)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(f"{int(epoch)}\n")
        os.replace(tmp, root / _LATEST_FILE)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def list_checkpoint_epochs(checkpoint_dir: str | os.PathLike) -> list[int]:
    """Epoch numbers of every complete checkpoint, ascending."""
    root = Path(checkpoint_dir)
    if not root.is_dir():
        return []
    epochs = []
    for entry in root.iterdir():
        name = entry.name
        if (
            entry.is_dir()
            and name.startswith("epoch-")
            and (entry / _STATE_FILE).is_file()
        ):
            try:
                epochs.append(int(name.split("-", 1)[1]))
            except ValueError:
                continue
    return sorted(epochs)


def latest_checkpoint_epoch(checkpoint_dir: str | os.PathLike) -> int | None:
    """The newest complete checkpoint's epoch, or None when there is none.

    Trusts the ``LATEST`` marker when it names an existing checkpoint and
    falls back to a directory scan otherwise (a crash between the rename
    and the marker update leaves a valid checkpoint with a stale marker).
    """
    root = Path(checkpoint_dir)
    marker = root / _LATEST_FILE
    epochs = list_checkpoint_epochs(root)
    if marker.is_file():
        try:
            epoch = int(marker.read_text(encoding="utf-8").strip())
        except (OSError, ValueError):
            epoch = None
        if epoch is not None and epoch in epochs:
            return epoch
    return epochs[-1] if epochs else None


def load_checkpoint(
    checkpoint_dir: str | os.PathLike, epoch: int | None = None
) -> ClusterState | None:
    """Load one checkpoint (the newest by default); None when none exist."""
    root = Path(checkpoint_dir)
    if epoch is None:
        epoch = latest_checkpoint_epoch(root)
        if epoch is None:
            return None
    path = root / _epoch_dirname(epoch) / _STATE_FILE
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    if not isinstance(state, ClusterState):
        raise ValueError(f"{path} does not contain a ClusterState")
    if state.version > _FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path} has format version {state.version};"
            f" this build reads <= {_FORMAT_VERSION}"
        )
    return state
