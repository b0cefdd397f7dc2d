"""The lock-step distributed training executor.

``Cluster`` owns the simulated devices and the model's one parameter set,
and drives one *real* training epoch at a time: per GNN layer, it
exchanges halo messages through the transport (under whatever exchange
policy the caller supplies — exact, quantized, stale), runs the layer's
forward/backward for every device, and finally reduces the devices'
gradient partials exactly into the parameters' ``grad``.  AdaQP keeps a
model replica per GPU, kept equal by the gradient allreduce; all devices
here run in one process, so the one parameter set stands for them all.

Layer compute runs on the cluster-fused engine
(:class:`~repro.cluster.compute.FusedClusterCompute`): one spmv per device
and column half over each device's operator quartet, and one stacked GEMM
per layer step for all devices together, with halo rows exchanged straight
into the stacked buffers.
What it must compute is stated independently by the per-device reference
trainer under ``tests/reference/``, which every execution shape is
compared with bitwise.

It simultaneously fills an :class:`EpochRecord` with the measured wire
bytes and the analytic FLOP counts of every (layer, direction) step; the
schedule simulators later turn those into epoch times under each system's
overlap policy.

Numerical contract (tested): with an exact exchange and dropout disabled, a
K-device cluster produces *identical* losses and model gradients to a
1-device cluster — distribution is purely a systems concern.
"""

from __future__ import annotations

import numpy as np

from repro import kernels
from repro.cluster.compute import FusedClusterCompute
from repro.cluster.exchange import (
    ExactHaloExchange,
    FusedQuantizedHaloExchange,
    step_tag,
)
from repro.cluster.records import EpochRecord, PhaseRecord
from repro.cluster.runtime import DeviceRuntime, build_devices
from repro.comm.transport import Transport, transport_workers
from repro.gnn.model import MODEL_KINDS, DistGNN
from repro.graph.datasets import GraphDataset
from repro.graph.io import StoreDataset
from repro.graph.partition.book import PartitionBook
from repro.nn.losses import bce_with_logits_loss, softmax_cross_entropy
from repro.nn.metrics import metric_counts, metric_from_counts
from repro.utils.logging import get_logger
from repro.utils.seed import RngPool
from repro.utils.validation import check_in_set

__all__ = ["Cluster"]

_log = get_logger(__name__)


class Cluster:
    """All simulated devices for one training job, and its one parameter
    set, ``model`` (a :class:`~repro.gnn.model.DistGNN`): the engine,
    ``engine`` (a :class:`~repro.cluster.compute.FusedClusterCompute`, built
    with the cluster), computes every device's rows with it, one optimizer
    steps it, and an elastic resize is a new cluster plus
    :func:`~repro.cluster.checkpoint.restore_state`.

    Parameters
    ----------
    dataset:
        The full-graph dataset (features, labels, splits).
    book:
        Partition assignment (one partition per simulated device).
    model_kind:
        ``"gcn"`` or ``"sage"``.
    hidden_dim / num_layers / dropout:
        Model shape (paper defaults: 256 / 3 / 0.5 — scaled down in the
        benchmark configs).
    seed:
        Root seed for the weights (one parameter set) and dropout (one
        stream per device).
    overlap:
        Whether the engine's central windows count as hiding the exchange
        (paper Fig. 7: post the messages, run the own-column half of the
        aggregation while they are in flight, finalize, accumulate the
        halo-column half).  Every run executes that one step; on, the
        transport's accounting window opens around each central window,
        async workers may be picked, and each epoch record's summary sums
        the measured per-stage
        :class:`~repro.cluster.records.StepTimeline` of every step.
        Bit-identical either way under the same seed.  The trainer turns
        it on for the systems whose schedule overlaps
        (:data:`~repro.core.trainer.OVERLAP_SYSTEMS`, its only setter);
        the oracle matrix sets it directly.  Store-backed datasets run
        with it off: on, the RSS-bounded store would get a worker thread
        and per-rank decode workspaces, a cost not yet measured.
    transport:
        Transport spec: ``"auto"`` (the default), ``"sync"`` or
        ``"worker[:N]"``, resolved here, once, by
        :func:`~repro.comm.transport.transport_workers` into the worker
        count of ``cluster.transport``.  ``"auto"`` picks workers when the
        split-phase pipeline executes and the host has a spare core;
        non-overlapped runs always get 0 (inline: there is no central
        window to hide work under).  The worker pool starts on first use
        and is shut down at :meth:`close`.
    transport_timeout_s:
        Per-tag completion deadline: a tag whose jobs have not finished
        within this many seconds — or an inline job stalled past it —
        raises a :class:`~repro.comm.transport.TransportError` naming the
        tag and its outstanding jobs instead of hanging.  ``None``
        (default) waits forever.
    fault_plan:
        A :class:`~repro.comm.faults.FaultPlan` of injected transport
        faults (drops, duplicates, stalls, job errors) for
        the fault-tolerance tests; ``None`` disables injection entirely.
    """

    def __init__(
        self,
        dataset: GraphDataset,
        book: PartitionBook,
        *,
        model_kind: str = "gcn",
        hidden_dim: int = 64,
        num_layers: int = 3,
        dropout: float = 0.5,
        seed: int = 0,
        overlap: bool = False,
        transport: str = "auto",
        transport_timeout_s: float | None = None,
        fault_plan=None,
    ) -> None:
        check_in_set(model_kind, MODEL_KINDS, name="model_kind")
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.dataset = dataset
        self.book = book
        self.model_kind = model_kind
        self.num_devices = book.num_parts
        self.seed = int(seed)
        store_ds = dataset if isinstance(dataset, StoreDataset) else None
        self._store_dataset = store_ds
        if store_ds is not None:
            self.global_train_count = int(store_ds.global_train_count)
        else:
            self.global_train_count = int(dataset.train_mask.sum())
        dims = [dataset.num_features] + [hidden_dim] * (num_layers - 1) + [
            dataset.num_classes
        ]
        self.dims = dims
        weights = RngPool(seed).fork("cluster").fork("weights").fork("shared")
        self.model = DistGNN(
            model_kind, dims, dropout=dropout, weight_rng=weights.get("init")
        )

        self.devices = build_devices(dataset, book, model_kind=model_kind, seed=seed)

        # Static per-device message-row counts (drive quant-time modelling).
        self._rows_out = np.array(
            [sum(len(v) for v in d.part.send_map.values()) for d in self.devices],
            dtype=np.int64,
        )
        self._rows_in = np.array([d.part.n_halo for d in self.devices], dtype=np.int64)

        # Evaluation's exact exchange is stateless, so one instance serves
        # every evaluate() call; its Transport stays per-call (a cached one
        # would accumulate byte accounting and, after an interrupted eval,
        # taint later calls with stale undelivered envelopes).
        self._eval_exchange = ExactHaloExchange()

        # Streaming mode runs with overlap off: overlap would give the
        # RSS-bounded store a worker thread and per-rank decode workspaces,
        # whose resident cost is not measured yet.
        self.overlap = bool(overlap) and store_ds is None
        self.transport = Transport(
            self.num_devices, workers=transport_workers(transport, overlap=self.overlap)
        )
        if transport_timeout_s is not None:
            self.transport.timeout_s = float(transport_timeout_s)
        if fault_plan is not None:
            self.transport.fault_plan = fault_plan
        # Decide the kernel tier now (a warm load is a few ms; the first
        # run on a machine compiles), so the run says which one it uses
        # instead of compiling on the hot path.
        _log.info("kernels: %s", kernels.status())
        # The engine's step plan (operators, stacked buffers, views, scratch)
        # is static across epochs and independent of ``overlap``, so it is
        # built here, once; store datasets stream each device's pages
        # through it.  The per-phase FLOP-accounting arrays are cached too.
        self.engine = FusedClusterCompute(
            self.devices, self.model, stream=store_ds is not None
        )
        self._phase_static: dict[tuple[int, str, bool], tuple[np.ndarray, ...]] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train_epoch(
        self, exchange: FusedQuantizedHaloExchange, epoch: int
    ) -> EpochRecord:
        """Run one full forward/backward pass and gradient allreduce.

        Does *not* step the optimizer — the trainer owns it (it may need to
        interleave assigner work between gradient computation and update).
        """
        exchange.on_epoch_start(epoch)
        plan = self.transport.fault_plan
        if plan is not None:
            # Epoch-scoped fault specs (``kind:tag@epoch``) arm here.
            plan.set_epoch(epoch)
        # The parameters' grads need no zeroing: the engine never reads
        # them mid-epoch and overwrites them wholesale at reduce time.
        self.transport.reset_accounting()

        record = EpochRecord(loss=0.0)
        num_layers = self.model.num_layers
        engine = self.engine
        engine.begin_epoch()
        for layer in range(num_layers):
            timeline = engine.forward_layer(
                layer, exchange, self.transport, training=True, overlap=self.overlap
            )
            self._record_step(record, exchange, timeline)
        record.loss = engine.epoch_loss(self._loss)
        for layer in reversed(range(num_layers)):
            timeline = engine.backward_layer(
                layer, exchange, self.transport, overlap=self.overlap
            )
            self._record_step(record, exchange, timeline)
        record.grad_allreduce_bytes = engine.reduce_gradients()
        return record

    def _record_step(self, record: EpochRecord, exchange, timeline) -> None:
        """Add one step's phase record, and on overlapped runs its timeline
        to the epoch's summary."""
        if self.overlap:
            record.timeline_summary.add(timeline)
        phase = self._phase_record(timeline.layer, timeline.phase, exchange)
        record.phases.append(phase)

    def _loss(
        self,
        dev: DeviceRuntime,
        logits: np.ndarray,
        out: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        loss_fn = (
            bce_with_logits_loss if self.dataset.multilabel else softmax_cross_entropy
        )
        return loss_fn(
            logits,
            dev.labels,
            dev.train_mask,
            normalizer=self.global_train_count,
            out=out,
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _eval_forward(self) -> FusedClusterCompute:
        """Exact (un-quantized) eval-mode forward; the engine holds the logits."""
        transport = Transport(self.num_devices)
        engine = self.engine
        for layer in range(self.model.num_layers):
            engine.forward_layer(layer, self._eval_exchange, transport, training=False)
        return engine

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release background transport resources (worker threads).

        Idempotent, and safe after a failed epoch: the transport joins
        outstanding worker jobs swallowing their exceptions (the caller
        already saw them) before shutting the pool down.
        """
        self.transport.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Context-managed clusters cannot leak worker pools, whatever the
        # body raised — the reason this is the recommended usage form.
        self.close()

    def evaluate(self) -> dict[str, float]:
        """Global metrics on train/val/test splits (paper's 'accuracy').

        Runs the exact eval-mode forward and folds each device's logit slice
        into integer count accumulators
        (:func:`~repro.nn.metrics.metric_counts`) — both metrics are ratios
        of summed integer counts, so this equals the global ``task_metric``
        value without ever materializing a global label or logits matrix.
        """
        devices = self.devices
        engine = self._eval_forward()
        multilabel = self.dataset.multilabel
        out: dict[str, float] = {}
        for split in ("train", "val", "test"):
            counts = None
            for k, dev in enumerate(devices):
                sl = engine.logits[engine.own_off[k] : engine.own_off[k + 1]]
                shard = metric_counts(
                    sl,
                    dev.labels,
                    getattr(dev, f"{split}_mask"),
                    multilabel=multilabel,
                )
                counts = shard if counts is None else counts + shard
            out[split] = metric_from_counts(counts, multilabel=multilabel)
        return out

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _phase_record(
        self, layer: int, phase: str, exchange: FusedQuantizedHaloExchange
    ) -> PhaseRecord:
        # Everything but the byte matrix is static across epochs (FLOP
        # counts depend only on partition shape and layer dims), so the
        # per-device arrays are built once per (layer, phase, quantizes)
        # and copied into each record.
        key = (layer, phase, exchange.quantizes)
        static = self._phase_static.get(key)
        if static is None:
            static = self._build_phase_static(layer, phase, exchange.quantizes)
            self._phase_static[key] = static
        agg_flops, agg_central, dense_flops, dense_central, quant_send, quant_recv = static
        return PhaseRecord(
            layer=layer,
            phase=phase,
            bytes_matrix=self.transport.bytes_matrix(step_tag(phase, layer)),
            quant_send_bytes=quant_send.copy(),
            quant_recv_bytes=quant_recv.copy(),
            agg_flops=agg_flops.copy(),
            agg_flops_central=agg_central.copy(),
            dense_flops=dense_flops.copy(),
            dense_flops_central=dense_central.copy(),
        )

    def _build_phase_static(
        self, layer: int, phase: str, quantizes: bool
    ) -> tuple[np.ndarray, ...]:
        n = self.num_devices
        d_in, d_out = self.dims[layer], self.dims[layer + 1]
        dense_factor = 2.0 if self.model_kind == "sage" else 1.0
        if phase == "bwd":
            dense_factor *= 2.0  # d_input GEMM + weight-gradient GEMM

        agg_flops = np.zeros(n)
        agg_central = np.zeros(n)
        dense_flops = np.zeros(n)
        dense_central = np.zeros(n)
        quant_send = np.zeros(n)
        quant_recv = np.zeros(n)
        for dev in self.devices:
            nnz = dev.ops.nnz
            nnz_central = dev.ops.nnz_for_rows(dev.part.central_mask)
            agg_flops[dev.rank] = 2.0 * nnz * d_in
            agg_central[dev.rank] = 2.0 * nnz_central * d_in
            dense = dense_factor * 2.0 * dev.n_owned * d_in * d_out
            dense_flops[dev.rank] = dense
            central_frac = dev.part.n_central / max(dev.n_owned, 1)
            dense_central[dev.rank] = dense * central_frac
            if quantizes:
                # Quantize what we send, de-quantize what we receive; the
                # message width is the layer *input* width in both passes.
                sent = self._rows_out[dev.rank] if phase == "fwd" else self._rows_in[dev.rank]
                recv = self._rows_in[dev.rank] if phase == "fwd" else self._rows_out[dev.rank]
                quant_send[dev.rank] = 4.0 * d_in * sent
                quant_recv[dev.rank] = 4.0 * d_in * recv

        return agg_flops, agg_central, dense_flops, dense_central, quant_send, quant_recv
