"""The reference trainer: distributed full-graph GNN training, stated naively.

One Python loop over the devices per layer, one message per (src, dst)
pair, one dict mailbox per receiver.  No fused kernels, no transport, no
workers, no pipeline — nothing of ``repro.cluster.compute``,
``repro.cluster.exchange``, ``repro.quant.fused`` or ``repro.comm``'s
transports is imported (a test fences that), so what production must
compute is written down once, independently of how production computes it.

Every execution shape of :class:`repro.cluster.cluster.Cluster` is compared
with this bitwise (``tests/cluster/test_oracle_matrix.py``); this module in
turn is anchored to single-device math and the analytic wire-byte formula
(``tests/reference/test_oracle.py``).

What bitwise equality rests on, all of it visible below: messages travel
in source-then-destination ascending order and are consumed in ascending
source order; a quantized message's noise is keyed on ``(epoch, phase,
layer, src, dst)``; each layer picks aggregate-or-transform from its conv's
``transform_first``; parameter gradients are summed over devices in rank
order in float64.  Every device holds its own model replica
(``model.py``) and its own optimizer, as AdaQP's GPUs do; the replicas
start from one weight stream and step on the same reduced gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from reference.model import Replica
from reference.wire import MixedPrecisionEncoder, decode

from repro.cluster.runtime import build_devices
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import parse_topology
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.gnn.coefficients import build_aggregation
from repro.graph.io import StoreDataset
from repro.graph.partition.book import build_local_partitions
from repro.nn.losses import bce_with_logits_loss, softmax_cross_entropy
from repro.nn.metrics import metric_counts, metric_from_counts
from repro.nn.optim import Adam
from repro.quant.stochastic import KeyedRounding
from repro.utils.seed import RngPool

#: The matrix's run recipe, shared with the production arm.
EPOCHS = 4
PERIOD, GROUP_SIZE = 2, 20  # the adaptive policy's re-assignment period, group size
NOISE_SEED = 123  # of the rounding noise
FIXED_BITS = 4  # the fixed-bit ("quantized") policy's width
SKIP = 2  # the broadcast policy sends every SKIP-th epoch


def cost_model(num_parts: int) -> LinkCostModel:
    return LinkCostModel.for_topology(parse_topology(f"{num_parts}M-1D"))


@dataclass
class Run:
    """What one training run is compared on."""

    losses: list[float] = field(default_factory=list)
    grads: list[np.ndarray] = field(default_factory=list)  # reduced, per epoch
    wire: list[int] = field(default_factory=list)  # bytes, per epoch
    bits: list[dict] = field(default_factory=list)  # per re-assignment
    metrics: dict[str, float] = field(default_factory=dict)

    def record(self, loss, wire, model, assigner=None) -> None:
        self.losses.append(loss)
        self.wire.append(int(wire))
        self.grads.append(model.grad_vector().copy())
        if assigner is not None and assigner.num_reassignments > len(self.bits):
            self.bits.append({k: v.copy() for k, v in assigner._assignments.items()})

    def mismatches(self, other: "Run") -> list[str]:
        """Names of the quantities that are not bitwise equal."""
        same_grads = len(self.grads) == len(other.grads) and all(
            np.array_equal(a, b) for a, b in zip(self.grads, other.grads)
        )
        same_bits = len(self.bits) == len(other.bits) and all(
            a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
            for a, b in zip(self.bits, other.bits)
        )
        checks = {
            "losses": self.losses == other.losses,
            "reduced gradients": same_grads,
            "wire bytes": self.wire == other.wire,
            "bit-widths": same_bits,
            "eval metrics": self.metrics == other.metrics,
        }
        return [name for name, ok in checks.items() if not ok]


# -- message policies: who sends what to whom, and what arrives -------------
class PairwisePolicy:
    """One full-precision message per (src, dst) pair; received gradients
    are added into the owner's rows one source at a time."""

    def start_epoch(self, epoch: int) -> None:
        pass

    def transmit(self, phase, layer, src, dst, rows):
        """``(rows as received, bytes on the wire)`` for one message."""
        return rows, rows.nbytes

    def exchange(self, phase, layer, devices, values):
        """Every message of one step: ``({dst: {src: rows}}, wire bytes)``.

        Forward sends boundary rows along ``send_map``; backward returns
        halo gradients along ``recv_map``.  Rows are copied out of
        ``values`` (fancy indexing), i.e. frozen when posted.
        """
        mail, wire = {dev.rank: {} for dev in devices}, 0
        for dev in devices:
            maps = dev.part.send_map if phase == "fwd" else dev.part.recv_map
            for dst in sorted(maps):
                rows = np.ascontiguousarray(values[dev.rank][maps[dst]], np.float32)
                mail[dst][dev.rank], nbytes = self.transmit(
                    phase, layer, dev.rank, dst, rows
                )
                wire += nbytes
        return mail, wire


class ExactPolicy(PairwisePolicy):
    """Vanilla's messages: the float32 rows themselves."""


class QuantizedPolicy(PairwisePolicy):
    """Each message stochastically quantized at its rows' bit-widths
    (paper Eqns. 4–5), packed, and de-quantized by the receiver."""

    def __init__(self, bit_provider, rounding: KeyedRounding, tracer=None) -> None:
        self.bit_provider = bit_provider
        self.rounding = rounding
        self.encoder = MixedPrecisionEncoder(rounding)
        self.tracer = tracer

    def start_epoch(self, epoch: int) -> None:
        if hasattr(self.bit_provider, "set_epoch"):
            self.bit_provider.set_epoch(epoch)  # the assigner re-solves here
        self.rounding.set_epoch(epoch)

    def noise_key(self, phase, layer, src, dst):
        return (phase, layer, src, dst)

    def transmit(self, phase, layer, src, dst, rows):
        if self.tracer is not None and self.tracer.wants_traces:
            self.tracer.observe(phase, layer, src, dst, rows)
        bits = self.bit_provider.bits_for(layer, phase, src, dst, rows.shape[0])
        payload = self.encoder.encode(
            rows, bits, block=self.noise_key(phase, layer, src, dst)
        )
        return decode(payload), payload.wire_bytes


class FixedBits:
    def __init__(self, bits: int) -> None:
        self.bits = bits

    def bits_for(self, layer, phase, src, dst, n_rows):
        return np.full(n_rows, self.bits, dtype=np.int64)


class StalePolicy(PairwisePolicy):
    """PipeGCN: this epoch's messages travel, last epoch's are consumed
    (the first epoch consumes its own)."""

    def __init__(self) -> None:
        self.previous: dict = {}

    def exchange(self, phase, layer, devices, values):
        fresh, wire = super().exchange(phase, layer, devices, values)
        served = self.previous.get((phase, layer), fresh)
        self.previous[(phase, layer)] = fresh
        return served, wire


class BroadcastPolicy(PairwisePolicy):
    """SANCUS: every ``skip``-th epoch each device broadcasts its whole
    embedding block to its peers, who otherwise read the last block they
    got; halo gradients are never sent."""

    def __init__(self, skip: int) -> None:
        self.skip = skip
        self.epoch = 0
        self.blocks: dict = {}  # (layer, dst) -> {src: full block}

    def start_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def exchange(self, phase, layer, devices, values):
        mail, wire = {dev.rank: {} for dev in devices}, 0
        if phase == "bwd":
            return mail, wire
        for dev in devices:
            if self.epoch % self.skip == 0:
                block = np.array(values[dev.rank], dtype=np.float32)
                for dst in sorted(dev.part.send_map):
                    self.blocks.setdefault((layer, dst), {})[dev.rank] = block
                    wire += block.nbytes
        for dev in devices:
            for src, block in self.blocks.get((layer, dev.rank), {}).items():
                mail[dev.rank][src] = block[devices[src].part.send_map[dev.rank]]
        return mail, wire


def make_policy(name: str, trainer: "ReferenceTrainer"):
    if name == "exact":
        return ExactPolicy()
    if name == "stale":
        return StalePolicy()
    if name == "broadcast":
        return BroadcastPolicy(SKIP)
    if name == "quantized":
        return QuantizedPolicy(FixedBits(FIXED_BITS), KeyedRounding(NOISE_SEED))
    assert name == "adaptive", name
    assigner = AdaptiveBitWidthAssigner(
        trainer, cost_model(len(trainer.devices)), period=PERIOD, group_size=GROUP_SIZE
    )
    return QuantizedPolicy(assigner, KeyedRounding(NOISE_SEED), tracer=assigner)


# -- the trainer -------------------------------------------------------------
def operators(dataset, book, model_kind) -> list:
    """Each device's whole aggregation operator ``P``: built from the
    partitions and the global adjacency in RAM, or glued back together
    from a store's column halves, ``[agg_own | agg_halo]``."""
    kind = "gcn" if model_kind == "gcn" else "sage"
    if isinstance(dataset, StoreDataset):
        stored = (dataset.store.partition(p) for p in range(book.num_parts))
        return [sp.hstack([s.ops.own, s.ops.halo], format="csr") for s in stored]
    adjacency, degrees = dataset.graph.to_scipy(), dataset.graph.degrees
    return [
        build_aggregation(part, adjacency[part.owned_global], degrees, kind)[0]
        for part in build_local_partitions(dataset.graph, book)
    ]


class ReferenceTrainer:
    """Lock-step training over per-device model replicas."""

    def __init__(
        self, dataset, book, policy, *, model_kind, hidden_dim, num_layers=3,
        dropout=0.5, seed=7,
    ) -> None:
        dims = [dataset.num_features, *[hidden_dim] * (num_layers - 1), dataset.num_classes]
        self.devices = build_devices(dataset, book, model_kind=model_kind, seed=seed)
        weights = RngPool(seed).fork("cluster").fork("weights")
        self.models = [
            Replica(
                model_kind, dims, agg, dropout=dropout,
                weight_rng=weights.fork("shared").get("init"),
                dropout_rng=dev.dropout_rng,
            )
            for dev, agg in zip(self.devices, operators(dataset, book, model_kind))
        ]  # fmt: skip
        self.policy = make_policy(policy, self) if isinstance(policy, str) else policy
        self.multilabel = dataset.multilabel
        self.n_train = sum(int(dev.train_mask.sum()) for dev in self.devices)
        # A store's input features are not trainable, and production skips
        # the exchange of their gradients there; so does the reference.
        self.routes_input_grads = not isinstance(dataset, StoreDataset)

    def arrival_order(self, mailbox: dict) -> list[int]:
        return sorted(mailbox)

    def forward(self, policy) -> tuple[list[np.ndarray], int]:
        """Per-device outputs of the last layer, and the wire bytes moved."""
        devices, wire = self.devices, 0
        h = [dev.features for dev in devices]
        for layer in range(len(self.models[0].layers)):
            mail, nbytes = policy.exchange("fwd", layer, devices, h)
            wire += nbytes
            nxt = []
            for dev in devices:
                halo = np.zeros((dev.part.n_halo, h[dev.rank].shape[1]), np.float32)
                for src in self.arrival_order(mail[dev.rank]):
                    halo[dev.part.recv_map[src]] = mail[dev.rank][src]
                nxt.append(self.models[dev.rank].layers[layer].forward(h[dev.rank], halo))
            h = nxt
        return h, wire

    def train_epoch(self, epoch: int) -> tuple[float, int]:
        """One forward/backward pass; leaves the reduced gradient in every
        replica.  Returns ``(loss, wire bytes)``."""
        devices, models = self.devices, self.models
        self.policy.start_epoch(epoch)
        for model in models:
            model.train()
            model.zero_grad()
        logits, wire = self.forward(self.policy)

        loss_fn = bce_with_logits_loss if self.multilabel else softmax_cross_entropy
        loss, d = 0.0, []
        for dev in devices:
            dev_loss, d_logits = loss_fn(
                logits[dev.rank], dev.labels, dev.train_mask, normalizer=self.n_train
            )
            loss += dev_loss
            d.append(d_logits)

        for layer in reversed(range(len(models[0].layers))):
            back = [model.layers[layer].backward(d[k]) for k, model in enumerate(models)]
            d = [d_own for d_own, _ in back]
            if layer == 0 and not self.routes_input_grads:
                continue
            mail, nbytes = self.policy.exchange(
                "bwd", layer, devices, [d_halo for _, d_halo in back]
            )
            wire += nbytes
            for dev in devices:
                for src in self.arrival_order(mail[dev.rank]):
                    d[dev.rank][dev.part.send_map[src]] += mail[dev.rank][src]

        total = np.zeros(models[0].grad_vector().size, dtype=np.float64)
        for model in models:
            total += model.grad_vector()
        for model in models:
            model.set_grad_vector(total.astype(np.float32))
        return float(loss), wire

    def evaluate(self) -> dict[str, float]:
        """Exact eval-mode forward; split metrics from per-device counts."""
        for model in self.models:
            model.eval()
        logits, _ = self.forward(ExactPolicy())
        metrics = {}
        for split in ("train", "val", "test"):
            counts = sum(
                metric_counts(
                    logits[dev.rank], dev.labels, getattr(dev, f"{split}_mask"),
                    multilabel=self.multilabel,
                )
                for dev in self.devices
            )
            metrics[split] = metric_from_counts(counts, multilabel=self.multilabel)
        return metrics

    def run(self, epochs: int = EPOCHS, lr: float = 0.01) -> Run:
        optimizers = [Adam(model.parameters(), lr=lr) for model in self.models]
        out = Run()
        for epoch in range(epochs):
            loss, wire = self.train_epoch(epoch)
            tracer = getattr(self.policy, "tracer", None)
            out.record(loss, wire, self.models[0], tracer)
            for opt in optimizers:
                opt.step()
        out.metrics = self.evaluate()
        return out
