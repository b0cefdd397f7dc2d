"""Per-device memory and transfer-volume estimator.

Reproduces the paper's footnote-1 argument for *message* compression over
*gradient* compression: for GNNs, model gradients are tiny next to the
node features and layer embeddings that cross devices every epoch (the
paper quotes 0.55 MB of gradients vs 1.17 GB features / 3.00 GB embeddings
for a 3-layer, hidden-256 GCN on ogbn-products).  :func:`estimate_memory`
reports, per device, the bytes of features, per-layer activations, halo
buffers and a model replica's parameters and gradients.

:func:`estimate_peak_resident` predicts the training process's peak RSS.
What already exists when it runs is counted off the objects:

* the fused engine's arrays, :attr:`FusedClusterCompute.nbytes
  <repro.cluster.compute.FusedClusterCompute.nbytes>` — stacked buffers,
  scratch and gradient accumulators, whatever the engine allocates;
* the operators it reads: in RAM every device's
  :class:`~repro.graph.io.SplitOperators` quartet; from a store the widest
  memmap window (a device's quartet plus its feature and label regions),
  as the engine releases each device's pages before the next faults in,
  or every window where the store is materialized;
* the one parameter set and its ``grad``.

What does not exist yet is modelled: Adam's ``m`` and ``v``; the quantized
exchange's staging — one block of rows (plus, on the NumPy tier, one of
uint8 codes) at the widest step, as the encoder shares it between every
step's plan — and every plan's packed wire and per-row metadata; one
backward landing block per receiving rank; and the quantization kernel's
per-chunk scratch, only where the NumPy kernel runs (the compiled one,
:mod:`repro.kernels`, has none).  The NumPy tier's other scratch — a
shard's pack, a receiver's decode — lives for one call and is not
counted (see :func:`_quant_scratch_bytes`).
``repro.harness.hugebench.bench_huge_graph`` cross-checks the prediction
against measured peak RSS;
:func:`host_memory` reads the host's total/available RAM so the CLI can
warn before a job that cannot fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro import kernels
from repro.cluster.cluster import Cluster
from repro.quant import fused

__all__ = [
    "HostMemory",
    "MemoryFootprint",
    "estimate_memory",
    "estimate_peak_resident",
    "host_memory",
]

_F32 = 4  # bytes per float32 element


@dataclass(frozen=True)
class MemoryFootprint:
    """The paper's footnote-1 byte counts for one device: what its share of
    the graph *is*, with the per-GPU model replica the paper's devices each
    hold."""

    device: int
    feature_bytes: int
    activation_bytes: int  # all layer outputs kept for backward
    halo_buffer_bytes: int  # receive buffers across layers
    model_param_bytes: int
    model_grad_bytes: int

    @property
    def message_bytes(self) -> int:
        """Data that crosses devices (features/embeddings/halo traffic)."""
        return self.halo_buffer_bytes


def _model_bytes(cluster: Cluster) -> int:
    """The one parameter set: its parameters and their ``grad``, counted
    off the model, and the ``m`` and ``v`` slots Adam will allocate, one
    float32 array per parameter each."""
    params = cluster.model.parameters()
    held = sum(p.data.nbytes + p.grad.nbytes for p in params)
    return held + 2 * cluster.model.num_parameters() * _F32


def _csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _quartet_bytes(ops) -> int:
    """A device's :class:`~repro.graph.io.SplitOperators`, counted off the
    matrices (memmapped or in RAM)."""
    return sum(_csr_bytes(m) for m in (ops.own, ops.halo, ops.own_t, ops.halo_t))


def _operator_bytes(cluster: Cluster) -> int:
    """The operators the engine reads.  In RAM: every device's quartet.
    From a store, each device's window — its quartet plus its feature and
    label regions: the widest one when streaming, since the engine releases
    each device's pages before the next device's fault in; all of them when
    the store is materialized, as every window is then a RAM copy."""
    store = cluster._store_dataset
    if store is None:
        return sum(_quartet_bytes(dev.ops) for dev in cluster.devices)
    windows = [
        _quartet_bytes(dev.ops) + dev.features.nbytes + dev.labels.nbytes
        for dev in cluster.devices
    ]
    return sum(windows) if store.materialize else max(windows)


def _staging_block_bytes(n_rows: int, dim: int) -> int:
    """The encoder's staging for its widest step, on the kernel tier that is
    loaded: the gathered rows (float32, 4 B/element), and on the NumPy tier
    also the uint8 codes it stages before packing (1 B/element).  The
    compiled quantizer writes codes already packed into the wire."""
    return (4 if kernels.load() is not None else 5) * n_rows * dim


def _plan_bytes(n_rows: int, wire: int) -> int:
    """What one step's plan holds itself: its packed wire (``wire`` bytes —
    ≤ 1 B/element, the bits the plan assigns) and a zero point and a scale
    per row (8 B/row)."""
    return wire + 8 * n_rows


def _quant_stage_bytes(cluster: Cluster) -> int:
    """Staging of the fused quantized exchange.

    One :func:`_staging_block_bytes` at the widest (phase, layer) step —
    the encoder's block, which every step's plan views, as one step is in
    flight at a time — plus :func:`_plan_bytes` for every step, its wire at
    8 bits (one byte per element): before the assigner has run the widths
    are not known, and the widest bounds them.  The kernel's own
    intermediates are :func:`_quant_scratch_bytes`.  Send rows total the
    halo rows (each halo row is sent exactly once); forward steps carry
    every non-output width, backward the same minus layer 0 when
    streaming (its gradient exchange is skipped).
    """
    dims = cluster.dims
    streaming = cluster._store_dataset is not None
    send = sum(dev.part.n_halo for dev in cluster.devices)
    widths = [*dims[:-1], *dims[(1 if streaming else 0) : -1]]
    block = _staging_block_bytes(send, max(widths))
    return block + sum(_plan_bytes(send, send * d) for d in widths)


def _decode_workspace_bytes(cluster: Cluster) -> int:
    """The exchange's decode workspace: one backward landing block per
    receiving rank (one step is in flight at a time), sized by the rows it
    receives — over every rank, the halo rows — at the widest exchanged
    width.  The decode itself keeps no scratch on either tier."""
    halo_rows = sum(dev.part.n_halo for dev in cluster.devices)
    return halo_rows * max(cluster.dims[:-1]) * _F32


#: Bytes per element the NumPy quantization kernel holds for one chunk:
#: float32 noise (4) drawn from uint16 lanes (2), normalized values (4),
#: floors (4), the round-up mask (1) and cat-order uint8 codes (1).
_NUMPY_KERNEL_SCRATCH = 16


def _quant_scratch_bytes(cluster: Cluster) -> int:
    """Transient scratch of the quantization kernel while a step encodes.

    The NumPy kernel walks a shard in chunks of ``_QUANT_CHUNK_ROWS`` rows
    (the longest pair, where that is longer; the whole step, where that is
    shorter) and holds :data:`_NUMPY_KERNEL_SCRATCH` bytes per chunk element
    at the widest exchanged width, once per encode worker.  The NumPy
    tier's scratch outside the kernel is not counted; it is freed when its
    call returns: a shard's pack holds about 1 B per element of the shard,
    a receiver's decode at most about 5 B per element of its rows (codes
    and de-quantized rows of one width).  The compiled kernels work row by
    row on a few hundred bytes, so where they are loaded this term is zero.
    """
    if kernels.load() is not None:
        return 0
    pairs = [len(r) for dev in cluster.devices for r in dev.part.send_map.values()]
    chunk = min(max([fused._QUANT_CHUNK_ROWS, *pairs]), sum(pairs))
    workers = max(1, cluster.transport.workers)
    return chunk * max(cluster.dims[:-1]) * _NUMPY_KERNEL_SCRATCH * workers


def estimate_memory(cluster: Cluster) -> list[MemoryFootprint]:
    """Every device's footnote-1 footprint for ``cluster``'s configuration.

    Examples
    --------
    >>> from repro.graph import load_dataset, partition_graph
    >>> from repro.cluster import Cluster
    >>> ds = load_dataset("yelp", scale="tiny")
    >>> book = partition_graph(ds.graph, 2, method="metis")
    >>> cluster = Cluster(ds, book, hidden_dim=16)
    >>> fp = estimate_memory(cluster)[0]
    >>> fp.model_grad_bytes < fp.message_bytes
    True
    """
    dims = cluster.dims
    params = cluster.model.num_parameters() * _F32
    return [
        MemoryFootprint(
            device=dev.rank,
            feature_bytes=dev.n_owned * dims[0] * _F32,
            activation_bytes=sum(dev.n_owned * d * _F32 for d in dims[1:]),
            halo_buffer_bytes=sum(dev.part.n_halo * d * _F32 for d in dims[:-1]),
            model_param_bytes=params,
            model_grad_bytes=params,
        )
        for dev in cluster.devices
    ]


def estimate_peak_resident(cluster: Cluster) -> int:
    """Predicted peak resident bytes for training on ``cluster``.

    The engine's arrays (``cluster.engine.nbytes``), the operators it reads
    (:func:`_operator_bytes`) and the parameter set with its gradient and
    Adam slots (:func:`_model_bytes`), plus what the exchange allocates once
    it runs: its decode workspaces, its staging and step plans and, on the
    NumPy kernel tier, its per-chunk scratch.  The last three assume an
    adaqp-family system (the common case); a vanilla run is overestimated
    by them, which errs on the safe side for the RAM-fit warning.

    This is the analytic half of ``bench_huge_graph``'s estimate-vs-
    measured check; it deliberately excludes the Python interpreter
    baseline, which the bench subtracts out by measuring ``ru_maxrss``
    before the cluster is built.
    """
    return int(
        cluster.engine.nbytes
        + _operator_bytes(cluster)
        + _model_bytes(cluster)
        + _decode_workspace_bytes(cluster)
        + _quant_stage_bytes(cluster)
        + _quant_scratch_bytes(cluster)
    )


@dataclass(frozen=True)
class HostMemory:
    """Host RAM totals read from ``/proc/meminfo`` (bytes)."""

    total_bytes: int
    available_bytes: int


def host_memory(path: str | Path = "/proc/meminfo") -> HostMemory | None:
    """Read total/available RAM; ``None`` when the file is unreadable.

    ``MemAvailable`` is the kernel's estimate of memory available to a
    new workload without swapping — the right comparison point for
    :func:`estimate_peak_resident`, since page-cache pages (including a
    partition store's) are reclaimable.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    fields: dict[str, int] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if parts and parts[0].isdigit():
            # /proc/meminfo reports kB (kibibytes, despite the label).
            fields[key.strip()] = int(parts[0]) * 1024
    if "MemTotal" not in fields or "MemAvailable" not in fields:
        return None
    return HostMemory(
        total_bytes=fields["MemTotal"],
        available_bytes=fields["MemAvailable"],
    )
