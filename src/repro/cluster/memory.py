"""Per-device memory and transfer-volume estimator.

Reproduces the paper's footnote-1 argument for *message* compression over
*gradient* compression: for GNNs, model gradients are tiny next to the
node features and layer embeddings that cross devices every epoch (the
paper quotes 0.55 MB of gradients vs 1.17 GB features / 3.00 GB embeddings
for a 3-layer, hidden-256 GCN on ogbn-products).

The estimator is analytic (counts, not allocation tracking): given a
cluster it reports, per device, the bytes of features, per-layer
activations, halo buffers and model parameters/gradients — and the epoch
wire volume for comparison.

Beyond the footnote-1 data counts, the footprint also models the
*resident working set* the training process actually holds:

* the fused engine's stacked activation/gradient buffers (both the
  standard in-RAM shape and the streaming huge-graph shape, which drops
  the layer-0 feature-width buffers), following each layer's operand
  order — a transform-first GCN layer keeps ``T``/``dT`` over owned and
  halo rows at its output width where an aggregate-first one keeps
  ``z``/``dz`` over owned rows at its input width;
* the exchange's decode workspace — one per receiving rank, holding
  its widest halo-row block;
* the memmap window a streaming device faults in (its operator blocks
  plus feature/label regions) — of which only the current device's is
  resident at once;
* the in-RAM engine's CSR operators — every device's aggregation matrix,
  the block diagonal and its transpose, and the split-phase pipeline's
  central/marginal row restrictions;
* the quantized exchange's plan-resident staging — rows, and the packed
  wire plus per-row metadata (compiled tier) or uint8 codes (NumPy
  tier) — and the quantization kernel's per-chunk scratch, only where the
  NumPy kernel runs; the compiled one (:mod:`repro.quant.native`) has
  none.

:func:`estimate_peak_resident` folds these into one cluster-wide
peak-RSS prediction, cross-checked against measured peak RSS by
``repro.harness.hugebench.bench_huge_graph``; :func:`host_memory` reads the host's
total/available RAM so the CLI can warn before a job that cannot fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.cluster.cluster import Cluster
from repro.quant import fused, native

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
    """Analytic per-device byte counts for one training job.

    The first five fields are the paper's footnote-1 data counts (what
    the device's share of the graph *is*); the remaining fields model
    what the process actually keeps resident to train on it, which
    differs per execution mode — see :attr:`resident_bytes`.
    """

    device: int
    feature_bytes: int
    activation_bytes: int  # all layer outputs kept for backward
    halo_buffer_bytes: int  # receive buffers across layers
    model_param_bytes: int
    model_grad_bytes: int
    #: exchange decode scratch: one workspace per receiving rank (one
    #: step is in flight at a time), sized by the widest halo-row block.
    decode_workspace_bytes: int = 0
    #: the fused engine's stacked buffers attributable to this device's
    #: rows (activations, aggregation outputs, gradients, logits, masks).
    stacked_buffer_bytes: int = 0
    #: bytes of store-backed memmap regions this device faults in while
    #: its kernels run (CSR operator blocks + features + labels).  Only
    #: meaningful in streaming mode; pages are released after use, so one
    #: device's window is resident at a time.
    memmap_window_bytes: int = 0
    #: True when the device reads a memmapped partition store (huge-graph
    #: mode): features/activations at layer 0 are not resident copies.
    streaming: bool = False

    @property
    def message_bytes(self) -> int:
        """Data that crosses devices (features/embeddings/halo traffic)."""
        return self.halo_buffer_bytes

    @property
    def total_bytes(self) -> int:
        """The materialized working set (footnote-1 counts + scratch)."""
        return (
            self.feature_bytes
            + self.activation_bytes
            + self.halo_buffer_bytes
            + self.model_param_bytes
            + self.model_grad_bytes
            + self.decode_workspace_bytes
        )

    @property
    def resident_bytes(self) -> int:
        """Bytes the process is expected to hold in RAM for this device.

        Streaming mode never materializes features or layer-0 buffers
        (they stay on the mapped store, counted by
        :attr:`memmap_window_bytes`); the in-RAM engine holds the device
        features *and* their copy inside the stacked layer-0 buffer
        (stacked buffers already include activations and halo regions).
        """
        shared = (
            self.model_param_bytes
            + self.model_grad_bytes
            + self.decode_workspace_bytes
        )
        if self.streaming:
            return shared + self.stacked_buffer_bytes + self.memmap_window_bytes
        return shared + self.feature_bytes + self.stacked_buffer_bytes


def _stacked_bytes(
    n: int,
    h: int,
    dims: list[int],
    model_kind: str,
    transform_first: list[bool],
    *,
    streaming: bool,
) -> int:
    """This device's rows of the fused engine's preallocated buffers.

    Mirrors ``FusedClusterCompute.__init__`` exactly: every buffer there
    is a concatenation of per-device row blocks, so per-device
    attribution is the same formula with that device's ``n_owned`` /
    ``n_halo``.  Per layer, an aggregate-first conv holds ``_z``/``_dz``
    (owned rows × input width) and a transform-first one ``_t``/``_dt``
    (owned + halo rows × output width).  Streaming mode drops the layer-0
    members (``_x[0]``, ``_dx[0]``, ``_z[0]``, ``_dz[0]``, sage's
    ``_d_own[0]``) and keeps only the layer-0 halo landing zone.
    """
    r = n + h
    L = len(dims) - 1
    lo = 1 if streaming else 0
    elems = 0
    if streaming:
        elems += h * dims[0]  # _x0_halo landing zone
    for l in range(L):
        if l >= lo:
            elems += 2 * r * dims[l]  # _x[l] + _dx[l]
        if transform_first[l]:
            elems += 2 * r * dims[l + 1]  # _t[l] + _dt[l]
        elif l >= lo:
            elems += 2 * n * dims[l]  # _z[l] + _dz[l]
    elems += 2 * n * dims[-1]  # logits + d_logits
    if model_kind == "sage":
        elems += sum(n * dims[l + 1] for l in range(L))  # _neigh_out
        elems += sum(n * dims[l] for l in range(lo, L))  # _d_own
    post = sum(n * dims[l + 1] for l in range(L - 1))
    bytes_ = elems * _F32
    bytes_ += post * _F32  # _x_hat
    bytes_ += n * (L - 1) * _F32  # _inv_std, one float per row
    bytes_ += post  # _relu_mask (bool)
    bytes_ += post * _F32  # _drop_mask
    return bytes_


def _transform_first(cluster: Cluster) -> list[bool]:
    """Each layer's operand order, read off the (shared) replica's convs."""
    return [mod.conv.transform_first for mod in cluster.devices[0].model.layers]


def _csr_bytes(m) -> int:
    return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _stage_bytes(n_rows: int, dim: int, wire: int) -> int:
    """One step's plan-resident staging on the kernel tier that is loaded.

    Both tiers stage the source rows (float32, gather order, 4 B/element).
    The compiled quantizer writes codes already packed into the plan's
    wire buffer (``wire`` bytes — ≤ 1 B/element, the bits the plan
    assigns) and per-row zero points and scales (8 B/row).  The NumPy
    kernel stages uint8 codes in payload order (1 B/element) before
    packing; its term stays the 5 B/element it has always been, which
    leaves its wire and per-row metadata out.
    """
    if native.load() is None:
        return 5 * n_rows * dim
    return 4 * n_rows * dim + wire + 8 * n_rows


def _quant_stage_bytes(cluster: Cluster) -> int:
    """Plan-resident staging of the fused quantized exchange.

    :func:`_stage_bytes` for every (phase, layer) step, its wire at 8 bits
    (one byte per element): before the assigner has run the widths are
    not known, and the widest bounds them.  The kernel's own
    intermediates are :func:`_quant_scratch_bytes`.  Send rows total the
    halo rows (each halo row is sent exactly once); forward steps carry
    every non-output width, backward the same minus layer 0 when
    streaming (its gradient exchange is skipped).
    """
    dims = cluster.dims
    streaming = cluster._stream_ops is not None
    send = sum(dev.part.n_halo for dev in cluster.devices)
    widths = [*dims[:-1], *dims[(1 if streaming else 0) : -1]]
    return sum(_stage_bytes(send, d, send * d) for d in widths)


def _operator_bytes(cluster: Cluster) -> int:
    """The CSR operators the in-RAM engine holds (streaming: none — its
    operator blocks are in the memmap windows).

    Every device's ``agg.matrix``, counted off the object, plus the
    engine's block diagonal and its transpose — and, where the split-phase
    pipeline runs, its central and marginal row restrictions: ``nnz``
    entries of data and indices each (the two restrictions split them), and
    index pointers over their rows.  Counted from shapes the way scipy
    stores them (int32 indices while they fit), because the RAM-fit warning
    reads this before the engine is built; the backward's owned and halo
    halves of the transpose are row ranges of it and cost nothing.
    """
    if cluster._stream_ops is not None:
        return 0
    devices = cluster.devices
    nnz = sum(dev.agg.nnz for dev in devices)
    own = sum(dev.n_owned for dev in devices)
    cols = own + sum(dev.part.n_halo for dev in devices)
    index = 4 if max(nnz, cols) < 2**31 else 8
    entry = devices[0].agg.matrix.data.itemsize + index
    split = 1 if cluster.overlap else 0
    pointers = (1 + 2 * split) * (own + 1) + cols + 1
    operators = (2 + split) * nnz * entry + pointers * index
    return operators + sum(_csr_bytes(dev.agg.matrix) for dev in devices)


#: Bytes per element the NumPy quantization kernel holds for one chunk:
#: float32 noise (4) drawn from uint16 lanes (2), normalized values (4),
#: floors (4), the round-up mask (1) and cat-order uint8 codes (1).
_NUMPY_KERNEL_SCRATCH = 16


def _quant_scratch_bytes(cluster: Cluster) -> int:
    """Transient scratch of the quantization kernel while a step encodes.

    The NumPy kernel walks a shard in chunks of ``_QUANT_CHUNK_ROWS`` rows
    (the longest pair, where that is longer; the whole step, where that is
    shorter) and holds :data:`_NUMPY_KERNEL_SCRATCH` bytes per chunk element
    at the widest exchanged width, once per encode worker.  The compiled
    kernel works row by row on a few hundred bytes, so where it is loaded
    this term is zero.
    """
    if native.load() is not None:
        return 0
    pairs = [len(r) for dev in cluster.devices for r in dev.part.send_map.values()]
    chunk = min(max([fused._QUANT_CHUNK_ROWS, *pairs]), sum(pairs))
    workers = max(1, cluster.transport_workers)
    return chunk * max(cluster.dims[:-1]) * _NUMPY_KERNEL_SCRATCH * workers


def estimate_memory(cluster: Cluster) -> list[MemoryFootprint]:
    """Estimate every device's footprint for ``cluster``'s configuration.

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
    streaming = cluster._stream_ops is not None
    max_width = max(dims[:-1])
    transform_first = _transform_first(cluster)
    footprints = []
    for k, dev in enumerate(cluster.devices):
        n = dev.n_owned
        h = dev.part.n_halo
        feature_bytes = n * dims[0] * _F32
        activation_bytes = sum(n * d_out * _F32 for d_out in dims[1:])
        halo_buffer_bytes = sum(h * d_in * _F32 for d_in in dims[:-1])
        params = dev.model.num_parameters()
        window = 0
        if streaming:
            ops = cluster._stream_ops[k]
            window = (
                _csr_bytes(ops.own)
                + _csr_bytes(ops.halo)
                + _csr_bytes(ops.own_t)
                + _csr_bytes(ops.halo_t)
                + int(dev.features.nbytes)
                + int(dev.labels.nbytes)
            )
        stacked = _stacked_bytes(
            n, h, dims, cluster.model_kind, transform_first, streaming=streaming
        )
        footprints.append(
            MemoryFootprint(
                device=dev.rank,
                feature_bytes=feature_bytes,
                activation_bytes=activation_bytes,
                halo_buffer_bytes=halo_buffer_bytes,
                model_param_bytes=params * _F32,
                model_grad_bytes=params * _F32,
                decode_workspace_bytes=h * max_width * _F32,
                stacked_buffer_bytes=stacked,
                memmap_window_bytes=window,
                streaming=streaming,
            )
        )
    return footprints


def estimate_peak_resident(cluster: Cluster) -> int:
    """Predicted peak resident bytes for training on ``cluster``.

    Sums every device's :attr:`MemoryFootprint.resident_bytes` — except
    the streaming memmap windows, of which only the running device's is
    resident at once thanks to the engine's page release, so the widest
    window stands in for the sum.  The streaming layer-0
    aggregation scratch (one ``(max_own, F)`` buffer reused across
    devices) exists only when layer 0 aggregates first — a transform-first
    layer 0 reads the feature map straight into ``T``, which
    :func:`_stacked_bytes` counts.  The in-RAM engine's operators
    (:func:`_operator_bytes`), the quantized exchange's staging buffers
    and, on the NumPy kernel tier, its per-chunk scratch are added once —
    the last two assume an adaqp-family system (the common case); a
    vanilla run is overestimated by those terms, which errs on the safe
    side for the RAM-fit warning.

    This is the analytic half of ``bench_huge_graph``'s estimate-vs-
    measured check; it deliberately excludes the Python interpreter
    baseline, which the bench subtracts out by measuring ``ru_maxrss``
    before the cluster is built.
    """
    fps = estimate_memory(cluster)
    total = sum(fp.resident_bytes - fp.memmap_window_bytes for fp in fps)
    total += _quant_stage_bytes(cluster) + _quant_scratch_bytes(cluster)
    total += _operator_bytes(cluster)
    if cluster._stream_ops is not None:
        total += max(fp.memmap_window_bytes for fp in fps)
        if not _transform_first(cluster)[0]:
            max_own = max(dev.n_owned for dev in cluster.devices)
            total += max_own * cluster.dims[0] * _F32  # stream_z0 scratch
    return int(total)


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
