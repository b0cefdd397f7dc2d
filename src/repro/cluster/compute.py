"""The cluster-fused compute engine: one kernel per layer step, all devices.

Dispatching K per-device Python loops per layer — K small spmv's, K
``np.vstack`` copies, K small GEMMs, K losses — is the plain statement of
the math (the reference trainer under ``tests/reference/`` runs exactly
that), but every device computes with the same weights — the cluster's one
parameter set — and in the many-partition regime the paper's wall-clock
results live in those tiny dispatches dominate the epoch.

:class:`FusedClusterCompute` executes the whole cluster's forward/backward
on cluster-wide buffers instead:

* **one operator quartet per device**: each device's aggregation operator
  is held as its own- and halo-column halves and their CSR transposes
  (:class:`~repro.graph.io.SplitOperators`), in RAM and from a store
  alike; each half of a layer's aggregation, and of the backward routing,
  is one spmv per device, reading and writing that device's blocks of the
  stacked buffers in place;
* **stacked activations** live in preallocated ``(ΣN_own + ΣN_halo, d)``
  buffers; the halo exchange writes decoded rows straight into the halo
  region (the ``out`` a step names at
  :meth:`~repro.cluster.exchange.FusedQuantizedHaloExchange.post_step`),
  so no per-layer ``np.vstack`` copy is made;
* **one stacked GEMM** per layer runs every device's dense transform with
  the one parameter set (via :func:`repro.nn.blas.row_matmul`, which
  keeps per-row results identical to per-device GEMMs; a transform-first
  layer's owned rows run one GEMM per device in the central window);
* **weight gradients accumulate directly in reduced form**: per-device
  partial gradients are summed into float64 accumulators in rank order
  and rounded to float32 once, into the parameters' ``grad``, so K flat
  gradient vectors are never built.

**Operand order** is the conv's, not the engine's: a GCN layer whose
output is narrower than its input (:func:`repro.gnn.conv.transform_first`)
runs ``T = X̃·W`` over owned *and* halo rows and then ``P·T`` — the spmv
at width ``d_out`` instead of ``d_in`` — and its backward mirrors it
(``dT = Pᵀ·dY``, per-device weight partial ``X_ownᵀ·dT_own`` then
``+ X_haloᵀ·dT_halo``, ``dX̃ = dT·Wᵀ``).  Every shape below reads the
same flag, the operators and their row/column splits are the same
objects either way, and ``row_matmul`` is row-deterministic, so the
shapes stay bitwise-equal to each other and to the per-device reference.
The exchange never sees the difference: the same ``d_in``-wide rows travel
in both directions.

Numerical contract (asserted by the oracle matrix,
``tests/cluster/test_oracle_matrix.py``): under the same seed the engine
is **bit-identical** to the per-device reference trainer — same losses,
same reduced model gradients, same wire bytes — for every exchange policy
(exact, quantized, stale, broadcast-skip).  Everything per-row is
trivially identical; the three non-obvious cases are (a) GEMMs, handled
by ``row_matmul``'s row-determinism, (b) spmv's, where each device's
quartet keeps every row's entries in stored order and every product — on
scipy's ``csr_matvecs`` or the compiled kernel that repeats its operations
(:func:`_spmv`) — sums each output row over its entries in stored order,
and (c) reductions (loss sums, gradient sums, ``sum(axis=0)``
of contiguous slices), which keep the per-device operation order exactly.

**One layer step, the paper's pipeline** (Sec. 3.1 / Fig. 7).  Every
aggregation is split by column, ``P = [P_own | P_halo]``, in every run.
Forward: post the boundary messages, run the **central** window while they
are in flight — the transform-first ``T_own`` GEMM, the own-column half of
the aggregation (it reads no halo row) and the dropout draws — finalize
the halos, accumulate the **halo-column** half, then run the dense update
and post stage once over every owned row, in place.  Each row adds its
own-column entries and then its halo-column entries, in stored order, from
``+0.0``: the same sum as the one-pass product.  Backward mirrors it
dependency-first: the input-gradient GEMM and ``Pᵀ``'s halo rows it feeds
run *before* the post; every parameter partial and ``Pᵀ``'s owned rows fill
the window.  The operators are one :class:`~repro.graph.io.SplitOperators`
quartet per device, in every run, and every product is one loop over them.
``overlap`` changes no operation: it opens the transport's accounting
window (bytes that land while it is open count as hidden).  Every shape works in place on persistent buffers in their
original row order (permuting them would reorder the loss and ``xᵀ·d``
reductions), and every step returns a measured
:class:`~repro.cluster.records.StepTimeline`.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.cluster.exchange import step_tag
from repro.cluster.records import StepTimeline
from repro.cluster.runtime import DeviceRuntime
from repro.gnn.model import DistGNN
from repro.nn.blas import row_matmul

__all__ = ["FusedClusterCompute"]

try:  # pragma: no cover - import guard
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - a scipy without the private kernel
    _csr_matvecs = None


class _CsrOperand:
    """An operator as :func:`_spmv` reads it, resolved once: its shape and
    ``nnz`` and, where the compiled kernel takes it (float32 values with
    int32 ``indptr`` / ``indices``), the addresses of those three arrays.
    It holds the matrix, so the addresses stay valid while it lives."""

    __slots__ = ("matrix", "shape", "nnz", "dtype", "pointers")

    def __init__(self, matrix: sp.csr_matrix) -> None:
        self.matrix = matrix
        self.shape = matrix.shape
        self.nnz = matrix.nnz
        self.dtype = matrix.dtype
        native = (
            matrix.dtype == np.float32
            and matrix.indptr.dtype == matrix.indices.dtype == np.int32
        )
        self.pointers = (
            tuple(a.ctypes.data for a in (matrix.indptr, matrix.indices, matrix.data))
            if native
            else None
        )


def _spmv(
    matrix: sp.csr_matrix | _CsrOperand,
    x: np.ndarray,
    out: np.ndarray,
    *,
    accumulate: bool = False,
) -> np.ndarray:
    """``out = P @ x``, or ``out += ...`` — the engine's one spmv.

    Each output row is summed over its stored entries in stored order, from
    ``+0.0`` or, accumulating, from ``out``'s row: scipy's ``csr_matvecs``,
    which the compiled ``repro_csr_rows`` (loaded by :mod:`repro.kernels`,
    if at all) reproduces bit for bit.  Splitting a product into column
    halves whose entries keep that order therefore changes no bit.
    Operands the compiled kernel does not take — not float32 / int32 /
    C-contiguous — run on scipy.  ``x`` and ``out`` are checked on every
    call; the operator is checked once, when it is resolved (the engine
    resolves each of its operators when it is built, a bare matrix is
    resolved here), and its index arrays are trusted, as scipy's kernel
    trusts them (the engine builds every operator it passes).
    """
    op = matrix if isinstance(matrix, _CsrOperand) else _CsrOperand(matrix)
    rows, cols = op.shape
    if x.shape[0] != cols or out.shape != (rows, x.shape[1]):
        raise ValueError(f"spmv {op.shape} @ {x.shape} -> {out.shape}")
    contiguous = x.flags.c_contiguous and out.flags.c_contiguous
    same_dtype = x.dtype == op.dtype == out.dtype
    lib = kernels.load()
    if lib is not None and contiguous and same_dtype and op.pointers is not None:
        lib.repro_csr_rows(
            rows,
            *op.pointers,
            x.ctypes.data,
            x.shape[1],
            out.ctypes.data,
            accumulate,
        )
    elif _csr_matvecs is not None and contiguous and same_dtype:
        if not accumulate:
            out.fill(0.0)
        m = op.matrix
        _csr_matvecs(
            rows, cols, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel()
        )
    elif accumulate:
        out += op.matrix @ x
    else:
        out[...] = op.matrix @ x
    return out


def _post_operands(
    norm,
    h: np.ndarray,
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    relu_mask: np.ndarray,
    drop: np.ndarray | None,
    *more: np.ndarray,
) -> bool:
    """Check a post-stage block's caches against it (the compiled kernels
    trust them); return whether those kernels take the operands: a loaded
    library, float32 rows and parameters (``more`` too), C-contiguous."""
    n, dim = h.shape
    gamma, beta = norm.gamma.data, norm.beta.data
    masks = {x_hat.shape, relu_mask.shape, h.shape if drop is None else drop.shape}
    fits = masks == {(n, dim)} and inv_std.shape == (n, 1) and relu_mask.dtype == bool
    if not fits or gamma.shape != (dim,) or beta.shape != (dim,):
        raise ValueError(f"post stage of {h.shape}: caches or parameters do not match")
    if kernels.load() is None or not relu_mask.flags.c_contiguous:
        return False
    floats = (h, x_hat, inv_std, drop, gamma, beta, *more)
    return all(
        a is None or (a.dtype == np.float32 and a.flags.c_contiguous) for a in floats
    )


def _post_forward(
    norm,
    h: np.ndarray,
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    relu_mask: np.ndarray,
    drop: np.ndarray | None,
) -> None:
    """LayerNorm → ReLU → dropout over the row block ``h``, in place — the
    engine's one post-stage forward.

    Caches each row's ``x_hat``, ``inv_std`` (``(n, 1)``) and ReLU mask for
    :func:`_post_backward`; ``drop`` is the block's dropout mask, ``None``
    when dropout is off.  The compiled ``repro_post_forward`` (loaded by
    :mod:`repro.kernels`, if at all) does NumPy's float32 operations in
    NumPy's order, so both tiers write the same bytes:
    :meth:`~repro.nn.layers.LayerNorm.forward_into`, ``h *= h > 0``,
    ``h *= drop``.
    """
    if _post_operands(norm, h, x_hat, inv_std, relu_mask, drop):
        kernels.load().repro_post_forward(
            *h.shape,
            h.ctypes.data,
            norm.gamma.data.ctypes.data,
            norm.beta.data.ctypes.data,
            norm.eps,
            None if drop is None else drop.ctypes.data,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            relu_mask.ctypes.data,
        )
        return
    inv_std[...] = norm.forward_into(h, x_hat)
    np.greater(h, 0, out=relu_mask)
    h *= relu_mask
    if drop is not None:
        h *= drop


def _post_backward(
    norm,
    d: np.ndarray,
    x_hat: np.ndarray,
    inv_std: np.ndarray,
    relu_mask: np.ndarray,
    drop: np.ndarray | None,
    bounds: np.ndarray,
    partials: np.ndarray,
) -> None:
    """The backward of :func:`_post_forward`, in place over ``d``.

    Masks ``d`` by the dropout and ReLU masks, writes per block ``k`` of
    rows ``bounds[k]:bounds[k + 1]`` (a device's rows; ``bounds`` runs
    from 0 to ``len(d)``) LayerNorm's parameter partials ``partials[k] =
    (Σ d·x_hat, Σ d)`` — column sums, ``block.sum(axis=0)`` — and then
    overwrites ``d`` with :meth:`~repro.nn.layers.LayerNorm.input_grad`.
    The compiled ``repro_post_backward`` repeats NumPy's operations in
    NumPy's order, like :func:`_post_forward`.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    n_blocks = len(bounds) - 1
    covers = n_blocks >= 0 and bounds[0] == 0 and bounds[-1] == len(d)
    if not covers or (np.diff(bounds) < 0).any():
        raise ValueError(f"post stage of {d.shape}: blocks {bounds} do not cover it")
    if partials.shape != (n_blocks, 2, d.shape[1]):
        raise ValueError(f"partials {partials.shape}: {n_blocks} blocks of {d.shape}")
    if _post_operands(norm, d, x_hat, inv_std, relu_mask, drop, partials):
        kernels.load().repro_post_backward(
            d.shape[1],
            d.ctypes.data,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            relu_mask.ctypes.data,
            None if drop is None else drop.ctypes.data,
            norm.gamma.data.ctypes.data,
            bounds.ctypes.data,
            n_blocks,
            partials.ctypes.data,
        )
        return
    if drop is not None:
        d *= drop
    d *= relu_mask
    prod = d * x_hat
    for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        partials[k, 0] = prod[lo:hi].sum(axis=0)
        partials[k, 1] = d[lo:hi].sum(axis=0)
    d[...] = norm.input_grad(d, x_hat, inv_std)


class FusedClusterCompute:
    """Whole-cluster forward/backward on stacked buffers.

    Built once, by its :class:`~repro.cluster.cluster.Cluster` (the step
    plan — operators, offsets, views, scratch — is static across epochs, like
    the exchange's ``FusedStepPlan``, and every buffer a step uses is
    allocated here, so :attr:`nbytes` is what the engine holds from
    construction on); the cluster drives it with one step
    method per direction, :meth:`forward_layer` and :meth:`backward_layer`,
    passing ``overlap`` to open the transport's accounting window.

    Parameters
    ----------
    devices:
        The cluster's device runtimes: partitions, operator quartets, data
        and dropout streams, in rank order.  Every product loops over the
        devices' :class:`~repro.graph.io.SplitOperators`, one per device,
        in RAM and from a store alike.
    model:
        The cluster's one parameter set; every device's rows are computed
        with it, and :meth:`reduce_gradients` writes its ``grad``.
    stream:
        Run in **streaming mode** — the huge-graph residency, for devices
        read off a store.  Each device's operator pages are released once
        its rows are consumed, bounding the resident window to roughly one
        partition.  The layer-0 input buffer shrinks to its halo block
        (owned features are read straight off the device's feature array);
        an aggregate-first layer 0 aggregates device by device into a
        feature-width scratch after finalize; and layer 0's backward stops
        at the parameter partials — input features are not trainable, so
        the input-gradient GEMM and the layer-0 gradient exchange are
        skipped (the only wire-byte difference from the in-RAM engine;
        losses are unchanged).  Off (default), the layer-0 input buffer
        holds the features, and each device's ``features`` becomes a view
        of its owned block.
    """

    def __init__(
        self,
        devices: list[DeviceRuntime],
        model: DistGNN,
        *,
        stream: bool = False,
    ) -> None:
        self.devices = devices
        self.model = model
        self.dims = dims = list(model.dims)
        self.model_kind = model_kind = model.kind
        self.num_layers = model.num_layers

        n_own = [d.part.n_owned for d in devices]
        n_halo = [d.part.n_halo for d in devices]
        self.own_off = np.concatenate([[0], np.cumsum(n_own)]).astype(np.int64)
        self.halo_off = np.concatenate([[0], np.cumsum(n_halo)]).astype(np.int64)
        self.total_own = int(self.own_off[-1])
        self.total_halo = int(self.halo_off[-1])
        n_rows = self.total_own + self.total_halo

        # Each device's split operators with the stacked rows they cover:
        # its owned rows (and owned columns) and its halo columns.
        K = range(len(devices))
        self._ops = [dev.ops for dev in devices]
        self._blocks = [
            (dev.ops, self._own_slice(k), self._halo_slice(k))
            for k, dev in enumerate(devices)
        ]
        # The same quartets resolved for _spmv once, per device by name.
        self._csr = [
            {
                name: _CsrOperand(getattr(ops, name))
                for name in ("own", "halo", "own_t", "halo_t")
            }
            for ops in self._ops
        ]

        L = self.num_layers
        self._transform_first = [mod.conv.transform_first for mod in model.layers]

        def rows(n: int, width: int) -> np.ndarray:
            return np.zeros((n, width), dtype=np.float32)

        # Layer inputs: [all owned rows][all halo rows], device by device.
        # X[0]'s owned region holds the (static) features, and each
        # device's ``features`` becomes a view of its block: the one copy.
        # Streaming mode keeps only X[0]'s halo block resident (the
        # exchange's landing zone); owned features are read off the
        # device arrays, so the feature-width buffers — the dominant
        # allocations at huge-graph scale — are never duplicated in RAM,
        # and layer 0's input gradient is never needed at all (features
        # are not trainable).
        lo = int(stream)
        self._x0_halo = rows(self.total_halo, dims[0]) if lo else None
        self._x = [None] * lo + [rows(n_rows, dims[l]) for l in range(lo, L)]
        self._dx = [None] * lo + [rows(n_rows, dims[l]) for l in range(lo, L)]
        if not lo:
            for k, dev in enumerate(devices):
                own = self._x[0][self._own_slice(k)]
                own[...] = dev.features
                dev.features = own
        # Aggregate-first layers keep the aggregated input ``z = P·X̃`` and
        # its gradient over owned rows; transform-first layers keep
        # ``T = X̃·W`` and ``dT = Pᵀ·dY`` over owned *and* halo rows, at
        # the output width.  Streaming layer 0, when it aggregates first,
        # computes ``z`` into a reused (max_own, F) scratch instead
        # (recomputed per device in backward).
        self._z, self._dz, self._t, self._dt = [], [], [], []
        for l, transform in enumerate(self._transform_first):
            aggregated = not transform and l >= lo
            self._z.append(rows(self.total_own, dims[l]) if aggregated else None)
            self._dz.append(rows(self.total_own, dims[l]) if aggregated else None)
            self._t.append(rows(n_rows, dims[l + 1]) if transform else None)
            self._dt.append(rows(n_rows, dims[l + 1]) if transform else None)
        self.logits = rows(self.total_own, dims[-1])
        self._d_logits = np.zeros_like(self.logits)
        if model_kind == "sage":
            self._neigh_out = [rows(self.total_own, dims[l + 1]) for l in range(L)]
            self._d_own = [None] * lo + [
                rows(self.total_own, dims[l]) for l in range(lo, L)
            ]
        # Post-processing caches (all but the output layer).
        self._x_hat = [rows(self.total_own, dims[l + 1]) for l in range(L - 1)]
        self._inv_std = [rows(self.total_own, 1) for _ in range(L - 1)]
        self._relu_mask = [
            np.zeros((self.total_own, dims[l + 1]), dtype=bool) for l in range(L - 1)
        ]
        self._drop_mask = [rows(self.total_own, dims[l + 1]) for l in range(L - 1)]
        self._drop_active = [False] * (L - 1)
        # Per-device LayerNorm (γ, β) partials, one block per post width.
        self._norm_partials = {
            dims[l + 1]: np.zeros((len(devices), 2, dims[l + 1]), dtype=np.float32)
            for l, mod in enumerate(model.layers)
            if mod.has_post_stage
        }
        self._stream_z0 = None
        if lo and not self._transform_first[0]:
            self._stream_z0 = rows(max(n_own, default=0), dims[0])

        # Per-layer, per-device views into the stacked buffers (static).
        # Streaming layer 0: own views alias the device feature arrays
        # (the exchange gathers send rows from them directly) and halo
        # views slice the dedicated halo block.
        self._own_views = [
            [dev.features for dev in devices]
            if x is None
            else [x[self._own_slice(k)] for k in K]
            for x in self._x
        ]
        self._halo_views = [
            [self._x0_halo[self.halo_off[k] : self.halo_off[k + 1]] for k in K]
            if x is None
            else self._halo_blocks(x)
            for x in self._x
        ]
        # Per layer, the stacked halo rows (one GEMM's operand).
        self._halo_inputs = [
            self._x0_halo if x is None else x[self.total_own :] for x in self._x
        ]

        # Reduced-form gradient accumulators: one float64 buffer per
        # parameter, summed over devices in rank order.
        self._params = model.parameters()
        self._acc = [np.zeros(p.shape, dtype=np.float64) for p in self._params]
        self._acc_by_id = {id(p): a for p, a in zip(self._params, self._acc)}
        # Gradient of the current backward frontier (set by epoch_loss).
        self._d: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of every array the engine allocated and holds: the stacked
        buffers, the scratch blocks, the row offsets and the float64
        accumulators, each counted once.  A view (the devices' feature
        blocks in RAM, a reshaped block) counts as the array that owns its
        memory; memmapped pages and the arrays a device holds itself (a
        materialized store's features) are not the engine's."""
        theirs = {id(a) for dev in self.devices for a in vars(dev).values()}
        held: dict[int, int] = {}
        stack = list(vars(self).values())
        while stack:
            value = stack.pop()
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                if value.flags.owndata and id(value) not in theirs:
                    held[id(value)] = value.nbytes
            elif isinstance(value, (list, tuple)):
                stack.extend(value)
            elif isinstance(value, dict):
                stack.extend(value.values())
        return sum(held.values())

    # ------------------------------------------------------------------
    def _own_slice(self, k: int) -> slice:
        return slice(int(self.own_off[k]), int(self.own_off[k + 1]))

    def _halo_slice(self, k: int) -> slice:
        """Device ``k``'s halo rows of a stacked ``[owned; halo]`` buffer."""
        return slice(
            self.total_own + int(self.halo_off[k]),
            self.total_own + int(self.halo_off[k + 1]),
        )

    def _halo_blocks(self, buf: np.ndarray) -> list[np.ndarray]:
        return [buf[self._halo_slice(k)] for k in range(len(self.devices))]

    def _layer_output(self, layer: int) -> np.ndarray:
        """Owned rows ``layer`` writes: the next layer's input, or the logits."""
        if layer + 1 == self.num_layers:
            return self.logits
        return self._x[layer + 1][: self.total_own]

    def _acc_add(self, param, partial: np.ndarray) -> None:
        self._acc_by_id[id(param)] += partial

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def begin_epoch(self) -> None:
        for acc in self._acc:
            acc.fill(0.0)
        self._d = None

    def forward_layer(
        self, layer, exchange, transport, *, training: bool, overlap: bool = False
    ) -> StepTimeline:
        """Layer ``layer``'s forward step; returns its measured timeline.

        One schedule (paper Fig. 7): post the boundary rows, run the
        central window while they are in flight — the own-column half of
        the aggregation (:meth:`_aggregate`) — finalize the halos,
        accumulate the halo-column half, then the dense update and post
        stage over every owned row (:meth:`_forward_dense`).  ``overlap``
        only opens the transport's accounting window.  A store's
        aggregate-first layer 0 is the one exception: it aggregates after
        finalize, device by device (:meth:`_forward_layer0_stream`).
        """
        mod = self.model.layers[layer]
        out_own = self._layer_output(layer)
        t0 = time.perf_counter()
        if overlap:
            # Open the overlap window *before* posting: async workers may
            # post (and, with worker-side decode, even collect) the step's
            # traffic before this thread runs again, and bytes only count
            # as hidden if the window is already open when they land.
            transport.note_overlap(step_tag("fwd", layer))
        # Naming the halo destinations at post time lets async exchanges
        # scatter on their workers.
        step = exchange.post_step(
            layer,
            "fwd",
            self.devices,
            transport,
            self._own_views[layer],
            out=self._halo_views[layer],
        )
        # A store's boundary-row gather faulted scattered feature pages of
        # every device; drop them before the window faults one device's map
        # at a time (a no-op in RAM).
        for ops in self._ops:
            ops.release_feature_pages()
        t1 = time.perf_counter()

        # Central window: only the work that needs no halo.  Transform-
        # first, it opens with T's owned rows — one GEMM per device — and
        # P_own·T lands straight in the output rows (the dense pass
        # finishes them).
        transform = self._transform_first[layer]
        if transform:
            weight = mod.conv.linear.weight.data
            src, agg = self._t[layer], out_own
            for (ops, own, _), x_own in zip(self._blocks, self._own_views[layer]):
                row_matmul(x_own, weight, out=src[own])
                ops.release_feature_pages()
        else:
            src, agg = self._x[layer], self._z[layer]
        if src is not None:
            self._aggregate(src, agg)
        if mod.has_post_stage:
            self._sample_dropout(layer, mod, training)
        t2 = time.perf_counter()

        exchange.finalize_step(step)
        t3 = time.perf_counter()

        if src is None:
            self._forward_layer0_stream(out_own)
        else:
            if transform:
                halo = slice(self.total_own, None)
                row_matmul(self._halo_inputs[layer], weight, out=src[halo])
            self._aggregate(src, agg, halo=True)
        self._forward_dense(layer, mod)
        t4 = time.perf_counter()
        return self._timeline(
            layer, "fwd", transport, step, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        )

    def _forward_dense(self, layer: int, mod) -> None:
        """Dense update and post stage of layer ``layer``'s owned rows, in
        place on the persistent buffers (the aggregation has run; streaming
        layer 0 ran an aggregate-first dense step per device already)."""
        out_own = self._layer_output(layer)
        x = self._x[layer]
        if self._transform_first[layer]:
            out_own += mod.conv.linear.bias.data  # ``out_own`` holds P·T
        elif x is not None:
            x_own = neigh = None
            if self.model_kind == "sage":
                x_own, neigh = x[: self.total_own], self._neigh_out[layer]
            self._dense_update(layer, x_own, self._z[layer], out_own, neigh)
        if mod.has_post_stage:
            caches = (self._x_hat[layer], self._inv_std[layer], self._relu_mask[layer])
            _post_forward(mod.norm, out_own, *caches, self._drop_rows(layer))

    def _dense_update(self, layer, x_own, z, out, neigh_out) -> None:
        """Aggregate-first dense step: ``out = z·W + b`` (GCN) or
        ``x_own·W_root + b + z·W_neigh`` (SAGE) for any contiguous row block.

        ``row_matmul``'s row-determinism and the elementwise bias add make
        per-device blocks (streaming layer 0) bitwise equal to the stacked
        call.
        """
        conv = self.model.layers[layer].conv
        if self.model_kind == "gcn":
            row_matmul(z, conv.linear.weight.data, out=out)
            out += conv.linear.bias.data
        else:
            row_matmul(x_own, conv.root.weight.data, out=out)
            out += conv.root.bias.data
            out += row_matmul(z, conv.neigh.weight.data, out=neigh_out)

    def _aggregate(
        self, src: np.ndarray, out: np.ndarray, *, halo: bool = False
    ) -> np.ndarray:
        """``out = P_own @ src``, or with ``halo`` ``out += P_halo @ src``,
        for a stacked ``[owned; halo]`` source; returns ``out``.

        One loop over the split operators, releasing each block's operator
        pages the moment its rows are consumed.  Own-then-halo is bitwise
        the one-pass ``P @ src``: :func:`_spmv` sums each output row in
        stored order and every row stores its owned columns first.
        """
        for (ops, own, halo_rows), csr in zip(self._blocks, self._csr):
            if halo:
                _spmv(csr["halo"], src[halo_rows], out[own], accumulate=True)
            else:
                _spmv(csr["own"], src[own], out[own])
            ops.release_op_pages()
        return out

    def _drop_rows(self, layer: int) -> np.ndarray | None:
        """The step's dropout mask, ``None`` when dropout is off."""
        return self._drop_mask[layer] if self._drop_active[layer] else None

    def _sample_dropout(self, layer: int, mod, training: bool) -> None:
        """Draw the step's dropout masks (all devices, rank order).

        The single sampling site, in every step's central window: one
        ``sample_mask`` call per device, from its ``dropout_rng``, of the
        full owned-slice shape, in rank order.  Masks never depend on
        activations, so drawing them before the rows exist consumes the
        streams exactly as the per-device reference does drawing them
        after ReLU.
        """
        if training and mod.drop.p > 0.0:
            drop_mask = self._drop_mask[layer]
            for k, dev in enumerate(self.devices):
                sl = drop_mask[self._own_slice(k)]
                mod.drop.sample_mask(dev.dropout_rng, sl.shape, out=sl)
            self._drop_active[layer] = True
        else:
            self._drop_active[layer] = False

    # ------------------------------------------------------------------
    # A store's aggregate-first layer 0 and timelines
    # ------------------------------------------------------------------
    def _forward_layer0_stream(self, out_own: np.ndarray) -> None:
        """A store's aggregate-first layer 0, after finalize: device by
        device, ``z = P·X₀`` into the feature-width scratch and the dense
        step at once, each device's pages released as soon as its rows are
        consumed, so the resident window stays near one partition's."""
        sage = self.model_kind == "sage"
        for k, (dev, ops) in enumerate(zip(self.devices, self._ops)):
            sl = self._own_slice(k)
            z = self._aggregate_layer0_stream(k)
            neigh = self._neigh_out[0][sl] if sage else None
            self._dense_update(0, dev.features, z, out_own[sl], neigh)
            ops.release_op_pages()
            ops.release_feature_pages()

    def _aggregate_layer0_stream(self, k: int) -> np.ndarray:
        """Device ``k``'s ``z = P·X₀`` into the shared feature-width scratch.

        Forward computes it and backward *re*computes it — bit-identical,
        the same split spmv on unchanged inputs — instead of keeping an
        (N, F) buffer resident.  Only aggregate-first layers come here.
        """
        dev, csr = self.devices[k], self._csr[k]
        z = self._stream_z0[: dev.part.n_owned]
        _spmv(csr["own"], dev.features, z)
        _spmv(csr["halo"], self._halo_views[0][k], z, accumulate=True)
        return z

    @staticmethod
    def _timeline(layer, phase, transport, step, stages) -> StepTimeline:
        """A step's timeline from its ``(quantize, central, dequantize,
        marginal)`` seconds; ``step`` is ``None`` where nothing was posted.

        Overlapped bytes are read after finalize: under the async transport
        the worker's posts land mid-window, and they count as hidden only
        because the window was still open when they arrived.
        """
        tag = step_tag(phase, layer)
        return StepTimeline(
            layer,
            phase,
            *stages,
            overlapped_bytes=transport.overlapped_bytes(tag),
            total_bytes=int(transport.bytes_matrix(tag).sum()),
            worker_wait_s=0.0 if step is None else step.worker_wait_s,
        )

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def epoch_loss(self, loss_fn) -> float:
        """Per-device losses on logit slices; gradients land in place.

        ``loss_fn(dev, logits_slice, out=grad_slice)`` must return
        ``(loss, d_logits)`` — the cluster passes its ``_loss`` (which
        carries the global normalizer).  Device losses are summed in rank
        order as Python floats.
        """
        total = 0.0
        for k, dev in enumerate(self.devices):
            sl = self._own_slice(k)
            loss, _ = loss_fn(dev, self.logits[sl], out=self._d_logits[sl])
            total += loss
        self._d = self._d_logits
        return float(total)

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward_layer(
        self, layer, exchange, transport, *, overlap: bool = False
    ) -> StepTimeline:
        """Layer ``layer``'s backward step, dependency-first; returns its timeline.

        The outgoing halo gradients run *before* the post: the post stage's
        backward, the input-gradient GEMM over every owned row and ``Pᵀ``'s
        halo rows of it.  While the messages fly, the central window
        accumulates every parameter partial in rank order and routes the
        owned-row gradients; finalize then adds the received gradients in
        place.  Transform-first, the two products swap — ``Pᵀ``'s halo rows
        of ``dY`` and one GEMM over them before the post, ``Pᵀ``'s owned
        rows and their GEMM in the window.  ``overlap`` only opens the
        transport's accounting window; a store differs only at layer 0
        (:meth:`_backward_layer0_stream`).
        """
        d_out = self._d
        if d_out is None:
            raise RuntimeError("backward_layer called before epoch_loss")
        mod = self.model.layers[layer]
        conv = mod.conv
        t0 = time.perf_counter()
        norm_partials = ()
        if mod.has_post_stage:
            norm_partials = self._backward_post(layer, mod, d_out)
        dx = self._dx[layer]
        if dx is None:
            self._add_norm_partials(mod, norm_partials)
            self._backward_layer0_stream(d_out)
            self._d = None
            stages = (0.0, 0.0, 0.0, time.perf_counter() - t0)
            return self._timeline(layer, "bwd", transport, None, stages)

        # The outgoing halo gradients.
        transform = self._transform_first[layer]
        linear = conv.linear if self.model_kind == "gcn" else conv.neigh
        weight_t = linear.weight.data.T
        own, halo = slice(0, self.total_own), slice(self.total_own, None)
        if transform:
            dt = self._route(d_out, self._dt[layer], halo=True)
            row_matmul(dt, weight_t, out=dx[halo])
        else:
            dz = row_matmul(d_out, weight_t, out=self._dz[layer])
            self._route(dz, dx, halo=True)
        t1 = time.perf_counter()
        if overlap:
            transport.note_overlap(step_tag("bwd", layer))
        # The owned-row gradients the window writes and finalize adds into.
        d_next = self._d_own[layer] if self.model_kind == "sage" else dx[own]
        step = exchange.post_step(
            layer,
            "bwd",
            self.devices,
            transport,
            self._halo_blocks(dx),
            out=[d_next[self._own_slice(k)] for k in range(len(self.devices))],
        )
        t2 = time.perf_counter()

        # Central window: parameter partials, owned-row gradient routing.
        if transform:
            dt = self._route(d_out, self._dt[layer], halo=False)
        self._add_norm_partials(mod, norm_partials)
        for k in range(len(self.devices)):
            self._conv_partials(layer, k, d_out)
        if transform:
            row_matmul(dt, weight_t, out=d_next)
        elif self.model_kind == "gcn":
            self._route(dz, dx, halo=False)
        else:
            row_matmul(d_out, conv.root.weight.data.T, out=d_next)
            d_next += self._route(dz, dx, halo=False)
        t3 = time.perf_counter()

        exchange.finalize_step(step)
        t4 = time.perf_counter()
        self._d = d_next
        return self._timeline(
            layer, "bwd", transport, step, (t2 - t1, t3 - t2, t4 - t3, t1 - t0)
        )

    def _backward_post(self, layer: int, mod, d_out: np.ndarray) -> np.ndarray:
        """Post-stage backward over the stacked owned rows: ``d_out`` becomes
        LayerNorm's input gradient in place.  Returns the per-device
        ``(γ, β)`` partials, ``(K, 2, d)``, for :meth:`_add_norm_partials`."""
        partials = self._norm_partials[d_out.shape[1]]
        _post_backward(
            mod.norm,
            d_out,
            self._x_hat[layer],
            self._inv_std[layer],
            self._relu_mask[layer],
            self._drop_rows(layer),
            self.own_off,
            partials,
        )
        return partials

    def _add_norm_partials(self, mod, partials) -> None:
        """Add each device's LayerNorm partials, in rank order (none for a
        layer without a post stage)."""
        for gamma, beta in partials:
            self._acc_add(mod.norm.gamma, gamma)
            self._acc_add(mod.norm.beta, beta)

    def _conv_partials(
        self, layer: int, k: int, d_out: np.ndarray, z: np.ndarray | None = None
    ) -> None:
        """Add device ``k``'s conv-parameter partials to the accumulators.

        The one site every shape forms them at, so a parameter's addends
        are the same float32 values in the same (rank) order everywhere.
        A transform-first weight partial is the own-rows term plus the
        halo-rows term — two GEMMs, because the two row blocks live in
        different buffers (at streaming layer 0, in the feature map and
        the halo landing zone).  ``z`` overrides the persistent aggregated
        input (streaming layer 0's recomputed scratch).
        """
        conv = self.model.layers[layer].conv
        sl = self._own_slice(k)
        d_k = d_out[sl]
        x_own = self._own_views[layer][k]
        if self._transform_first[layer]:
            dt = self._dt[layer]
            partial = x_own.T @ dt[sl]
            partial += self._halo_views[layer][k].T @ dt[self._halo_slice(k)]
            self._acc_add(conv.linear.weight, partial)
            self._acc_add(conv.linear.bias, d_k.sum(axis=0))
            return
        if z is None:
            z = self._z[layer][sl]
        if self.model_kind == "gcn":
            self._acc_add(conv.linear.weight, z.T @ d_k)
            self._acc_add(conv.linear.bias, d_k.sum(axis=0))
        else:
            self._acc_add(conv.root.weight, x_own.T @ d_k)
            self._acc_add(conv.root.bias, d_k.sum(axis=0))
            self._acc_add(conv.neigh.weight, z.T @ d_k)

    def _route(self, src: np.ndarray, out: np.ndarray, *, halo: bool) -> np.ndarray:
        """``Pᵀ @ src`` onto the halo or the owned rows of a stacked
        ``[owned; halo]`` buffer ``out``; returns that region of ``out``.

        One loop over the split operators' ``halo_t`` or ``own_t`` — the
        halo or owned row range of each block's transpose, which reads
        only that block's ``src`` rows — releasing each block's operator
        pages as it goes.
        """
        for (ops, own, halo_rows), csr in zip(self._blocks, self._csr):
            op, rows = (csr["halo_t"], halo_rows) if halo else (csr["own_t"], own)
            _spmv(op, src[own], out[rows])
            ops.release_op_pages()
        return out[self.total_own :] if halo else out[: self.total_own]

    def _backward_layer0_stream(self, d_out: np.ndarray) -> None:
        """Layer 0's backward against the store: parameter partials only.

        Input features are not trainable, so the input-gradient GEMM and
        the layer-0 gradient exchange are skipped entirely — the only
        wire-traffic difference from the in-RAM engine (losses and every
        other step's bytes are unchanged, and keyed rounding makes each
        step's noise independent of which steps run).  Transform-first,
        that leaves ``dT = Pᵀ·dY`` and the two-term weight partial read
        off the feature map; aggregate-first, ``z = P·X₀`` is recomputed
        per device (:meth:`_aggregate_layer0_stream`).
        """
        if self._transform_first[0]:
            self._route(d_out, self._dt[0], halo=False)
            self._route(d_out, self._dt[0], halo=True)
            for k, ops in enumerate(self._ops):
                self._conv_partials(0, k, d_out)
                ops.release_feature_pages()
            return
        for k, ops in enumerate(self._ops):
            self._conv_partials(0, k, d_out, z=self._aggregate_layer0_stream(k))
            ops.release_op_pages()
            ops.release_feature_pages()

    # ------------------------------------------------------------------
    # Gradient reduction
    # ------------------------------------------------------------------
    def reduce_gradients(self) -> int:
        """Write the reduced gradients into the parameters' ``grad``.

        The accumulators already hold the float64 totals, added in rank
        order; each is rounded to float32 once.  Returns the reduced
        payload size in bytes (what one allreduce would move per device).
        """
        for p, acc in zip(self._params, self._acc):
            p.grad[...] = acc
        return int(sum(p.grad.nbytes for p in self._params))
