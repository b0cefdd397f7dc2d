"""The cluster-fused compute engine: one kernel per layer step, all devices.

Dispatching K per-device Python loops per layer — K small spmv's, K
``np.vstack`` copies, K small GEMMs, K losses — is the plain statement of
the math (the reference trainer under ``tests/reference/`` runs exactly
that), but every replica holds bit-identical weights, and in the
many-partition regime the paper's wall-clock results live in those tiny
dispatches dominate the epoch.

:class:`FusedClusterCompute` executes the whole cluster's forward/backward
with cluster-wide operators instead:

* **one block-diagonal CSR** stacks every device's aggregation operator
  into a single global column space (owned columns first, halo columns
  after), so each layer's aggregation is one spmv — and its cached CSR
  transpose makes the backward routing one spmv too;
* **stacked activations** live in preallocated ``(ΣN_own + ΣN_halo, d)``
  buffers; the halo exchange writes decoded rows straight into the halo
  region (the ``out`` a step names at
  :meth:`~repro.cluster.exchange.FusedQuantizedHaloExchange.post_step`),
  so no per-layer ``np.vstack`` copy is made;
* **one stacked GEMM** per layer runs every device's dense transform using
  the shared replica weights (via :func:`repro.nn.blas.row_matmul`, which
  keeps per-row results identical to per-device GEMMs);
* **weight gradients accumulate directly in reduced form**: per-device
  partial gradients are summed into float64 accumulators in rank order —
  exactly :func:`repro.comm.allreduce.allreduce_sum`'s reduction — so K
  flat gradient vectors are never built.

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
by ``row_matmul``'s row-determinism, (b) spmv's, where the block-diagonal
remap preserves per-row column order and every product — on scipy's
``csr_matvecs`` or the compiled kernel that repeats its operations
(:func:`_spmv`) — sums each output row over its entries in stored order,
and (c) reductions (loss sums, gradient sums, ``sum(axis=0)``
of contiguous slices), which keep the per-device operation order exactly.

**One layer step, the paper's pipeline** (Sec. 3.1 / Fig. 7).  Forward:
post the boundary messages, run the **central** rows while they are in
flight (they touch no halo column, so their aggregation and dense update
need no messages), finalize the halos, run the **marginal** rows.
Backward mirrors it dependency-first: the marginal input-gradient rows and
the halo routing they feed run *before* the post; the central rows, every
parameter partial and owned-row routing fill the window.  With
``overlap`` the row sets are :meth:`FusedClusterCompute.overlap_plan`'s:
two complementary row restrictions of the operator whose spmv's write the
same output (the second accumulating), the transpose's owned and halo row
ranges, and dense work on *gathered* row blocks (``row_matmul``'s
row-determinism makes them equal the stacked GEMM bit for bit).  With
overlap off — ``--no-overlap``, every store run, every evaluation — the
central window is empty and the marginal set is every owned row as a
slice: the step works in place and gathers nothing.  Persistent buffers
keep their original row order (permuting them would reorder the loss and
``xᵀ·d`` reductions).  Every step returns a measured
:class:`~repro.cluster.records.StepTimeline`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro import kernels
from repro.cluster.exchange import step_tag
from repro.cluster.records import StepTimeline
from repro.cluster.runtime import DeviceRuntime
from repro.nn.blas import row_matmul

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.io import DeviceStreamOps

__all__ = [
    "FusedClusterCompute",
    "build_block_diagonal",
    "restrict_rows",
    "OverlapPlan",
]

try:  # pragma: no cover - import guard
    from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
except ImportError:  # pragma: no cover - a scipy without the private kernel
    _csr_matvecs = None


def _spmv(
    matrix: sp.csr_matrix,
    x: np.ndarray,
    out: np.ndarray,
    rows: tuple[int, int] | None = None,
    *,
    accumulate: bool = False,
) -> np.ndarray:
    """``out = P[lo:hi] @ x``, or ``out += ...`` — the engine's one spmv.

    ``rows`` is a ``(lo, hi)`` row range of ``matrix`` (default: every row),
    passed as the slice ``indptr[lo : hi + 1]`` — its offsets are absolute
    into ``indices``/``data``, so a range copies nothing.  Each output row
    is summed over its stored entries in stored order, from ``+0.0`` or,
    accumulating, from ``out``'s row: scipy's ``csr_matvecs``, which the
    compiled ``repro_csr_rows`` (loaded by :mod:`repro.kernels`, if
    at all) reproduces bit for bit.  Splitting a product into row ranges or
    complementary row-restricted operators therefore changes no bit.
    Operands the compiled kernel does not take — not float32 / int32 /
    C-contiguous — run on scipy.  Shapes and the range are checked here;
    the operator's own index arrays are trusted, as scipy's kernel trusts
    them (the engine builds every operator it passes).
    """
    lo, hi = (0, matrix.shape[0]) if rows is None else rows
    fits = 0 <= lo <= hi <= matrix.shape[0] and x.shape[0] == matrix.shape[1]
    if not fits or out.shape != (hi - lo, x.shape[1]):
        raise ValueError(f"spmv {matrix.shape}[{lo}:{hi}] @ {x.shape} -> {out.shape}")
    indptr = matrix.indptr[lo : hi + 1]
    contiguous = x.flags.c_contiguous and out.flags.c_contiguous
    same_dtype = x.dtype == matrix.dtype == out.dtype
    lib = kernels.load()
    if (
        lib is not None
        and contiguous
        and same_dtype
        and x.dtype == np.float32
        and indptr.dtype == matrix.indices.dtype == np.int32
    ):
        lib.repro_csr_rows(
            hi - lo,
            indptr.ctypes.data,
            matrix.indices.ctypes.data,
            matrix.data.ctypes.data,
            x.ctypes.data,
            x.shape[1],
            out.ctypes.data,
            accumulate,
        )
    elif _csr_matvecs is not None and contiguous and same_dtype:
        if not accumulate:
            out.fill(0.0)
        _csr_matvecs(
            hi - lo,
            matrix.shape[1],
            x.shape[1],
            indptr,
            matrix.indices,
            matrix.data,
            x.ravel(),
            out.ravel(),
        )
    elif accumulate:
        out += matrix[lo:hi] @ x
    else:
        out[...] = matrix[lo:hi] @ x
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


def restrict_rows(matrix: sp.csr_matrix, row_mask: np.ndarray) -> sp.csr_matrix:
    """Same-shape copy of ``matrix`` keeping only the masked rows' entries.

    Unmasked rows become empty; kept rows carry their exact data/index
    spans, so per-row spmv accumulation order is untouched.  The two
    complements of a mask split one operator into the central and marginal
    halves the pipelined executor runs separately.
    """
    if row_mask.shape != (matrix.shape[0],):
        raise ValueError("row_mask must have one entry per matrix row")
    counts = np.diff(matrix.indptr)
    kept = np.where(row_mask, counts, 0)
    indptr = np.concatenate([[0], np.cumsum(kept)]).astype(matrix.indptr.dtype)
    sel = np.repeat(row_mask, counts)
    out = sp.csr_matrix(
        (matrix.data[sel], matrix.indices[sel], indptr), shape=matrix.shape
    )
    out.has_sorted_indices = matrix.has_sorted_indices
    out.has_canonical_format = matrix.has_canonical_format
    return out


@dataclass
class OverlapPlan:
    """Static structures of the split-phase pipeline (built once).

    ``rows_central``/``rows_marginal`` index the stacked owned region (its
    original row order); the two operators are complementary row
    restrictions of the engine's block-diagonal matrix.  (The backward
    needs no split copies: it passes the owned and halo row ranges of the
    transpose itself to the spmv.)  Central rows reference no halo column
    by construction — that independence is what makes the central window
    legal before the halos arrive.
    """

    rows_central: np.ndarray
    rows_marginal: np.ndarray
    matrix_central: sp.csr_matrix
    matrix_marginal: sp.csr_matrix


def build_block_diagonal(devices: list[DeviceRuntime]) -> sp.csr_matrix:
    """Stack per-device aggregation operators into one cluster operator.

    Row ``own_off[k] + i`` is device ``k``'s owned row ``i``; columns are
    remapped into the stacked buffer's global space — owned column ``j``
    of device ``k`` becomes ``own_off[k] + j`` and halo column ``j``
    becomes ``N_own + halo_off[k] + j``.  Both remaps are strictly
    monotone and all owned columns precede all halo columns, so every
    row's column order (hence scipy's accumulation order) is exactly the
    per-device operator's: ``(P_global @ X)`` rows are bit-identical to
    the K separate ``P_k @ x_k`` products they fuse.
    """
    n_own = np.array([d.part.n_owned for d in devices], dtype=np.int64)
    n_halo = np.array([d.part.n_halo for d in devices], dtype=np.int64)
    own_off = np.concatenate([[0], np.cumsum(n_own)])
    halo_off = np.concatenate([[0], np.cumsum(n_halo)])
    total_own, total_halo = int(own_off[-1]), int(halo_off[-1])

    data: list[np.ndarray] = []
    indices: list[np.ndarray] = []
    indptr: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    nnz = 0
    for k, dev in enumerate(devices):
        m = dev.agg.matrix
        idx = m.indices.astype(np.int64, copy=True)
        own_cols = idx < n_own[k]
        idx[own_cols] += own_off[k]
        idx[~own_cols] += total_own + halo_off[k] - n_own[k]
        data.append(m.data)
        indices.append(idx)
        indptr.append(m.indptr[1:].astype(np.int64) + nnz)
        nnz += m.nnz
    fused = sp.csr_matrix(
        (
            np.concatenate(data),
            np.concatenate(indices),
            np.concatenate(indptr),
        ),
        shape=(total_own, total_own + total_halo),
    )
    # Per-device operators are canonical (sorted, deduplicated) and the
    # remap is order-preserving, so the stacked matrix already is too.
    fused.has_sorted_indices = True
    fused.has_canonical_format = True
    return fused


class FusedClusterCompute:
    """Whole-cluster forward/backward on stacked buffers.

    Built once per :class:`~repro.cluster.cluster.Cluster` (the step plan —
    operators, offsets, views, scratch — is static across epochs, like the
    exchange's ``FusedStepPlan``); the cluster drives it with one step
    method per direction, :meth:`forward_layer` and :meth:`backward_layer`,
    passing ``overlap`` to choose the row sets.

    Parameters
    ----------
    devices:
        The cluster's device runtimes (replicas must be bit-identical —
        the engine computes with device 0's weights on every row).
    dims:
        Layer widths ``[in, hidden, ..., out]``.
    model_kind:
        ``"gcn"`` or ``"sage"``.
    stream:
        Per-device :class:`~repro.graph.io.DeviceStreamOps` (one per
        device, rank order) to run in **streaming mode** — the huge-graph
        execution shape.  The block-diagonal operator is never
        materialized: aggregation runs device by device as column-split
        spmv pairs over the store's (typically memmapped) operators, the
        layer-0 input buffer shrinks to its halo block (owned features
        are read straight off the device's feature array), and layer 0's
        backward stops at the parameter partials — input features are not
        trainable, so the input-gradient GEMM and the layer-0 gradient
        exchange are skipped (the only wire-byte difference from the
        standard engine; losses are unchanged).  Each device's pages are
        released after use, bounding the resident window to roughly one
        partition.  Everything else — the layer step, with overlap off,
        operand order, parameter partials — is the in-RAM engine's code.
        ``None`` (default) selects the in-RAM engine.
    """

    def __init__(
        self,
        devices: list[DeviceRuntime],
        dims: list[int],
        model_kind: str,
        *,
        stream: "list[DeviceStreamOps] | None" = None,
    ) -> None:
        self.devices = devices
        self.dims = list(dims)
        self.model_kind = model_kind
        self.num_layers = len(dims) - 1
        if stream is not None and len(stream) != len(devices):
            raise ValueError("stream ops must match devices one-to-one")
        self.stream = list(stream) if stream is not None else None

        n_own = [d.part.n_owned for d in devices]
        n_halo = [d.part.n_halo for d in devices]
        self.own_off = np.concatenate([[0], np.cumsum(n_own)]).astype(np.int64)
        self.halo_off = np.concatenate([[0], np.cumsum(n_halo)]).astype(np.int64)
        self.total_own = int(self.own_off[-1])
        self.total_halo = int(self.halo_off[-1])
        self._max_own = int(max(n_own)) if n_own else 0
        n_rows = self.total_own + self.total_halo
        # Row ranges of ``matrix_t``: gradients routed to owned / halo rows.
        self._own_rows = (0, self.total_own)
        self._halo_rows = (self.total_own, n_rows)

        if self.stream is None:
            self.matrix = build_block_diagonal(devices)
            matrix_t = self.matrix.T.tocsr()
            matrix_t.sort_indices()
            self.matrix_t = matrix_t
        else:
            # Streaming mode never concatenates the per-device operators:
            # the store's column/row splits are used in place.
            self.matrix = None
            self.matrix_t = None

        L = self.num_layers
        self._transform_first = [
            mod.conv.transform_first for mod in devices[0].model.layers
        ]

        def rows(n: int, width: int) -> np.ndarray:
            return np.zeros((n, width), dtype=np.float32)

        # Layer inputs: [all owned rows][all halo rows] per the operator's
        # column space.  X[0]'s owned region holds the (static) features.
        # Streaming mode keeps only X[0]'s halo block resident (the
        # exchange's landing zone); owned features are read off the
        # device arrays, so the feature-width buffers — the dominant
        # allocations at huge-graph scale — are never duplicated in RAM,
        # and layer 0's input gradient is never needed at all (features
        # are not trainable).
        lo = 0 if self.stream is None else 1
        self._x0_halo = rows(self.total_halo, dims[0]) if lo else None
        self._x = [None] * lo + [rows(n_rows, dims[l]) for l in range(lo, L)]
        self._dx = [None] * lo + [rows(n_rows, dims[l]) for l in range(lo, L)]
        if not lo:
            for k, dev in enumerate(devices):
                self._x[0][self.own_off[k] : self.own_off[k + 1]] = dev.features
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

        # Per-layer, per-device views into the stacked buffers (static).
        # Streaming layer 0: own views alias the device feature arrays
        # (the exchange gathers send rows from them directly) and halo
        # views slice the dedicated halo block.
        K = range(len(devices))
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

        # The overlapped row sets, built lazily on the first overlapped
        # step, and the gather scratch of their row blocks.
        self._overlap_plan: OverlapPlan | None = None
        self._scratch_bufs: dict[tuple, np.ndarray] = {}

        # Reduced-form gradient accumulators: one float64 buffer per
        # parameter of the (shared) replica structure, summed over devices
        # in rank order — allreduce_sum's exact operation order.
        self._params_by_dev = [dev.model.parameters() for dev in devices]
        self._acc = [np.zeros(p.shape, dtype=np.float64) for p in self._params_by_dev[0]]
        self._acc_by_id = {id(p): a for p, a in zip(self._params_by_dev[0], self._acc)}
        # Gradient of the current backward frontier (set by epoch_loss).
        self._d: np.ndarray | None = None

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
        central window while they are in flight, finalize the halos, run
        the marginal rows.  With ``overlap`` the row sets are
        :meth:`overlap_plan`'s; without it the central window holds no
        rows and the marginal set is every owned row — a slice, worked on
        in place.  The in-RAM and the streaming engine differ only in how
        ``P`` is applied (:meth:`_aggregate`) and, at layer 0, in where the
        owned input rows live (:meth:`_forward_layer0_stream`).
        """
        plan = self.overlap_plan() if overlap else None
        mod = self.devices[0].model.layers[layer]
        out_own = self._layer_output(layer)
        t0 = time.perf_counter()
        if plan is not None:
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
        t1 = time.perf_counter()

        # Central window.  Transform-first, it opens with T's owned rows —
        # one stacked GEMM that needs no halo — and P·T accumulates
        # straight into the output rows (the row steps finish them).
        x, transform = self._x[layer], self._transform_first[layer]
        if transform:
            weight = mod.conv.linear.weight.data
            src, agg = self._t[layer], out_own
            if x is not None:
                row_matmul(x[: self.total_own], weight, out=src[: self.total_own])
        else:
            src, agg = x, self._z[layer]
        if plan is not None:
            _spmv(plan.matrix_central, src, agg)
        if mod.has_post_stage:
            self._sample_dropout(layer, mod, training)
        if plan is not None:
            self._forward_rows(layer, mod, plan.rows_central)
        t2 = time.perf_counter()

        exchange.finalize_step(step)
        t3 = time.perf_counter()

        if x is None:
            self._forward_layer0_stream(mod.conv, out_own)
        else:
            if transform:
                row_matmul(x[self.total_own :], weight, out=src[self.total_own :])
            if plan is None:
                self._aggregate(src, agg)
            else:
                _spmv(plan.matrix_marginal, src, agg, accumulate=True)
        rows = slice(0, self.total_own) if plan is None else plan.rows_marginal
        self._forward_rows(layer, mod, rows)
        t4 = time.perf_counter()
        return self._timeline(
            layer, "fwd", transport, step, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)
        )

    def _forward_rows(self, layer: int, mod, rows: slice | np.ndarray) -> None:
        """Dense update and post stage of layer ``layer``'s owned ``rows``.

        A slice works in place on the persistent buffers.  An index array
        (a central or marginal row set) gathers the inputs — the ``P·T``
        rows, ``z``, SAGE's ``x``, the dropout mask — into contiguous
        scratch and scatters the outputs — the rows and the backward
        caches — back.  Every operation is row-local or row-deterministic,
        so a gathered block holds the bits the whole slice would.
        """
        in_place = isinstance(rows, slice)
        if not in_place and rows.size == 0:
            return
        out_own = self._layer_output(layer)
        x = self._x[layer]
        if self._transform_first[layer]:
            # ``out_own`` holds these rows of P·T already; the bias is left.
            h = self._rows("fwd_h", out_own, rows)
            h += mod.conv.linear.bias.data
        elif x is None:
            h = out_own[rows]  # streaming layer 0 ran its dense step per device
        else:
            h = self._rows("fwd_h", out_own, rows, gather=False)
            x_own = neigh = None
            if self.model_kind == "sage":
                x_own = self._rows("fwd_xin", x[: self.total_own], rows)
                neigh = self._rows("fwd_nh", self._neigh_out[layer], rows, gather=False)
            z = self._rows("fwd_zin", self._z[layer], rows)
            self._dense_update(layer, x_own, z, h, neigh)
        caches, blocks = (), []
        if mod.has_post_stage:
            caches = (self._x_hat[layer], self._inv_std[layer], self._relu_mask[layer])
            blocks = [
                self._rows(f"fwd_cache{i}", c, rows, gather=False)
                for i, c in enumerate(caches)
            ]
            drop = self._drop_rows(layer)
            if drop is not None:
                drop = self._rows("fwd_dm", drop, rows)
            _post_forward(mod.norm, h, *blocks, drop)
        if not in_place:
            out_own[rows] = h
            for cache, blk in zip(caches, blocks):
                cache[rows] = blk

    def _dense_update(self, layer, x_own, z, out, neigh_out) -> None:
        """Aggregate-first dense step: ``out = z·W + b`` (GCN) or
        ``x_own·W_root + b + z·W_neigh`` (SAGE) for any contiguous row block.

        ``row_matmul``'s row-determinism and the elementwise bias add make
        per-device and gathered blocks bitwise equal to the stacked call.
        """
        conv = self.devices[0].model.layers[layer].conv
        if self.model_kind == "gcn":
            row_matmul(z, conv.linear.weight.data, out=out)
            out += conv.linear.bias.data
        else:
            row_matmul(x_own, conv.root.weight.data, out=out)
            out += conv.root.bias.data
            out += row_matmul(z, conv.neigh.weight.data, out=neigh_out)

    def _aggregate(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out = P @ src`` for a stacked ``[owned; halo]`` source.

        In RAM this is one block-diagonal spmv.  Streaming runs it device
        by device as a column-split spmv pair over the store's operators
        (``own`` overwrites, ``halo`` accumulates) — bit-identical, because
        :func:`_spmv` accumulates each output row in stored column order and
        the canonical local ordering puts every owned column before every
        halo column — releasing each device's operator pages the moment its
        rows are consumed.
        """
        if self.stream is None:
            return _spmv(self.matrix, src, out)
        for k, ops in enumerate(self.stream):
            sl = self._own_slice(k)
            _spmv(ops.own, src[sl], out[sl])
            _spmv(ops.halo, src[self._halo_slice(k)], out[sl], accumulate=True)
            ops.release_op_pages()
        return out

    def _drop_rows(self, layer: int) -> np.ndarray | None:
        """The step's dropout mask, ``None`` when dropout is off."""
        return self._drop_mask[layer] if self._drop_active[layer] else None

    def _sample_dropout(self, layer: int, mod, training: bool) -> None:
        """Draw the step's dropout masks (all devices, rank order).

        The single sampling site, in every step's central window: one
        ``sample_mask`` call per device of the full owned-slice shape, in
        rank order.  Masks never depend on activations, so drawing them
        before the rows exist consumes the streams exactly as the
        per-device reference does drawing them after ReLU.
        """
        if training and mod.drop.p > 0.0:
            drop_mask = self._drop_mask[layer]
            for k, dev in enumerate(self.devices):
                sl = drop_mask[self._own_slice(k)]
                dev.model.layers[layer].drop.sample_mask(sl.shape, out=sl)
            self._drop_active[layer] = True
        else:
            self._drop_active[layer] = False

    # ------------------------------------------------------------------
    # Streaming (out-of-core) execution: layer 0's feature rows
    # ------------------------------------------------------------------
    def _forward_layer0_stream(self, conv, out_own: np.ndarray) -> None:
        """Layer 0 against the store: owned rows come off the feature maps.

        Features are read straight from the (typically memmapped) device
        arrays, one device at a time, and each device's pages are released
        the moment its rows are consumed, so the resident window stays near
        one partition's working set.  Transform-first, that read is the
        per-device ``T = features_k·W`` (the halo block transforms in one
        stacked call) and the aggregation is the ordinary streamed ``P·T``
        (the row step adds the bias); aggregate-first, each device's
        ``z = P·X₀`` lands in a reused feature-width scratch that the dense
        step consumes at once.
        """
        # The exchange's boundary-row gather faulted scattered feature
        # pages across every device; drop them all before the loop
        # re-faults one device window at a time.
        for ops in self.stream:
            ops.release_feature_pages()
        if self._transform_first[0]:
            weight, t = conv.linear.weight.data, self._t[0]
            for k, dev in enumerate(self.devices):
                row_matmul(dev.features, weight, out=t[self._own_slice(k)])
                self.stream[k].release_feature_pages()
            row_matmul(self._x0_halo, weight, out=t[self.total_own :])
            self._aggregate(t, out_own)
            return
        sage = self.model_kind == "sage"
        for k, dev in enumerate(self.devices):
            sl = self._own_slice(k)
            z = self._aggregate_layer0_stream(k)
            neigh = self._neigh_out[0][sl] if sage else None
            self._dense_update(0, dev.features, z, out_own[sl], neigh)
            self.stream[k].release_op_pages()
            self.stream[k].release_feature_pages()

    def _aggregate_layer0_stream(self, k: int) -> np.ndarray:
        """Device ``k``'s ``z = P·X₀`` into the shared feature-width scratch.

        Forward computes it and backward *re*computes it — bit-identical,
        the same split spmv on unchanged inputs — instead of keeping an
        (N, F) buffer resident.  Only aggregate-first layers come here.
        """
        dev, ops = self.devices[k], self.stream[k]
        zbuf = self._scratch("stream_z0", self._max_own, self.dims[0])
        z = zbuf[: dev.part.n_owned]
        _spmv(ops.own, dev.features, z)
        _spmv(ops.halo, self._halo_views[0][k], z, accumulate=True)
        return z

    # ------------------------------------------------------------------
    # Row sets, scratch and timelines
    # ------------------------------------------------------------------
    def overlap_plan(self) -> OverlapPlan:
        """The split-phase operators and row sets (built once, cached)."""
        if self.stream is not None:
            raise RuntimeError(
                "the split-phase pipeline needs the block-diagonal operator;"
                " streaming mode runs non-overlapped"
            )
        if self._overlap_plan is None:
            # Deferred import: repro.core's package __init__ pulls in the
            # trainer, which imports this module right back.
            from repro.core.decompose import split_rows

            splits = [split_rows(dev.part) for dev in self.devices]
            rows_central = np.concatenate(
                [self.own_off[k] + s.central_rows for k, s in enumerate(splits)]
            ).astype(np.int64)
            rows_marginal = np.concatenate(
                [self.own_off[k] + s.marginal_rows for k, s in enumerate(splits)]
            ).astype(np.int64)
            central_mask = np.zeros(self.total_own, dtype=bool)
            central_mask[rows_central] = True
            matrix_central = restrict_rows(self.matrix, central_mask)
            has_halo_cols = matrix_central.nnz and (
                int(matrix_central.indices.max()) >= self.total_own
            )
            if has_halo_cols:
                raise AssertionError(
                    "central rows reference halo columns — marginal masks broken"
                )
            self._overlap_plan = OverlapPlan(
                rows_central=rows_central,
                rows_marginal=rows_marginal,
                matrix_central=matrix_central,
                matrix_marginal=restrict_rows(self.matrix, ~central_mask),
            )
        return self._overlap_plan

    def _rows(self, name: str, buf: np.ndarray, rows, gather: bool = True):
        """``buf``'s ``rows``: a view for a slice; for an index array, the
        scratch block ``name`` — holding those rows when ``gather``."""
        if isinstance(rows, slice):
            return buf[rows]
        out = self._scratch(name, rows.size, buf.shape[1], buf.dtype)
        return np.take(buf, rows, axis=0, out=out) if gather else out

    def _scratch(self, name: str, rows: int, cols: int, dtype=np.float32) -> np.ndarray:
        """Reusable gather block; keyed by use-site so lifetimes never clash."""
        key = (name, rows, cols, np.dtype(dtype).str)
        buf = self._scratch_bufs.get(key)
        if buf is None:
            buf = np.empty((rows, cols), dtype=dtype)
            self._scratch_bufs[key] = buf
        return buf

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

        The marginal rows run *before* the post: outgoing halo gradients
        are ``Pᵀ``'s halo rows, which read only marginal rows of the
        input-gradient GEMM.  While the messages fly, the central window
        finishes the GEMM's central rows, accumulates every parameter
        partial in rank order and routes owned-row gradients; finalize
        then adds the received gradients in place.  Transform-first, the
        two products swap — ``Pᵀ``'s halo rows of ``dY`` and one GEMM over
        them before the post, ``Pᵀ``'s owned rows and their GEMM in the
        window — and nothing is gathered.  Row sets are chosen as in
        :meth:`forward_layer`; streaming differs in how ``Pᵀ`` is applied
        (:meth:`_route`) and at layer 0 (:meth:`_backward_layer0_stream`).
        """
        d_out = self._d
        if d_out is None:
            raise RuntimeError("backward_layer called before epoch_loss")
        plan = self.overlap_plan() if overlap else None
        mod = self.devices[0].model.layers[layer]
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

        # Marginal rows: the input-gradient rows the halo routing reads.
        transform = self._transform_first[layer]
        linear = conv.linear if self.model_kind == "gcn" else conv.neigh
        weight_t = linear.weight.data.T
        own, halo = slice(0, self.total_own), slice(self.total_own, None)
        if transform:
            dt = self._route(d_out, self._dt[layer], halo=True)
            row_matmul(dt, weight_t, out=dx[halo])
        else:
            dz = self._dz[layer]
            marginal = own if plan is None else plan.rows_marginal
            self._input_grad_rows(d_out, marginal, weight_t, dz)
            self._route(dz, dx, halo=True)
        t1 = time.perf_counter()
        if plan is not None:
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

        # Central window: the remaining input-gradient rows, parameter
        # partials, owned-row gradient routing.
        if transform:
            dt = self._route(d_out, self._dt[layer], halo=False)
        elif plan is not None:
            self._input_grad_rows(d_out, plan.rows_central, weight_t, dz)
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

    def _input_grad_rows(self, d_out, rows, weight_t, target) -> None:
        """``target[rows] = d_out[rows] @ weight_t``: in place for a slice,
        through a contiguous gather and scatter for an index array."""
        if isinstance(rows, slice):
            row_matmul(d_out[rows], weight_t, out=target[rows])
        elif rows.size:
            o = self._scratch("bwd_dz", rows.size, weight_t.shape[1])
            a = self._rows("bwd_din", d_out, rows)
            target[rows] = row_matmul(a, weight_t, out=o)

    def _backward_post(self, layer: int, mod, d_out: np.ndarray) -> np.ndarray:
        """Post-stage backward over the stacked owned rows: ``d_out`` becomes
        LayerNorm's input gradient in place.  Returns the per-device
        ``(γ, β)`` partials, ``(K, 2, d)``, for :meth:`_add_norm_partials`."""
        width = d_out.shape[1]
        partials = self._scratch("norm_partials", len(self.devices), 2 * width)
        partials = partials.reshape(len(self.devices), 2, width)
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
        conv = self.devices[0].model.layers[layer].conv
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

        In RAM this is that row range of ``matrix_t``.  Streaming applies
        each device's ``halo_t`` or ``own_t``, the row split of its
        transpose: each output row of the block transpose reads only its
        own device's ``src`` slice, and row splits of a CSR spmv are
        bitwise, so either way the rows equal the single ``matrix_t`` spmv.
        """
        lo, hi = self._halo_rows if halo else self._own_rows
        if self.stream is None:
            return _spmv(self.matrix_t, src, out[lo:hi], (lo, hi))
        for k, ops in enumerate(self.stream):
            sl = self._own_slice(k)
            op, rows = (ops.halo_t, self._halo_slice(k)) if halo else (ops.own_t, sl)
            _spmv(op, src[sl], out[rows])
            ops.release_op_pages()
        return out[lo:hi]

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
            for k, ops in enumerate(self.stream):
                self._conv_partials(0, k, d_out)
                ops.release_feature_pages()
            return
        for k, ops in enumerate(self.stream):
            self._conv_partials(0, k, d_out, z=self._aggregate_layer0_stream(k))
            ops.release_op_pages()
            ops.release_feature_pages()

    # ------------------------------------------------------------------
    # Gradient reduction
    # ------------------------------------------------------------------
    def reduce_gradients(self) -> int:
        """Distribute the reduced gradients to every replica.

        The accumulators already hold allreduce_sum's float64 totals (same
        addend order); each is rounded to float32 once and written into
        every device's ``Parameter.grad``.  Returns the reduced payload
        size in bytes (what one allreduce would move per device).
        """
        reduced = [acc.astype(np.float32) for acc in self._acc]
        for params in self._params_by_dev:
            for p, r in zip(params, reduced):
                p.grad[...] = r
        return int(sum(r.nbytes for r in reduced))
