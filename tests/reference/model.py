"""The per-device model: one replica's layers with explicit forward/backward.

Production holds one parameter set (:class:`repro.gnn.model.DistGNN`) and
runs every device's rows at once on the fused engine.  This module states
what that engine must compute the plain way — one device, one layer at a
time, each layer caching what its backward needs during forward and
consuming that cache exactly once — so the reference trainer
(``oracle.py``) can run K replicas of it with K optimizers.  Nothing of the
engine is imported (``test_oracle.py`` fences it).

The layers subclass production's parameter-holding ones, so a replica
draws its weights from the init stream in production's order and its
``state_dict`` keys are production's.  The backward contract is uniform:
given ``d_out = dL/d_output`` a layer accumulates parameter gradients into
``Parameter.grad`` and returns ``dL/d_input``; a conv returns
``(d_x_own, d_x_halo)`` — the halo part is exactly the "embedding gradients
(errors)" the paper quantizes and routes back to owners.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnn import conv as conv_params
from repro.gnn.model import MODEL_KINDS
from repro.nn import layers, module
from repro.nn.blas import row_matmul
from repro.utils.validation import check_in_set


# -- the module tree's train/eval mode --------------------------------------
class Module(module.Module):
    """Production's module tree plus a train/eval mode: only the reference's
    :class:`Dropout` reads it (the engine takes ``training=`` per call)."""

    training = True

    def modules(self) -> list[module.Module]:
        mods: list[module.Module] = [self]
        for value in vars(self).values():
            for item in value if isinstance(value, (list, tuple)) else [value]:
                if isinstance(item, module.Module):
                    mods.extend(Module.modules(item))
        return mods

    def train(self) -> "Module":
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            m.training = False
        return self


# -- the aggregation operator ------------------------------------------------
# ``agg`` is one device's operator ``P``: CSR, ``(n_owned, n_owned + n_halo)``.
def matrix_t(agg: sp.csr_matrix) -> sp.csr_matrix:
    """``P^T`` as CSR, traversed row-major like the forward operator; each
    output row sums its entries in ascending source row, as the CSC view
    ``agg.T`` does."""
    t = agg.T.tocsr()
    t.sort_indices()
    return t


def aggregate(agg: sp.csr_matrix, x_full: np.ndarray) -> np.ndarray:
    """``Z = P @ x_full`` where ``x_full`` stacks owned then halo rows."""
    if x_full.shape[0] != agg.shape[1]:
        raise ValueError(f"x_full has {x_full.shape[0]} rows, expected {agg.shape[1]}")
    return np.asarray(agg @ x_full)


def aggregate_transpose(agg: sp.csr_matrix, d_z: np.ndarray) -> np.ndarray:
    """``P^T @ d_z``: routes embedding gradients back to input rows."""
    if d_z.shape[0] != agg.shape[0]:
        raise ValueError("d_z must have one row per owned node")
    return np.asarray(matrix_t(agg) @ d_z)


def stack_conv_inputs(x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
    """``[x_own; x_halo]``; with an empty halo, ``x_own`` itself (made
    contiguous if it is a strided view).  Dtypes pass through: training is
    float32, gradchecks run in float64."""
    if not x_halo.size:
        return x_own if x_own.flags.c_contiguous else np.ascontiguousarray(x_own)
    return np.vstack([x_own, x_halo])


# -- dense layers ------------------------------------------------------------
class Linear(layers.Linear):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    _cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # row_matmul keeps per-row results independent of the batch's row
        # count, so per-device batches and the engine's stacked batches
        # produce bit-identical rows.
        self._cache_x = x
        out = row_matmul(x, self.weight.data)
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        x = self._cache_x
        if x is None:
            raise RuntimeError("backward called before forward")
        self._cache_x = None
        self.weight.grad += x.T @ d_out
        if self.bias is not None:
            self.bias.grad += d_out.sum(axis=0)
        return row_matmul(d_out, self.weight.data.T)


class LayerNorm(layers.LayerNorm):
    """Layer normalization over the last dimension."""

    _cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean, inv_std = self._stats(x)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std)
        return x_hat * self.gamma.data + self.beta.data

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std = self._cache
        self._cache = None
        self.gamma.grad += (d_out * x_hat).sum(axis=0)
        self.beta.grad += d_out.sum(axis=0)
        return self.input_grad(d_out, x_hat, inv_std)


class ReLU(Module):
    """Rectified linear activation."""

    _mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        return d_out * mask


class Dropout(Module, layers.Dropout):
    """Inverted dropout drawing from one device's stream, ``rng``; the
    identity in eval mode (``training`` off) or at ``p == 0``."""

    _mask: np.ndarray | None = None

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__(p)
        self.rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = self.sample_mask(self.rng, x.shape, x.dtype)
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:  # eval mode or p == 0: identity
            return d_out
        mask, self._mask = self._mask, None
        return d_out * mask


# -- graph convolutions ------------------------------------------------------
class GCNConv(Module):
    """``out = P @ [x_own; x_halo] @ W + b``, in the operand order
    production's :func:`~repro.gnn.conv.transform_first` picks: narrowing
    layers evaluate ``P @ (x̃ @ W)``, others ``(P @ x̃) @ W``."""

    _cache_shapes: tuple[int, int] | None = None

    def __init__(self, in_features, out_features, agg, rng) -> None:
        super().__init__()
        self.agg = agg
        self.linear = Linear(in_features, out_features, rng)
        self.transform_first = conv_params.transform_first(in_features, out_features)

    def forward(self, x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
        x_full = stack_conv_inputs(x_own, x_halo)
        self._cache_shapes = (x_own.shape[0], x_halo.shape[0])
        if not self.transform_first:
            return self.linear.forward(aggregate(self.agg, x_full))
        self._cache_x = (x_own, x_halo)
        out = aggregate(self.agg, row_matmul(x_full, self.linear.weight.data))
        out += self.linear.bias.data
        return out

    def backward(self, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_shapes is None:
            raise RuntimeError("backward called before forward")
        n_own, n_halo = self._cache_shapes
        self._cache_shapes = None
        if not self.transform_first:
            d_full = aggregate_transpose(self.agg, self.linear.backward(d_out))
        else:
            (x_own, x_halo), self._cache_x = self._cache_x, None
            weight, bias = self.linear.weight, self.linear.bias
            d_t = aggregate_transpose(self.agg, d_out)
            # Own-rows term, then halo-rows term: the order the engine forms
            # a device's weight partial in (the two blocks live in different
            # buffers there, so they are never one GEMM).
            weight.grad += x_own.T @ d_t[:n_own]
            weight.grad += x_halo.T @ d_t[n_own:]
            bias.grad += d_out.sum(axis=0)
            d_full = row_matmul(d_t, weight.data.T)
        return d_full[:n_own], d_full[n_own : n_own + n_halo]


class SAGEConv(Module):
    """GraphSAGE (mean): ``out = x_own @ W_root + (P @ x_full) @ W_neigh + b``."""

    transform_first = False
    _cache_shapes: tuple[int, int] | None = None

    def __init__(self, in_features, out_features, agg, rng) -> None:
        super().__init__()
        self.agg = agg
        self.root = Linear(in_features, out_features, rng, bias=True)
        self.neigh = Linear(in_features, out_features, rng, bias=False)

    def forward(self, x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
        z = aggregate(self.agg, stack_conv_inputs(x_own, x_halo))
        self._cache_shapes = (x_own.shape[0], x_halo.shape[0])
        return self.root.forward(x_own) + self.neigh.forward(z)

    def backward(self, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_shapes is None:
            raise RuntimeError("backward called before forward")
        n_own, n_halo = self._cache_shapes
        self._cache_shapes = None
        d_x_own = self.root.backward(d_out)
        d_full = aggregate_transpose(self.agg, self.neigh.backward(d_out))
        return d_x_own + d_full[:n_own], d_full[n_own : n_own + n_halo]


# -- the replica -------------------------------------------------------------
class GNNLayer(Module):
    """Conv, then LayerNorm → ReLU → Dropout on all but the output layer."""

    def __init__(
        self, kind, in_features, out_features, agg, rng, *, dropout, is_output,
        dropout_rng,
    ) -> None:  # fmt: skip
        super().__init__()
        check_in_set(kind, MODEL_KINDS, name="kind")
        conv_cls = GCNConv if kind == "gcn" else SAGEConv
        self.conv = conv_cls(in_features, out_features, agg, rng)
        self.is_output = bool(is_output)
        if not self.is_output:
            self.norm = LayerNorm(out_features)
            self.act = ReLU()
            self.drop = Dropout(dropout, dropout_rng)

    def forward(self, x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
        h = self.conv.forward(x_own, x_halo)
        if self.is_output:
            return h
        return self.drop.forward(self.act.forward(self.norm.forward(h)))

    def backward(self, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not self.is_output:
            d_out = self.norm.backward(self.act.backward(self.drop.backward(d_out)))
        return self.conv.backward(d_out)


class Replica(Module):
    """One device's copy of the model: production's layer stack over this
    device's operator ``agg``, with its dropout stream."""

    def __init__(self, kind, dims, agg, *, dropout, weight_rng, dropout_rng) -> None:
        super().__init__()
        self.layers = [
            GNNLayer(
                kind, dims[i], dims[i + 1], agg, weight_rng, dropout=dropout,
                is_output=(i == len(dims) - 2), dropout_rng=dropout_rng,
            )
            for i in range(len(dims) - 1)
        ]  # fmt: skip
