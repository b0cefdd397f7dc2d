"""Graph convolution layers with explicit distributed backward passes.

Both convolutions share the same contract:

* ``forward(x_own, x_halo)`` consumes the device's own node inputs plus the
  halo inputs *fetched from peers* (possibly de-quantized), and returns the
  new embeddings of owned nodes;
* ``backward(d_out)`` accumulates weight gradients and returns
  ``(d_x_own, d_x_halo)`` — the halo part is exactly the "embedding
  gradients (errors)" the paper quantizes and routes back to owners during
  the backward pass.

**Operand order.**  Eqn. 3 is ``σ(P·H·W)`` and matrix products associate:
``(P·H̃)·W`` runs the sparse product at the layer's *input* width,
``P·(H̃·W)`` at its *output* width — ``nnz·d_in`` multiply-adds against
``nnz·d_out``.  :func:`transform_first` is the one rule that picks the
order, from the layer's shape and nothing else; :class:`GCNConv` and every
shape of the cluster compute engine read it from the conv, so they all
switch together (which is what keeps them bitwise-comparable).
"""

from __future__ import annotations

import numpy as np

from repro.gnn.coefficients import AggregationContext
from repro.nn.blas import row_matmul
from repro.nn.layers import Linear
from repro.nn.module import Module

__all__ = ["GCNConv", "SAGEConv", "stack_conv_inputs", "transform_first"]


def transform_first(in_features: int, out_features: int) -> bool:
    """Whether a GCN layer of this shape applies ``W`` before aggregating.

    The sparse product costs ``nnz × width``; transforming first makes that
    width ``out_features`` instead of ``in_features`` at the price of
    running the dense transform over the halo rows too, so it pays exactly
    when the layer narrows (DGL's ``GraphConv`` applies the same test).
    """
    return out_features < in_features


def stack_conv_inputs(x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
    """``[x_own; x_halo]`` with as few copies as possible.

    With an empty halo, ``x_own`` passes through untouched (contiguity is
    restored only if a caller handed us a strided view — the old
    unconditional path silently re-copied inside scipy on every spmv);
    otherwise one ``np.vstack`` copy.  The fused compute engine never
    stacks at all — its aggregation reads the stacked layer buffer
    directly.

    Dtypes pass through untouched: the training path is float32 end to end
    (:class:`~repro.cluster.runtime.DeviceRuntime` normalizes features,
    exchanges decode to float32, and the operator data is float32 by
    construction), while gradcheck tests deliberately run in float64.
    """
    if not x_halo.size:
        return x_own if x_own.flags.c_contiguous else np.ascontiguousarray(x_own)
    return np.vstack([x_own, x_halo])


class GCNConv(Module):
    """GCN layer: ``out = P @ [x_own; x_halo] @ W + b``.

    ``P`` carries the symmetric normalization including the self loop, so a
    single sparse-dense product realizes Eqn. 3.  A narrowing layer
    (:func:`transform_first`) evaluates ``P @ (x̃ @ W)``, any other
    ``(P @ x̃) @ W``; the bias is added after aggregation in both orders.
    The halo exchange is the same either way — ``in_features``-wide rows
    in, ``in_features``-wide gradients out — only the order in which the
    receiver applies ``P`` and ``W`` to them differs.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        agg: AggregationContext,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.agg = agg
        self.linear = Linear(in_features, out_features, rng)
        self.transform_first = transform_first(in_features, out_features)
        self._cache_shapes: tuple[int, int] | None = None
        self._cache_x: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
        x_full = stack_conv_inputs(x_own, x_halo)
        self._cache_shapes = (x_own.shape[0], x_halo.shape[0])
        if not self.transform_first:
            return self.linear.forward(self.agg.aggregate(x_full))
        self._cache_x = (x_own, x_halo)
        out = self.agg.aggregate(row_matmul(x_full, self.linear.weight.data))
        out += self.linear.bias.data
        return out

    def backward(self, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_shapes is None:
            raise RuntimeError("backward called before forward")
        n_own, n_halo = self._cache_shapes
        self._cache_shapes = None
        if not self.transform_first:
            d_z = self.linear.backward(d_out)
            d_full = self.agg.aggregate_transpose(d_z)
        else:
            x_own, x_halo = self._cache_x
            self._cache_x = None
            weight, bias = self.linear.weight, self.linear.bias
            d_t = self.agg.aggregate_transpose(d_out)
            # Own-rows term, then halo-rows term: the order every engine
            # forms a device's weight partial in (the two blocks live in
            # different buffers there, so they are never one GEMM).
            weight.grad += x_own.T @ d_t[:n_own]
            weight.grad += x_halo.T @ d_t[n_own:]
            bias.grad += d_out.sum(axis=0)
            d_full = row_matmul(d_t, weight.data.T)
        return d_full[:n_own], d_full[n_own : n_own + n_halo]


class SAGEConv(Module):
    """GraphSAGE (mean): ``out = x_own @ W_root + (P @ x_full) @ W_neigh + b``.

    ``P`` is the neighbor-mean operator; the root term keeps the node's own
    representation at full precision (it never crosses devices).
    """

    #: The neighbour term always aggregates first (see :func:`transform_first`).
    transform_first = False

    def __init__(
        self,
        in_features: int,
        out_features: int,
        agg: AggregationContext,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.agg = agg
        self.root = Linear(in_features, out_features, rng, bias=True)
        self.neigh = Linear(in_features, out_features, rng, bias=False)
        self._cache_shapes: tuple[int, int] | None = None

    def forward(self, x_own: np.ndarray, x_halo: np.ndarray) -> np.ndarray:
        x_full = stack_conv_inputs(x_own, x_halo)
        z = self.agg.aggregate(x_full)
        self._cache_shapes = (x_own.shape[0], x_halo.shape[0])
        return self.root.forward(x_own) + self.neigh.forward(z)

    def backward(self, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._cache_shapes is None:
            raise RuntimeError("backward called before forward")
        n_own, n_halo = self._cache_shapes
        self._cache_shapes = None
        d_x_own = self.root.backward(d_out)
        d_z = self.neigh.backward(d_out)
        d_full = self.agg.aggregate_transpose(d_z)
        d_x_own = d_x_own + d_full[:n_own]
        return d_x_own, d_full[n_own : n_own + n_halo]
