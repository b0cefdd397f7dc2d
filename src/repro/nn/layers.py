"""Dense layers with explicit forward/backward.

Each layer caches whatever its backward pass needs during forward and
consumes that cache exactly once in ``backward``.  The backward contract is
uniform: given ``d_out = dL/d_output`` it accumulates parameter gradients
into ``Parameter.grad`` and returns ``dL/d_input``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.blas import row_matmul
from repro.nn.module import Module, Parameter
from repro.utils.validation import check_probability

__all__ = ["Linear", "LayerNorm", "ReLU", "Dropout"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # row_matmul keeps per-row results independent of the batch's row
        # count, so per-device batches and the fused engine's cluster-wide
        # stacked batches produce bit-identical rows.
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


class LayerNorm(Module):
    """Layer normalization over the last dimension (paper's norm choice)."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = int(dim)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _stats(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return mean, 1.0 / np.sqrt(var + self.eps)

    def forward(self, x: np.ndarray) -> np.ndarray:
        mean, inv_std = self._stats(x)
        x_hat = (x - mean) * inv_std
        self._cache = (x_hat, inv_std, x)
        return x_hat * self.gamma.data + self.beta.data

    def forward_into(self, x: np.ndarray, x_hat_out: np.ndarray) -> np.ndarray:
        """In-place variant for the fused engine's stacked buffers.

        Writes ``x_hat`` into ``x_hat_out``, overwrites ``x`` with the
        normalized output, and returns ``inv_std`` (the caller caches both
        for :meth:`input_grad`).  Same operations as :meth:`forward`, so
        the values are bit-identical — keeping the normalization formula
        in one place is what protects the engine ≡ per-device contract.
        """
        mean, inv_std = self._stats(x)
        np.subtract(x, mean, out=x_hat_out)
        x_hat_out *= inv_std
        np.multiply(x_hat_out, self.gamma.data, out=x)
        x += self.beta.data
        return inv_std

    def input_grad(
        self, d_out: np.ndarray, x_hat: np.ndarray, inv_std: np.ndarray
    ) -> np.ndarray:
        """dL/d_input given the cached normalization state.

        Standard layer-norm backward: project out the mean and the
        component along ``x_hat`` before rescaling by 1/std.  Shared by
        :meth:`backward` and the fused engine (whose parameter partials
        are accumulated per device separately).
        """
        d_xhat = d_out * self.gamma.data
        return (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - x_hat * (d_xhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, _ = self._cache
        self._cache = None
        self.gamma.grad += (d_out * x_hat).sum(axis=0)
        self.beta.grad += d_out.sum(axis=0)
        return self.input_grad(d_out, x_hat, inv_std)


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        mask, self._mask = self._mask, None
        return d_out * mask


class Dropout(Module):
    """Inverted dropout driven by an explicit, per-device RNG stream.

    The RNG is injected rather than global so that every simulated device
    draws an independent, reproducible mask sequence.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        self.p = check_probability(p, name="p")
        self.rng = rng
        self._mask: np.ndarray | None = None

    def sample_mask(
        self, shape: tuple[int, ...], dtype=np.float32, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Draw one inverted-dropout mask from this layer's stream.

        The single source of truth for the mask arithmetic: the fused
        compute engine draws per-device masks through this method — straight
        into its own buffer, ``out`` (whose dtype then wins over ``dtype``)
        — so its stream consumption and scaling match :meth:`forward` bit
        for bit.
        """
        keep = 1.0 - self.p
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif out.shape != tuple(shape):
            raise ValueError(f"mask of shape {shape} into {out.shape}")
        np.less(self.rng.random(shape), keep, out=out)
        out /= keep
        return out

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        self._mask = self.sample_mask(x.shape, x.dtype)
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:  # eval mode or p == 0: identity
            return d_out
        mask, self._mask = self._mask, None
        return d_out * mask
