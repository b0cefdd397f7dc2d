"""The model's parameter-holding layers.

A layer here holds parameters and the arithmetic the fused compute engine
shares with it — :class:`LayerNorm`'s normalization and input gradient,
:class:`Dropout`'s mask draw — but no per-call forward/backward: the engine
(:mod:`repro.cluster.compute`) runs every device's rows at once against the
cluster's one parameter set.  The per-device forward/backward of each
layer is stated by the reference model under ``tests/reference/``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.utils.validation import check_probability

__all__ = ["Linear", "LayerNorm", "Dropout"]


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


class LayerNorm(Module):
    """Layer normalization over the last dimension (paper's norm choice)."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.dim = int(dim)
        self.eps = float(eps)
        self.gamma = Parameter(init.ones((dim,)))
        self.beta = Parameter(init.zeros((dim,)))

    def _stats(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return mean, 1.0 / np.sqrt(var + self.eps)

    def forward_into(self, x: np.ndarray, x_hat_out: np.ndarray) -> np.ndarray:
        """Normalize ``x`` in place for the fused engine's stacked buffers.

        Writes ``x_hat`` into ``x_hat_out``, overwrites ``x`` with the
        normalized output, and returns ``inv_std`` (the caller caches both
        for :meth:`input_grad`).  The reference model's per-device forward
        runs the same operations, so the values are bit-identical —
        keeping the normalization formula in one place is what protects
        the engine ≡ per-device contract.
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
        component along ``x_hat`` before rescaling by 1/std.  Shared by the
        fused engine (whose parameter partials are accumulated per device
        separately) and the reference model's per-device backward.
        """
        d_xhat = d_out * self.gamma.data
        return (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - x_hat * (d_xhat * x_hat).mean(axis=-1, keepdims=True)
        ) * inv_std


class Dropout(Module):
    """Inverted dropout's rate and mask arithmetic.

    The random stream is the caller's: every simulated device draws its
    masks from its own reproducible stream
    (:attr:`~repro.cluster.runtime.DeviceRuntime.dropout_rng`).
    """

    def __init__(self, p: float) -> None:
        super().__init__()
        self.p = check_probability(p, name="p")

    def sample_mask(
        self,
        rng: np.random.Generator,
        shape: tuple[int, ...],
        dtype=np.float32,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Draw one inverted-dropout mask from ``rng``.

        The single source of truth for the mask arithmetic: the fused
        compute engine draws per-device masks through this method — straight
        into its own buffer, ``out`` (whose dtype then wins over ``dtype``)
        — so its stream consumption and scaling match the reference model's
        per-device dropout bit for bit.
        """
        keep = 1.0 - self.p
        if out is None:
            out = np.empty(shape, dtype=dtype)
        elif out.shape != tuple(shape):
            raise ValueError(f"mask of shape {shape} into {out.shape}")
        np.less(rng.random(shape), keep, out=out)
        out /= keep
        return out
