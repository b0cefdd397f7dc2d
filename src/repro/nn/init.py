"""Weight initializers (Glorot/Xavier family, matching DGL's defaults)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros", "ones"]


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot uniform: U(-a, a) with ``a = gain * sqrt(6 / (fan_in + fan_out))``."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot infer fans from a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    return int(shape[0]), int(np.prod(shape[1:]))
