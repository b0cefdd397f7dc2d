"""Parameter containers and the module tree.

A :class:`Parameter` is a dense float32 array with an accumulated gradient.
A :class:`Module` is a named tree of parameters and sub-modules with
state-dict support, so a model can be checkpointed, restored and compared
exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter", "Module"]


class Parameter:
    """A trainable tensor with its accumulated gradient.

    Gradients accumulate across ``backward`` calls (like PyTorch's
    ``.grad``); optimizers read ``grad`` and callers reset it through
    :meth:`zero_grad` between steps.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def numel(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; :meth:`parameters` and :meth:`named_parameters` walk the
    attribute tree in deterministic (insertion) order — crucial for
    gradient reduction and state dicts, whose keys and order must not
    depend on how the model was built.
    """

    # -- tree walking -----------------------------------------------------
    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        found: list[tuple[str, Parameter]] = []
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                found.append((path, value))
            elif isinstance(value, Module):
                found.extend(value.named_parameters(prefix=f"{path}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        found.append((f"{path}.{i}", item))
                    elif isinstance(item, Module):
                        found.extend(item.named_parameters(prefix=f"{path}.{i}."))
        return found

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- gradient helpers ---------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.numel() for p in self.parameters())

    # -- (de)serialization ---------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if state[name].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {state[name].shape} vs {p.data.shape}"
                )
            p.data[...] = state[name]

    def grad_vector(self) -> np.ndarray:
        """Flatten all gradients into one vector (deterministic order)."""
        grads = [p.grad.ravel() for p in self.parameters()]
        return np.concatenate(grads) if grads else np.zeros(0, dtype=np.float32)

    def set_grad_vector(self, vec: np.ndarray) -> None:
        """Scatter a flat gradient vector back into parameter ``grad``s."""
        params = self.parameters()
        expected = sum(p.numel() for p in params)
        if vec.size != expected:
            raise ValueError(
                f"gradient vector length {vec.size} != expected {expected}"
            )
        offset = 0
        for p in params:
            size = p.numel()
            p.grad[...] = vec[offset : offset + size].reshape(p.data.shape)
            offset += size
