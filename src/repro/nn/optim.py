"""Optimizers: SGD and Adam.

One optimizer steps the cluster's one parameter set with the reduced
gradient: AdaQP's per-GPU replicas would each run this same step on the
same allreduced gradient.  Both optimizers are pure elementwise NumPy, so
identical inputs produce identical updates — the per-device reference
trainer's K optimizers stay bit-identical to the one.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.utils.validation import check_positive

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base class: holds the parameter list and the ``zero_grad`` helper."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        if not params:
            raise ValueError("optimizer received no parameters")
        self.params = list(params)
        self.lr = check_positive(lr, name="lr")

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Copies of the optimizer's slot state (checkpointing).

        The slots belong to the one parameter set, not to any device,
        which is what makes a checkpoint partition-count-independent
        (elastic restore).
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place (shape-checked)."""
        if state:
            raise ValueError(f"unexpected optimizer state keys: {sorted(state)}")

    @staticmethod
    def _load_slots(target: list[np.ndarray], saved, name: str) -> None:
        if len(saved) != len(target):
            raise ValueError(
                f"optimizer state {name!r} has {len(saved)} entries,"
                f" expected {len(target)}"
            )
        for slot, arr in zip(target, saved):
            arr = np.asarray(arr)
            if slot.shape != arr.shape:
                raise ValueError(
                    f"optimizer state {name!r} shape {arr.shape} !="
                    f" parameter shape {slot.shape}"
                )
            slot[...] = arr


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        *,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            p.data -= self.lr * g

    def state_dict(self) -> dict:
        return {"velocity": [v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        self._load_slots(self._velocity, state["velocity"], "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction; the paper's optimizer."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        *,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = check_positive(eps, name="eps")
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        b1, b2 = self.betas
        bias1 = 1.0 - b1**self._step_count
        bias2 = 1.0 - b2**self._step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "step_count": int(self._step_count),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self._step_count = int(state["step_count"])
        self._load_slots(self._m, state["m"], "m")
        self._load_slots(self._v, state["v"], "v")
