"""Minimal neural-network substrate (the PyTorch replacement).

Layers hold parameters; the cluster's fused compute engine runs their
forward and backward by hand over every device's rows at once.  Explicit
backward is a feature here, not a limitation: AdaQP quantizes *embedding
gradients* flowing between devices during the backward pass, so the
reproduction needs direct control over exactly where gradients cross device
boundaries.

Gradient correctness is enforced by numerical differentiation tests of the
per-device reference model (``tests/reference/model.py``, see ``tests/nn``),
which the engine equals bit for bit.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Dropout, LayerNorm, Linear
from repro.nn.losses import bce_with_logits_loss, softmax_cross_entropy
from repro.nn.metrics import accuracy, micro_f1
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn import init
from repro.nn.gradcheck import numerical_gradient

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "softmax_cross_entropy",
    "bce_with_logits_loss",
    "accuracy",
    "micro_f1",
    "Optimizer",
    "SGD",
    "Adam",
    "init",
    "numerical_gradient",
]
