"""The GNN model: one parameter set of stacked conv layers.

Mirrors the paper's configuration (Table 8): 3 layers, hidden width 256,
LayerNorm between layers, dropout, Adam at lr 0.01 (optimizer lives with
the trainer).  AdaQP keeps a replica of this model on every GPU and the
gradient allreduce keeps the replicas equal; the simulated cluster runs all
its devices in one process, so it holds the one parameter set those
replicas would be copies of.  The model holds parameters only: the
cluster's compute engine runs each layer over every device's rows,
exchanging halo messages before each layer's forward and after each
layer's backward.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.conv import GCNConv, SAGEConv
from repro.nn.layers import Dropout, LayerNorm
from repro.nn.module import Module
from repro.utils.validation import check_in_set

__all__ = ["MODEL_KINDS", "GNNLayer", "DistGNN"]

MODEL_KINDS = ("gcn", "sage")


class GNNLayer(Module):
    """One GNN block: conv followed by optional LayerNorm + ReLU + Dropout.

    The final layer of a network skips the post-processing (raw logits).
    """

    def __init__(
        self,
        kind: str,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        *,
        dropout: float,
        is_output: bool,
    ) -> None:
        super().__init__()
        check_in_set(kind, MODEL_KINDS, name="kind")
        conv_cls = GCNConv if kind == "gcn" else SAGEConv
        self.conv = conv_cls(in_features, out_features, rng)
        self.is_output = bool(is_output)
        if not self.is_output:
            self.norm = LayerNorm(out_features)
            self.drop = Dropout(dropout)

    @property
    def has_post_stage(self) -> bool:
        """Whether LayerNorm/ReLU/Dropout follow the conv (all but the
        output layer).  The fused compute engine branches on this instead
        of poking ``is_output`` so the stage contract lives in one place."""
        return not self.is_output


class DistGNN(Module):
    """A stack of :class:`GNNLayer` blocks: the cluster's one parameter set.

    Parameters
    ----------
    kind:
        ``"gcn"`` or ``"sage"``.
    dims:
        Layer widths ``[in, hidden, ..., out]``; ``len(dims) - 1`` layers.
    weight_rng:
        Stream for weight init, drawn layer by layer.
    """

    def __init__(
        self,
        kind: str,
        dims: list[int],
        *,
        dropout: float,
        weight_rng: np.random.Generator,
    ) -> None:
        super().__init__()
        check_in_set(kind, MODEL_KINDS, name="kind")
        if len(dims) < 2:
            raise ValueError("dims needs at least [in, out]")
        self.kind = kind
        self.dims = list(dims)
        self.layers = [
            GNNLayer(
                kind,
                dims[i],
                dims[i + 1],
                weight_rng,
                dropout=dropout,
                is_output=(i == len(dims) - 2),
            )
            for i in range(len(dims) - 1)
        ]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def layer_dims(self, layer: int) -> tuple[int, int]:
        """(input width, output width) of ``layer``."""
        return self.dims[layer], self.dims[layer + 1]
