"""Module tree: parameter discovery, state dicts, gradient vectors — and
the train/eval mode of the reference model's tree (``tests/reference/``),
which only its dropout reads."""

import numpy as np
import pytest
from reference import model as reference

from repro.nn.layers import LayerNorm, Linear
from repro.nn.module import Module, Parameter


class _Net(reference.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(3, 4, np.random.default_rng(0))
        self.norm = LayerNorm(4)
        self.blocks = [Linear(4, 2, np.random.default_rng(1))]
        self.scalar = Parameter(np.zeros(1, dtype=np.float32))


def test_named_parameters_order_deterministic():
    names = [n for n, _ in _Net().named_parameters()]
    assert names == [
        "fc1.weight",
        "fc1.bias",
        "norm.gamma",
        "norm.beta",
        "blocks.0.weight",
        "blocks.0.bias",
        "scalar",
    ]


def test_num_parameters():
    net = _Net()
    assert net.num_parameters() == 3 * 4 + 4 + 4 + 4 + 4 * 2 + 2 + 1


def test_train_eval_propagates():
    net = _Net()
    net.eval()
    assert not net.norm.training
    net.train()
    assert net.blocks[0].training
    for name in ("training", "train", "eval", "modules"):
        assert not hasattr(Module, name), name


def test_state_dict_roundtrip():
    net1, net2 = _Net(), _Net()
    net1.fc1.weight.data[...] = 7.0
    net2.load_state_dict(net1.state_dict())
    assert np.array_equal(net2.fc1.weight.data, net1.fc1.weight.data)


def test_state_dict_key_mismatch():
    net = _Net()
    state = net.state_dict()
    state["extra"] = np.zeros(1)
    with pytest.raises(KeyError, match="unexpected"):
        net.load_state_dict(state)
    state2 = net.state_dict()
    del state2["fc1.weight"]
    with pytest.raises(KeyError, match="missing"):
        net.load_state_dict(state2)


def test_state_dict_shape_mismatch():
    net = _Net()
    state = net.state_dict()
    state["fc1.weight"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        net.load_state_dict(state)


def test_grad_vector_roundtrip():
    net = _Net()
    rng = np.random.default_rng(3)
    for p in net.parameters():
        p.grad[...] = rng.normal(size=p.shape).astype(np.float32)
    vec = net.grad_vector()
    assert vec.size == net.num_parameters()
    net2 = _Net()
    net2.set_grad_vector(vec)
    assert np.array_equal(net2.grad_vector(), vec)


def test_set_grad_vector_wrong_length():
    net = _Net()
    with pytest.raises(ValueError, match="length"):
        net.set_grad_vector(np.zeros(3, dtype=np.float32))


def test_zero_grad():
    net = _Net()
    net.fc1.weight.grad[...] = 1.0
    net.zero_grad()
    assert np.all(net.fc1.weight.grad == 0)
