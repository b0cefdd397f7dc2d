"""Layer forward/backward correctness against numerical gradients."""

import numpy as np
import pytest

from repro.nn.gradcheck import numerical_gradient, relative_error
from repro.nn.layers import Dropout, LayerNorm, Linear, ReLU

RNG = np.random.default_rng(0)


def test_linear_forward_shape():
    layer = Linear(4, 3, np.random.default_rng(0))
    out = layer.forward(np.ones((5, 4), dtype=np.float32))
    assert out.shape == (5, 3)


def test_linear_gradcheck_input():
    layer = Linear(4, 3, np.random.default_rng(1))
    x0 = RNG.normal(size=(6, 4))
    d_out = RNG.normal(size=(6, 3)).astype(np.float32)

    def f(x):
        return float((layer.forward(x) * d_out).sum())

    num = numerical_gradient(f, x0)
    layer.forward(x0)
    analytic = layer.backward(d_out.astype(np.float64))
    assert relative_error(num, analytic) < 1e-4


def test_linear_gradcheck_weight_and_bias():
    layer = Linear(3, 2, np.random.default_rng(2))
    x = RNG.normal(size=(5, 3)).astype(np.float32)
    d_out = RNG.normal(size=(5, 2)).astype(np.float32)
    w0 = layer.weight.data.copy().astype(np.float64)

    def f_w(w):
        layer.weight.data[...] = w.astype(np.float32)
        return float((layer.forward(x) * d_out).sum())

    num_w = numerical_gradient(f_w, w0)
    layer.weight.data[...] = w0.astype(np.float32)
    layer.zero_grad() if hasattr(layer, "zero_grad") else None
    layer.weight.grad.fill(0)
    layer.bias.grad.fill(0)
    layer.forward(x)
    layer.backward(d_out)
    assert relative_error(num_w, layer.weight.grad) < 2e-2
    assert relative_error(d_out.sum(axis=0), layer.bias.grad) < 1e-5


def test_linear_grad_accumulates():
    layer = Linear(2, 2, np.random.default_rng(0))
    x = np.ones((3, 2), dtype=np.float32)
    d = np.ones((3, 2), dtype=np.float32)
    layer.forward(x)
    layer.backward(d)
    g1 = layer.weight.grad.copy()
    layer.forward(x)
    layer.backward(d)
    assert np.allclose(layer.weight.grad, 2 * g1)


def test_backward_before_forward_raises():
    layer = Linear(2, 2, np.random.default_rng(0))
    with pytest.raises(RuntimeError, match="before forward"):
        layer.backward(np.ones((1, 2), dtype=np.float32))
    norm = LayerNorm(4)
    with pytest.raises(RuntimeError):
        norm.backward(np.ones((1, 4), dtype=np.float32))
    relu = ReLU()
    with pytest.raises(RuntimeError):
        relu.backward(np.ones((1, 4), dtype=np.float32))


def test_layernorm_normalizes():
    norm = LayerNorm(16)
    x = RNG.normal(3.0, 5.0, size=(10, 16)).astype(np.float32)
    out = norm.forward(x)
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-5)
    assert np.allclose(out.std(axis=1), 1.0, atol=1e-2)


def test_layernorm_gradcheck():
    norm = LayerNorm(6)
    norm.gamma.data[...] = RNG.normal(1.0, 0.2, 6).astype(np.float32)
    norm.beta.data[...] = RNG.normal(0.0, 0.2, 6).astype(np.float32)
    x0 = RNG.normal(size=(4, 6))
    d_out = RNG.normal(size=(4, 6)).astype(np.float32)

    def f(x):
        return float((norm.forward(x) * d_out).sum())

    num = numerical_gradient(f, x0)
    norm.forward(x0)
    analytic = norm.backward(d_out.astype(np.float64))
    assert relative_error(num, analytic) < 1e-4


def test_layernorm_param_grads():
    norm = LayerNorm(5)
    x = RNG.normal(size=(7, 5)).astype(np.float32)
    d_out = RNG.normal(size=(7, 5)).astype(np.float32)
    out = norm.forward(x)
    x_hat = (out - norm.beta.data) / norm.gamma.data
    norm.backward(d_out)
    assert np.allclose(norm.beta.grad, d_out.sum(axis=0), atol=1e-5)
    assert np.allclose(norm.gamma.grad, (d_out * x_hat).sum(axis=0), atol=1e-4)


def test_relu():
    relu = ReLU()
    x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
    out = relu.forward(x)
    assert out.tolist() == [[0.0, 0.0, 2.0]]
    dx = relu.backward(np.ones_like(x))
    assert dx.tolist() == [[0.0, 0.0, 1.0]]


def test_dropout_train_vs_eval():
    drop = Dropout(0.5, np.random.default_rng(0))
    x = np.ones((1000, 4), dtype=np.float32)
    drop.training = True
    out = drop.forward(x)
    kept = float((out != 0).mean())
    assert 0.4 < kept < 0.6
    assert abs(out.mean() - 1.0) < 0.1  # inverted dropout preserves scale
    drop.training = False
    assert np.array_equal(drop.forward(x), x)


def test_dropout_zero_p_identity():
    drop = Dropout(0.0, np.random.default_rng(0))
    x = RNG.normal(size=(5, 3)).astype(np.float32)
    assert np.array_equal(drop.forward(x), x)
    assert np.array_equal(drop.backward(x), x)


def test_dropout_backward_uses_same_mask():
    drop = Dropout(0.5, np.random.default_rng(0))
    x = np.ones((50, 4), dtype=np.float32)
    out = drop.forward(x)
    dx = drop.backward(np.ones_like(x))
    assert np.array_equal(out != 0, dx != 0)


def test_dropout_invalid_p():
    with pytest.raises(ValueError):
        Dropout(1.5, np.random.default_rng(0))


@pytest.mark.parametrize("p", [0.1, 0.5, 1 / 3])
def test_sample_mask_into_a_buffer_keeps_the_bits_and_the_stream(p):
    """Drawing into a caller's buffer (the fused engine's mask rows) writes
    the inverted-dropout mask ``(u < keep) / keep`` of the same uniforms and
    leaves the generator where a plain draw leaves it."""
    keep = 1.0 - p
    reference = np.random.default_rng(3)
    want = (reference.random((33, 7)) < keep).astype(np.float32) / keep
    drop = Dropout(p, np.random.default_rng(3))
    buf = np.full((40, 7), np.nan, dtype=np.float32)
    got = drop.sample_mask((33, 7), out=buf[:33])
    assert np.shares_memory(got, buf)
    assert buf[:33].tobytes() == want.tobytes()
    assert np.isnan(buf[33:]).all()
    assert drop.rng.bit_generator.state == reference.bit_generator.state
    assert Dropout(p, np.random.default_rng(3)).sample_mask((33, 7)).tobytes() == (
        want.tobytes()
    )
    with pytest.raises(ValueError, match="shape"):
        drop.sample_mask((33, 7), out=buf)


@pytest.mark.parametrize("p", [0.0, 0.4])
@pytest.mark.parametrize("dim", [1, 9, 64, 200])
def test_engine_post_stage_is_the_modules(dim, p):
    """The fused engine's post stage — on whichever kernel tier runs — is
    LayerNorm → ReLU → Dropout per device, bit for bit: outputs and input
    gradients; its per-device partials are the modules' γ/β gradients.  An
    empty device and a zero-variance row ride along."""
    from repro.cluster.compute import _post_backward, _post_forward

    gen = np.random.default_rng(dim)
    bounds = np.array([0, 5, 5, 40, 41], dtype=np.int64)
    n = int(bounds[-1])
    x = gen.normal(size=(n, dim)).astype(np.float32)
    x[7] = 2.0
    d = gen.normal(size=(n, dim)).astype(np.float32)
    norm = LayerNorm(dim)
    norm.gamma.data[...] = gen.normal(1.0, 0.3, dim)
    norm.beta.data[...] = gen.normal(0.0, 0.3, dim)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    drop = np.empty_like(x) if p else None
    for k, (lo, hi) in enumerate(blocks):
        if drop is not None:
            Dropout(p, np.random.default_rng(k)).sample_mask(
                (hi - lo, dim), out=drop[lo:hi]
            )
    h, g, x_hat = x.copy(), d.copy(), np.empty_like(x)
    inv_std, mask = np.empty((n, 1), np.float32), np.empty((n, dim), bool)
    partials = np.empty((len(blocks), 2, dim), np.float32)
    _post_forward(norm, h, x_hat, inv_std, mask, drop)
    _post_backward(norm, g, x_hat, inv_std, mask, drop, bounds, partials)
    for k, (lo, hi) in enumerate(blocks):
        if hi == lo:
            assert not partials[k].any()
            continue
        ln, relu, dr = LayerNorm(dim), ReLU(), Dropout(p, np.random.default_rng(k))
        ln.gamma.data[...], ln.beta.data[...] = norm.gamma.data, norm.beta.data
        out = dr.forward(relu.forward(ln.forward(x[lo:hi])))
        assert out.tobytes() == h[lo:hi].tobytes()
        grad = ln.backward(relu.backward(dr.backward(d[lo:hi])))
        assert grad.tobytes() == g[lo:hi].tobytes()
        assert np.array_equal(ln.gamma.grad, partials[k, 0])
        assert np.array_equal(ln.beta.grad, partials[k, 1])
