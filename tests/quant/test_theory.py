"""Variance theory (Theorems 1 and 3 ingredients)."""

import numpy as np
import pytest
from reference.wire import block_noise, dequantize, quantize_with_noise

from repro.quant.stochastic import KeyedRounding
from repro.quant.theory import (
    SUPPORTED_BITS,
    beta_values,
    layer_variance_bound,
    quantization_variance,
    variance_objective,
)


def test_theorem1_formula_manual():
    h = np.array([[0.0, 3.0]])
    # range 3, bits 2 -> scale 1, D=2 -> variance = 2/6
    assert abs(quantization_variance(h, 2)[0] - 2 / 6) < 1e-12


def test_theorem1_matches_empirical_variance():
    h = np.random.default_rng(0).normal(size=(2, 64)).astype(np.float32)
    predicted = quantization_variance(h, 2)
    rounding = KeyedRounding(0)
    reps = []
    for epoch in range(4000):  # the epoch is a noise coordinate: fresh draws
        rounding.set_epoch(epoch)
        noise = block_noise(rounding, "fwd", 0, 0, 1, shape=h.shape)
        reps.append(dequantize(quantize_with_noise(h, 2, noise)))
    reps = np.stack(reps)
    empirical = reps.var(axis=0).sum(axis=1)
    # Uniform-fraction assumption gives an upper bound; empirical should be
    # within it and of the same order.
    assert (empirical <= predicted * 1.15).all()
    assert (empirical >= predicted * 0.2).all()


def test_variance_decreases_with_bits():
    h = np.random.default_rng(0).normal(size=(5, 16))
    v = [quantization_variance(h, b).sum() for b in (2, 4, 8)]
    assert v[0] > v[1] > v[2]


def test_beta_values_formula():
    value_range = np.array([2.0])
    alpha_sq = np.array([0.5])
    beta = beta_values(value_range, 10, alpha_sq)
    assert abs(beta[0] - 0.5 * 10 * 4.0 / 6.0) < 1e-12


def test_beta_shape_mismatch():
    with pytest.raises(ValueError):
        beta_values(np.ones(3), 4, np.ones(2))


def test_variance_objective():
    beta = np.array([6.0, 6.0])
    bits = np.array([2, 8])
    expected = 6.0 / 9.0 + 6.0 / 255.0**2
    assert abs(variance_objective(beta, bits) - expected) < 1e-12


def test_variance_objective_monotone():
    beta = np.ones(4)
    lo = variance_objective(beta, np.full(4, 2))
    hi = variance_objective(beta, np.full(4, 8))
    assert hi < lo


def test_layer_variance_bound_positive_and_monotone():
    beta = np.ones(3)
    b_lo = layer_variance_bound(beta, np.full(3, 2), beta, np.full(3, 2))
    b_hi = layer_variance_bound(beta, np.full(3, 8), beta, np.full(3, 8))
    assert 0 < b_hi < b_lo


def test_supported_bits_match_paper():
    assert SUPPORTED_BITS == (2, 4, 8)
