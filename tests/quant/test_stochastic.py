"""Stochastic quantization (Eqns. 4–5) as the reference states it,
``reference/wire.py``'s ``quantize_with_noise``: code range, exact rows and
endpoints, error against bit-width, wire size, argument checks.  Its
unbiasedness and Theorem 1's variance bound under keyed noise are tested
in ``test_keyed_rounding.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference.wire import block_noise, dequantize, quantize_with_noise

from repro.quant.stochastic import METADATA_BYTES_PER_ROW, KeyedRounding


def quantize(h, bits, epoch=0):
    """``h`` quantized at ``bits`` under keyed noise; the epoch is the key."""
    rounding = KeyedRounding(0)
    rounding.set_epoch(epoch)
    noise = block_noise(rounding, "fwd", 0, 0, 1, shape=np.shape(h))
    return quantize_with_noise(h, bits, noise)


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
def test_codes_within_range(bits):
    h = np.random.default_rng(0).normal(size=(40, 16)).astype(np.float32)
    q = quantize(h, bits)
    assert q.codes.dtype == np.uint8
    assert q.codes.max() <= 2**bits - 1


def test_constant_rows_exact():
    h = np.full((3, 8), 2.5, dtype=np.float32)
    q = quantize(h, 2)
    assert np.array_equal(dequantize(q), h)
    assert np.all(q.scale == 0)


def test_endpoints_exact():
    """Min and max of each row are representable exactly at any bit-width."""
    h = np.array([[0.0, 1.0, 0.25, 0.75]], dtype=np.float32)
    for epoch in range(20):
        deq = dequantize(quantize(h, 2, epoch))
        assert deq[0, 0] == 0.0
        assert abs(deq[0, 1] - 1.0) < 1e-6


def test_higher_bits_lower_error():
    h = np.random.default_rng(1).normal(size=(100, 32)).astype(np.float32)
    errs = {bits: np.abs(dequantize(quantize(h, bits)) - h).mean() for bits in (2, 4, 8)}
    assert errs[8] < errs[4] < errs[2]


def test_wire_bytes_formula():
    h = np.random.default_rng(0).normal(size=(10, 16)).astype(np.float32)
    q2 = quantize(h, 2)
    assert q2.wire_bytes == (10 * 16 * 2 + 7) // 8 + 10 * METADATA_BYTES_PER_ROW
    q8 = quantize(h, 8)
    assert q8.wire_bytes == 10 * 16 + 10 * METADATA_BYTES_PER_ROW
    assert q2.wire_bytes < q8.wire_bytes < h.nbytes


def test_invalid_bits_rejected():
    with pytest.raises(ValueError, match="bits"):
        quantize(np.zeros((2, 2), dtype=np.float32), 3)


def test_non_2d_rejected():
    with pytest.raises(ValueError, match="h"):
        quantize(np.zeros(4, dtype=np.float32), 2)


@given(
    hnp.arrays(
        dtype=np.float32,
        shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=20),
        elements=st.floats(-100, 100, width=32),
    ),
    st.sampled_from([2, 4, 8]),
)
@settings(max_examples=80, deadline=None)
def test_property_dequantized_within_row_range(h, bits):
    """De-quantized values never leave the [row min, row max] envelope."""
    q = quantize(h, bits)
    deq = dequantize(q)
    lo = h.min(axis=1, keepdims=True)
    hi = h.max(axis=1, keepdims=True)
    eps = 1e-3 * (np.abs(hi) + np.abs(lo) + 1)
    assert (deq >= lo - eps).all() and (deq <= hi + eps).all()


@given(
    hnp.arrays(
        dtype=np.float32,
        shape=(4, 8),
        elements=st.floats(-10, 10, width=32),
    )
)
@settings(max_examples=50, deadline=None)
def test_property_8bit_error_bounded_by_scale(h):
    q = quantize(h, 8)
    err = np.abs(dequantize(q) - h)
    assert (err <= q.scale[:, None] + 1e-5).all()
