"""The per-message reference encoder (``reference/wire.py``): the wire
format of adaptive quantization."""

import numpy as np
import pytest
from reference.wire import MixedPrecisionEncoder, decode

from repro.quant.mixed import GROUP_HEADER_BYTES
from repro.quant.stochastic import METADATA_BYTES_PER_ROW, KeyedRounding

BLOCK = ("fwd", 0, 0, 1)  # the message's noise coordinates


def _encoder(seed=0):
    return MixedPrecisionEncoder(KeyedRounding(seed))


def test_encode_decode_shape():
    h = np.random.default_rng(1).normal(size=(12, 6)).astype(np.float32)
    bits = np.array([2, 8, 2, 4, 8, 2, 4, 4, 8, 2, 2, 8])
    payload = _encoder().encode(h, bits, BLOCK)
    out = decode(payload)
    assert out.shape == h.shape
    assert out.dtype == np.float32


def test_rows_grouped_by_bits():
    h = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
    bits = np.array([8, 2, 8, 2, 4, 4])
    payload = _encoder().encode(h, bits, BLOCK)
    assert payload.group_bits == [2, 4, 8]
    groups = {b: rows.tolist() for b, rows in zip(payload.group_bits, payload.group_rows)}
    assert groups[2] == [1, 3]
    assert groups[4] == [4, 5]
    assert groups[8] == [0, 2]


def test_higher_bits_rows_more_accurate():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(400, 16)).astype(np.float32)
    bits = np.array([2] * 200 + [8] * 200)
    payload = _encoder().encode(h, bits, BLOCK)
    out = decode(payload)
    err2 = np.abs(out[:200] - h[:200]).mean()
    err8 = np.abs(out[200:] - h[200:]).mean()
    assert err8 < err2


def test_wire_bytes_accounting():
    h = np.ones((10, 8), dtype=np.float32)
    h[:, 0] = 0.0  # non-constant rows
    bits = np.array([2] * 4 + [8] * 6)
    payload = _encoder().encode(h, bits, BLOCK)
    expected = (
        (4 * 8 * 2 + 7) // 8 + 4 * METADATA_BYTES_PER_ROW + GROUP_HEADER_BYTES
        + 6 * 8 + 6 * METADATA_BYTES_PER_ROW + GROUP_HEADER_BYTES
    )
    assert payload.wire_bytes == expected
    assert payload.float_bytes == 10 * 8 * 4
    assert payload.wire_bytes < payload.float_bytes


def test_single_bits_group():
    h = np.random.default_rng(0).normal(size=(5, 3)).astype(np.float32)
    payload = _encoder().encode(h, np.full(5, 4), BLOCK)
    assert payload.group_bits == [4]
    assert payload.group_rows[0].tolist() == [0, 1, 2, 3, 4]


def test_bits_length_mismatch_rejected():
    h = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="one entry per row"):
        _encoder().encode(h, np.array([2, 2]), BLOCK)


def test_unbiasedness_of_mixed_encoding():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(6, 8)).astype(np.float32)
    bits = np.array([2, 4, 8, 2, 4, 8])
    enc = _encoder(7)
    reps = []
    for epoch in range(2000):  # the epoch is a noise coordinate: fresh draws
        enc.rounding.set_epoch(epoch)
        reps.append(decode(enc.encode(h, bits, BLOCK)))
    reps = np.stack(reps)
    scale = (h.max(axis=1) - h.min(axis=1)) / 3.0  # worst (2-bit) scale
    tol = 5 * scale[:, None] / np.sqrt(6 * 2000)
    assert (np.abs(reps.mean(axis=0) - h) < tol + 1e-7).all()
